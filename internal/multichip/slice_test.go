package multichip

import "testing"

// TestSliceRejectsModeledFaults pins the boundary between the modeled
// fault layer (in-process simulation) and real cluster faults.
func TestSliceRejectsModeledFaults(t *testing.T) {
	m := kgraph(16, 1)
	cfg := Config{Chips: 2, Seed: 1}
	cfg.Faults.DropRate = 0.5
	cfg.Faults.Seed = 3
	if _, err := NewSlice(m, cfg, 0, 10); err == nil {
		t.Fatal("NewSlice accepted a modeled-fault config")
	}
}
