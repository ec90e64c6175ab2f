package multichip

import (
	"testing"

	"mbrim/internal/fault"
	"mbrim/internal/ising"
)

func TestParallelFewerJobsThanChipsStaysCorrect(t *testing.T) {
	// jobs < chips forces the sequential path even when Parallel is
	// set; the results must still match a sequential run.
	m := kgraph(48, 7)
	seq := MustSystem(m, Config{Chips: 4, Seed: 8, EpochNS: 5}).RunBatch(2, 30)
	par := MustSystem(m, Config{Chips: 4, Seed: 8, EpochNS: 5, Parallel: true}).RunBatch(2, 30)
	if seq.BestEnergy != par.BestEnergy {
		t.Fatal("jobs<chips parallel batch diverged")
	}
}

func TestParallelSingleChip(t *testing.T) {
	m := kgraph(32, 9)
	res := MustSystem(m, Config{Chips: 1, Seed: 10, Parallel: true}).RunConcurrent(20)
	if res.Flips == 0 {
		t.Fatal("single-chip parallel run did nothing")
	}
}

func TestTopologyAffectsStalls(t *testing.T) {
	m := kgraph(64, 20)
	res := MustSystem(m, Config{
		Chips: 4, Seed: 21, Channels: 1, ChannelBytesPerNS: 0.02,
	}).RunConcurrent(30)
	if res.StallNS <= 0 {
		t.Fatal("starved dedicated fabric did not stall")
	}
}

func TestCustomPartition(t *testing.T) {
	m := kgraph(40, 30)
	// Heterogeneous chips: 24 + 10 + 6 spins.
	parts := [][]int{{}, {}, {}}
	for i := 0; i < 24; i++ {
		parts[0] = append(parts[0], i)
	}
	for i := 24; i < 34; i++ {
		parts[1] = append(parts[1], i)
	}
	for i := 34; i < 40; i++ {
		parts[2] = append(parts[2], i)
	}
	res := MustSystem(m, Config{Chips: 3, Seed: 31, Partition: parts}).RunConcurrent(30)
	if !ising.ValidSpins(res.Spins) || len(res.Spins) != 40 {
		t.Fatal("invalid result with custom partition")
	}
	if res.Energy >= 0 {
		t.Fatalf("no progress: %v", res.Energy)
	}
}

func TestCustomPartitionValidation(t *testing.T) {
	m := kgraph(8, 32)
	for name, parts := range map[string][][]int{
		"wrong count": {{0, 1, 2, 3}, {4, 5, 6, 7}},
		"duplicate":   {{0, 1, 2}, {2, 3, 4}, {5, 6, 7}},
		"missing":     {{0, 1}, {2, 3}, {4, 5}},
		"empty part":  {{0, 1, 2, 3, 4, 5, 6, 7}, {}, nil},
		"range":       {{0, 1, 2}, {3, 4, 5}, {6, 7, 99}},
	} {
		if _, err := NewSystem(m, Config{Chips: 3, Seed: 1, Partition: parts}); err == nil {
			t.Fatalf("%s did not error", name)
		}
	}
}

func TestConfigValidationErrors(t *testing.T) {
	m := kgraph(8, 32)
	for name, cfg := range map[string]Config{
		"too many chips": {Chips: 9},
		"neg chips":      {Chips: -1},
		"neg epoch":      {Chips: 2, EpochNS: -1},
		"neg channels":   {Chips: 2, Channels: -1},
		"bad fault rate": {Chips: 2, Faults: fault.Config{DropRate: 1.5}},
		"bad loss chip":  {Chips: 2, Faults: fault.Config{ChipLossEpoch: 1, ChipLossChip: 7}},
	} {
		if _, err := NewSystem(m, cfg); err == nil {
			t.Fatalf("%s did not error", name)
		}
	}
}
