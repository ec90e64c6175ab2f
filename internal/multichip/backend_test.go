package multichip

import (
	"context"
	"testing"

	"mbrim/internal/ising"
	"mbrim/internal/lattice"
)

// TestBackendsBitIdenticalWithResume pins the lattice refactor's
// contract at the system level: chip extraction and the per-chip
// dynamics over either layout of the model reproduce the stored one's
// full ledger exactly, and an interrupted-and-resumed run on a re-laid
// model still matches — checkpoints carry no layout, so it must not
// leak into the trajectory.
func TestBackendsBitIdenticalWithResume(t *testing.T) {
	stored := kgraph(48, 2)
	const duration = 40
	cfg := Config{Chips: 4, Seed: 5}
	ref := MustSystem(stored, cfg).RunConcurrent(duration)
	for _, backend := range []lattice.Kind{lattice.CSR, lattice.Dense} {
		m := stored.As(backend)
		got := MustSystem(m, cfg).RunConcurrent(duration)
		sameResult(t, ref, got)

		runC := func(s *System, ctx context.Context, ck *Checkpoint) (*Result, *Checkpoint, error) {
			return s.RunConcurrentCtx(ctx, duration, ck)
		}
		ck := interruptAt(t, m, cfg, 3, runC)
		resumed, ck2, err := MustSystem(m, cfg).RunConcurrentCtx(context.Background(), duration, ck)
		if err != nil || ck2 != nil {
			t.Fatalf("%v resume: err=%v, checkpoint=%v", backend, err, ck2)
		}
		sameResult(t, ref, resumed)
	}
}

// TestChipsInheritTheModelsLayout: a chip's machine runs in the layout
// of the model the system was handed — not the one its own block's
// density would resolve to — so a K-graph handed in as compressed rows
// anneals over compressed rows on every chip, and a sparse problem
// handed in dense over matrices.
func TestChipsInheritTheModelsLayout(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *ising.Model
		kind lattice.Kind
	}{
		{"K48 as csr", kgraph(48, 2), lattice.CSR},
		{"K48 as stored", kgraph(48, 2), lattice.Dense},
		{"G(200,0.05) as dense", weightedSparse(200, 0.05, 61), lattice.Dense},
		{"G(200,0.05) as stored", weightedSparse(200, 0.05, 61), lattice.CSR},
	} {
		for ci, c := range chipsOf(MustSystem(tc.m.As(tc.kind), Config{Chips: 4, Seed: 5})) {
			if got := c.machine.Model().View(lattice.Auto).Kind(); got != tc.kind {
				t.Errorf("%s: chip %d's machine runs on %v, want %v", tc.name, ci, got, tc.kind)
			}
		}
	}
}
