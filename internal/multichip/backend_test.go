package multichip

import (
	"context"
	"testing"

	"mbrim/internal/lattice"
)

// TestBackendsBitIdenticalWithResume pins the lattice refactor's
// contract at the system level: chip extraction and the per-chip
// dynamics through any coupling backend reproduce the dense run's full
// ledger exactly, and an interrupted-and-resumed run on a non-dense
// backend still matches — checkpoints carry no backend state, so the
// choice must not leak into the trajectory.
func TestBackendsBitIdenticalWithResume(t *testing.T) {
	m := kgraph(48, 2)
	const duration = 40
	base := Config{Chips: 4, Seed: 5}
	ref := MustSystem(m, base).RunConcurrent(duration)
	for _, backend := range []lattice.Kind{lattice.CSR, lattice.Dense} {
		cfg := base
		cfg.Backend = backend
		got := MustSystem(m, cfg).RunConcurrent(duration)
		sameLedger(t, ref, got)

		runC := func(s *System, ctx context.Context, ck *Checkpoint) (*Result, *Checkpoint, error) {
			return s.RunConcurrentCtx(ctx, duration, ck)
		}
		ck := interruptAt(t, m, cfg, 3, runC)
		resumed, ck2, err := MustSystem(m, cfg).RunConcurrentCtx(context.Background(), duration, ck)
		if err != nil || ck2 != nil {
			t.Fatalf("%v resume: err=%v, checkpoint=%v", backend, err, ck2)
		}
		sameLedger(t, ref, resumed)
	}
}
