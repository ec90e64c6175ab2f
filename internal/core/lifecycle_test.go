package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"mbrim/internal/brim"
	"mbrim/internal/ising"
	"mbrim/internal/obs"
)

// cancelOnEpoch cancels its context when the traced run reaches the
// target epoch barrier — the deterministic interruption primitive the
// lifecycle tests are built on.
type cancelOnEpoch struct {
	epoch  int
	cancel context.CancelFunc
}

func (c *cancelOnEpoch) Emit(e obs.Event) {
	if e.Kind == obs.EpochSync && e.Epoch >= c.epoch {
		c.cancel()
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	_, req := testProblem(16, 1)

	// A model with a NaN coupling or an infinite bias no longer reaches
	// Solve: the only way to a Model refuses to make one.
	nan := ising.NewBuilder(8)
	nan.SetCoupling(0, 1, math.NaN())
	if m, err := nan.Build(); err == nil {
		t.Fatalf("NaN coupling: built %v", m)
	}
	inf := ising.NewBuilder(8)
	inf.SetBias(2, math.Inf(-1))
	if m, err := inf.Build(); err == nil {
		t.Fatalf("Inf bias: built %v", m)
	}

	bad := *req
	bad.Initial = make([]int8, 7) // wrong length, and zeros are not spins
	if _, err := Solve(bad); !errors.Is(err, ErrInvalidModel) {
		t.Fatalf("short warm start: got %v", err)
	}

	bad = *req
	bad.Initial = make([]int8, 16)
	if _, err := Solve(bad); !errors.Is(err, ErrInvalidModel) {
		t.Fatalf("zero-valued warm start: got %v", err)
	}

	bad = *req
	bad.Runs = -1
	if _, err := Solve(bad); err == nil {
		t.Fatal("negative Runs accepted")
	}

	bad = *req
	bad.DurationNS = math.NaN()
	if _, err := Solve(bad); err == nil {
		t.Fatal("NaN duration accepted")
	}
}

func TestResumeRejectedForSoftwareEngines(t *testing.T) {
	_, req := testProblem(16, 1)
	for _, kind := range []Kind{SA, Tabu, PT, BSBM, DSBM, BRIM, QBSolv, OursDnc} {
		r := *req
		r.Kind = kind
		r.Resume = []byte("whatever")
		if _, err := Solve(r); err == nil {
			t.Errorf("%s accepted resume bytes", kind)
		}
	}
}

func TestEveryEngineCancelsWithBestSoFar(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: every engine must stop at its first barrier
	for _, kind := range []Kind{SA, Tabu, PT, BSBM, DSBM, BRIM, QBSolv, OursDnc,
		MBRIMConcurrent, MBRIMSequential, MBRIMBatch} {
		t.Run(string(kind), func(t *testing.T) {
			_, req := testProblem(24, 2)
			req.Kind = kind
			req.Runs = 2
			out, err := SolveCtx(ctx, *req)
			if out != nil {
				t.Fatal("cancelled solve returned a non-nil primary outcome")
			}
			if !errors.Is(err, ErrInterrupted) || !errors.Is(err, context.Canceled) {
				t.Fatalf("want ErrInterrupted/Canceled, got %v", err)
			}
			var intr *InterruptedError
			if !errors.As(err, &intr) {
				t.Fatalf("not an *InterruptedError: %v", err)
			}
			if intr.Outcome == nil || len(intr.Outcome.Spins) != 24 {
				t.Fatalf("best-so-far missing: %+v", intr.Outcome)
			}
			for i, s := range intr.Outcome.Spins {
				if s != -1 && s != 1 {
					t.Fatalf("best-so-far spin %d is %d", i, s)
				}
			}
			switch kind {
			case MBRIMConcurrent, MBRIMSequential, MBRIMBatch:
				if len(intr.Checkpoint) == 0 {
					t.Fatal("multichip interruption carried no checkpoint")
				}
			default:
				if intr.Checkpoint != nil {
					t.Fatalf("%s claims resumable state", kind)
				}
			}
		})
	}
}

func TestDivergenceIsTypedThroughCore(t *testing.T) {
	// A bias beyond the guardrail's halving budget must surface as the
	// integrator's typed error, not NaN spins and not an interruption.
	mb := ising.NewBuilder(8)
	for i := 0; i < 8; i++ {
		mb.SetBias(i, 1e12)
	}
	m := mustBuild(mb)
	out, err := Solve(Request{Kind: BRIM, Model: m, DurationNS: 5})
	if out != nil {
		t.Fatal("divergent solve returned an outcome")
	}
	var div *brim.DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("want *brim.DivergenceError, got %v", err)
	}
	if errors.Is(err, ErrInterrupted) {
		t.Fatal("divergence misreported as interruption")
	}
}

func TestPanicBecomesTypedError(t *testing.T) {
	_, req := testProblem(16, 3)
	req.Kind = OursDnc
	req.MachineCapacity = -1 // trips the engine's internal invariant
	out, err := Solve(*req)
	if out != nil {
		t.Fatal("panicked solve returned an outcome")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Engine != OursDnc || len(pe.Stack) == 0 {
		t.Fatalf("panic diagnostics incomplete: engine=%s stack=%d bytes", pe.Engine, len(pe.Stack))
	}
}

func TestCoreResumeBitIdentical(t *testing.T) {
	for _, kind := range []Kind{MBRIMConcurrent, MBRIMSequential, MBRIMBatch} {
		t.Run(string(kind), func(t *testing.T) {
			_, req := testProblem(40, 4)
			req.Kind = kind
			req.Runs = 3
			req.DurationNS = 40
			full, err := Solve(*req)
			if err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ireq := *req
			ireq.Tracer = &cancelOnEpoch{epoch: 3, cancel: cancel}
			_, err = SolveCtx(ctx, ireq)
			var intr *InterruptedError
			if !errors.As(err, &intr) || len(intr.Checkpoint) == 0 {
				t.Fatalf("interruption failed: %v", err)
			}

			rreq := *req
			rreq.Resume = intr.Checkpoint
			resumed, err := Solve(rreq)
			if err != nil {
				t.Fatal(err)
			}
			if full.Energy != resumed.Energy || full.Cut != resumed.Cut {
				t.Fatalf("resume not bit-identical: energy %v vs %v", full.Energy, resumed.Energy)
			}
			if ising.HammingDistance(full.Spins, resumed.Spins) != 0 {
				t.Fatal("resume produced different spins")
			}
			for _, stat := range []string{"flips", "bitChanges", "trafficBytes"} {
				if full.Stats[stat] != resumed.Stats[stat] {
					t.Fatalf("stat %q differs: %v vs %v", stat, full.Stats[stat], resumed.Stats[stat])
				}
			}
		})
	}
}

func TestCoreResumeRejectsTampering(t *testing.T) {
	_, req := testProblem(32, 5)
	req.Kind = MBRIMConcurrent
	req.DurationNS = 30
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ireq := *req
	ireq.Tracer = &cancelOnEpoch{epoch: 2, cancel: cancel}
	_, err := SolveCtx(ctx, ireq)
	var intr *InterruptedError
	if !errors.As(err, &intr) || len(intr.Checkpoint) == 0 {
		t.Fatalf("interruption failed: %v", err)
	}

	// Garbage bytes.
	bad := *req
	bad.Resume = []byte("garbage")
	if _, err := Solve(bad); err == nil {
		t.Fatal("garbage resume bytes accepted")
	}
	// Wrong engine.
	bad = *req
	bad.Kind = MBRIMSequential
	bad.Resume = intr.Checkpoint
	if _, err := Solve(bad); err == nil {
		t.Fatal("checkpoint resumed under a different engine")
	}
	// Wrong seed.
	bad = *req
	bad.Seed = 999
	bad.Resume = intr.Checkpoint
	if _, err := Solve(bad); err == nil {
		t.Fatal("checkpoint resumed under a different seed")
	}
	// Wrong model (same size, different couplings).
	_, other := testProblem(32, 6)
	bad = *req
	bad.Model = other.Model
	bad.Graph = other.Graph
	bad.Resume = intr.Checkpoint
	if _, err := Solve(bad); err == nil {
		t.Fatal("checkpoint resumed against a different model")
	}
	// The pristine bytes still work.
	good := *req
	good.Resume = intr.Checkpoint
	if _, err := Solve(good); err != nil {
		t.Fatalf("pristine resume rejected: %v", err)
	}
}

// mustBuild freezes a test's builder: its couplings are the test's own,
// so an error is a bug in the test.
func mustBuild(b *ising.Builder) *ising.Model {
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}
