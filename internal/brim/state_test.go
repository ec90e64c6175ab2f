package brim

import (
	"context"
	"errors"
	"math"
	"testing"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/rng"
)

func stateTestModel(n int, seed uint64) *ising.Model {
	return graph.Complete(n, rng.New(seed)).ToIsing()
}

func TestSnapshotRestoreBitIdentical(t *testing.T) {
	// Run A straight through; run B in two halves with a snapshot
	// carried across a machine teardown in between. Every observable
	// must coincide.
	m := stateTestModel(48, 1)
	cfg := Config{Seed: 7}

	a := New(m, cfg)
	a.SetHorizon(40)
	if err := a.Run(40); err != nil {
		t.Fatal(err)
	}

	b1 := New(m, cfg)
	b1.SetHorizon(40)
	if err := b1.Run(17.5); err != nil {
		t.Fatal(err)
	}
	st := b1.Snapshot()

	b2 := New(m, cfg)
	if err := b2.Restore(st); err != nil {
		t.Fatal(err)
	}
	if err := b2.Run(40 - 17.5); err != nil {
		t.Fatal(err)
	}

	if ising.HammingDistance(a.Spins(), b2.Spins()) != 0 {
		t.Fatal("spins diverged across snapshot/restore")
	}
	if a.Flips() != b2.Flips() || a.InducedFlips() != b2.InducedFlips() {
		t.Fatalf("flip counters diverged: %d/%d vs %d/%d",
			a.Flips(), a.InducedFlips(), b2.Flips(), b2.InducedFlips())
	}
	av, bv := a.v, b2.v
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("voltage %d diverged: %v vs %v", i, av[i], bv[i])
		}
	}
	if ar, br := a.r.State(), b2.r.State(); ar != br {
		t.Fatal("PRNG streams diverged")
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	m := stateTestModel(16, 2)
	ma := New(m, Config{Seed: 3})
	ma.SetHorizon(10)
	if err := ma.Run(5); err != nil {
		t.Fatal(err)
	}
	good := ma.Snapshot()

	corrupt := func(mut func(*State)) *State {
		st := *good
		st.V = append([]float64(nil), good.V...)
		st.Spins = append([]int8(nil), good.Spins...)
		st.Ext = append([]float64(nil), good.Ext...)
		st.HoldUntil = append([]float64(nil), good.HoldUntil...)
		st.HoldTarget = append([]int8(nil), good.HoldTarget...)
		mut(&st)
		return &st
	}
	cases := map[string]*State{
		"nil":            nil,
		"wrong seed":     corrupt(func(s *State) { s.Seed++ }),
		"short v":        corrupt(func(s *State) { s.V = s.V[:3] }),
		"nan voltage":    corrupt(func(s *State) { s.V[0] = math.NaN() }),
		"off-rail":       corrupt(func(s *State) { s.V[0] = 1.5 }),
		"bogus spin":     corrupt(func(s *State) { s.Spins[0] = 2 }),
		"inf ext":        corrupt(func(s *State) { s.Ext[0] = math.Inf(1) }),
		"negative time":  corrupt(func(s *State) { s.T = -1 }),
		"nan horizon":    corrupt(func(s *State) { s.Horizon = math.NaN() }),
		"negative flips": corrupt(func(s *State) { s.Flips = -1 }),
		// Either would wedge the advance loop rather than fail it.
		"unresolvable t": corrupt(func(s *State) { s.T, s.NextFlip = 6.6e15, 6.6e15+2 }),
		"stale nextFlip": corrupt(func(s *State) { s.NextFlip = s.T - 1 }),
	}
	for name, st := range cases {
		fresh := New(m, Config{Seed: 3})
		if err := fresh.Restore(st); err == nil {
			t.Errorf("%s: corrupt state accepted", name)
		}
	}
	fresh := New(m, Config{Seed: 3})
	if err := fresh.Restore(good); err != nil {
		t.Fatalf("pristine state rejected: %v", err)
	}
}

// blowupModel has zero couplings (so coupling normalization is
// identity) and a bias large enough that the first RK4 step exceeds
// the blowup limit even after every halving the guardrail will try.
func blowupModel(n int, h float64) *ising.Model {
	mb := ising.NewBuilder(n)
	for i := 0; i < n; i++ {
		mb.SetBias(i, h)
	}
	return mustBuild(mb)
}

func TestGuardrailDivergenceIsTyped(t *testing.T) {
	m := blowupModel(8, 1e12)
	_, err := SolveCtx(context.Background(), m, SolveConfig{Duration: 5, Config: Config{Seed: 1}})
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("want *DivergenceError, got %v", err)
	}
	if div.Node < 0 || div.Node >= 8 {
		t.Fatalf("bogus node %d", div.Node)
	}
	if len(div.DtHistory) < 2 {
		t.Fatalf("guardrail gave up without halving: %v", div.DtHistory)
	}
	for i := 1; i < len(div.DtHistory); i++ {
		if div.DtHistory[i] >= div.DtHistory[i-1] {
			t.Fatalf("dt history not decreasing: %v", div.DtHistory)
		}
	}
	if math.IsNaN(div.Value) {
		// The diagnostic may legitimately carry NaN (mixed-sign
		// overflow) — but the machine's committed state must not.
	}
}

// TestGuardrailSeesThroughTanh: the guardrail finds a diverged step by
// the NaN, infinity or blown-up value in its candidate, and every stage
// voltage on the way there went through tanh — which must saturate for
// a huge or infinite argument and hand a NaN on, never launder it into
// something finite. Each machine here is driven past the limit and must
// report the node, the number of step sizes tried and the offending
// value. The NaN cases are what the derivative reported when it called
// math.Tanh; the two finite values grow with the step and are
// dt = 0.25·τ's (uncoupled nodes take the two-step floor), about 2.5×
// what 0.1·τ gave.
func TestGuardrailSeesThroughTanh(t *testing.T) {
	alternating := func(i int) float64 {
		if i < 3 {
			return 0
		}
		return float64(1-2*(i%2)) * 1e308
	}
	for _, c := range []struct {
		name     string
		n        int
		bias     func(i int) float64
		cfg      Config
		node     int
		attempts int
		value    float64
	}{
		{"overshoot", 8, func(int) float64 { return 1e12 }, Config{Seed: 1}, 0, 9, 9.76538587630942e+08},
		{"overflow to Inf−Inf", 8, func(int) float64 { return 1e308 }, Config{Seed: 1, Tau: 1e-3}, 0, 9, math.NaN()},
		{"first NaN is node 3", 9, alternating, Config{Seed: 2, Tau: 1e-3, MaxStepRetries: 3}, 3, 4, math.NaN()},
		{"retries off", 5, func(i int) float64 { return []float64{0, 0, 0, 0, -1e9}[i] }, Config{Seed: 3, MaxStepRetries: -1}, 4, 1, -2.4725857323556978e+08},
	} {
		mb := ising.NewBuilder(c.n)
		for i := 0; i < c.n; i++ {
			mb.SetBias(i, c.bias(i))
		}
		m := mustBuild(mb)
		_, err := SolveCtx(context.Background(), m, SolveConfig{Duration: 5, Config: c.cfg})
		var div *DivergenceError
		if !errors.As(err, &div) {
			t.Fatalf("%s: want *DivergenceError, got %v", c.name, err)
		}
		sameValue := div.Value == c.value || (math.IsNaN(div.Value) && math.IsNaN(c.value))
		if div.Node != c.node || len(div.DtHistory) != c.attempts || !sameValue || div.TimeNS != 0 {
			t.Errorf("%s: node %d after %d step sizes, value %v at t=%v; want node %d after %d, value %v at t=0",
				c.name, div.Node, len(div.DtHistory), div.Value, div.TimeNS, c.node, c.attempts, c.value)
		}
	}
}

func TestGuardrailRetriesRecoverModerateBlowup(t *testing.T) {
	// A bias overshooting the limit by a few halvings' worth must
	// finish cleanly, with finite committed state and retries counted.
	m := blowupModel(8, 1e8)
	res, err := SolveCtx(context.Background(), m, SolveConfig{Duration: 5, Config: Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.StepRetries == 0 {
		t.Fatal("expected halved-step retries")
	}
	if !ising.ValidSpins(res.Spins) {
		t.Fatal("invalid spins after guarded run")
	}
	if math.IsNaN(res.Energy) || math.IsInf(res.Energy, 0) {
		t.Fatalf("non-finite energy %v", res.Energy)
	}
}

func TestGuardrailDisabled(t *testing.T) {
	// MaxStepRetries < 0 turns retries off: the same model diverges
	// immediately, still with a typed error.
	m := blowupModel(4, 1e8)
	_, err := SolveCtx(context.Background(), m, SolveConfig{Duration: 5,
		Config: Config{Seed: 1, MaxStepRetries: -1}})
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("want *DivergenceError, got %v", err)
	}
	if len(div.DtHistory) != 1 {
		t.Fatalf("retries disabled but dt history is %v", div.DtHistory)
	}
}

func TestRunCtxCancelReturnsConsistentState(t *testing.T) {
	m := stateTestModel(32, 4)
	ma := New(m, Config{Seed: 5})
	ma.SetHorizon(100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ma.RunCtx(ctx, 100)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The machine stopped at a flip-interval boundary: its snapshot
	// must be valid and resumable.
	st := ma.Snapshot()
	fresh := New(m, Config{Seed: 5})
	if err := fresh.Restore(st); err != nil {
		t.Fatalf("post-cancel snapshot invalid: %v", err)
	}
}
