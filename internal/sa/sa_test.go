package sa

import (
	"context"
	"errors"
	"math"
	"testing"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/metrics"
	"mbrim/internal/rng"
	"mbrim/internal/sched"
)

// ferromagnet returns a model whose ground states are the two uniform
// assignments, with ground energy -(n choose 2).
func ferromagnet(n int) *ising.Model {
	mb := ising.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mb.SetCoupling(i, j, 1)
		}
	}
	return mustBuild(mb)
}

func TestSolveFindsFerromagnetGround(t *testing.T) {
	n := 24
	m := ferromagnet(n)
	res := Solve(m, Config{Sweeps: 200, Seed: 1})
	want := -float64(n*(n-1)) / 2
	if res.Energy != want {
		t.Fatalf("energy %v, want ground %v", res.Energy, want)
	}
	mag := ising.Magnetization(res.Spins)
	if mag != 1 && mag != -1 {
		t.Fatalf("ground state not uniform: magnetization %v", mag)
	}
}

func TestSolveEnergyMatchesSpins(t *testing.T) {
	r := rng.New(2)
	g := graph.Complete(40, r)
	m := g.ToIsing()
	res := Solve(m, Config{Sweeps: 50, Seed: 3})
	if d := math.Abs(res.Energy - m.Energy(res.Spins)); d > 1e-6 {
		t.Fatalf("reported energy off by %v from spins", d)
	}
}

func TestSolveDeterministic(t *testing.T) {
	r := rng.New(4)
	g := graph.Complete(30, r)
	m := g.ToIsing()
	a := Solve(m, Config{Sweeps: 40, Seed: 9})
	b := Solve(m, Config{Sweeps: 40, Seed: 9})
	if a.Energy != b.Energy || ising.HammingDistance(a.Spins, b.Spins) != 0 {
		t.Fatal("same seed produced different runs")
	}
	if a.Flips != b.Flips || a.Attempts != b.Attempts {
		t.Fatal("same seed produced different counters")
	}
}

func TestSolveRespectsInitial(t *testing.T) {
	m := ferromagnet(10)
	init := make([]int8, 10)
	for i := range init {
		init[i] = 1
	}
	// Freeze dynamics with an enormous beta: nothing should flip out of
	// the ground state.
	res := Solve(m, Config{Sweeps: 5, Seed: 1, Initial: init, Beta: sched.Constant(1e9)})
	if ising.HammingDistance(res.Spins, init) != 0 {
		t.Fatal("ground state destroyed under frozen dynamics")
	}
	if init[0] != 1 {
		t.Fatal("caller's initial spins were mutated")
	}
}

func TestSolveInitialNotAliased(t *testing.T) {
	m := ferromagnet(8)
	init := ising.RandomSpins(8, rng.New(5))
	keep := ising.CopySpins(init)
	Solve(m, Config{Sweeps: 20, Seed: 2, Initial: init})
	if ising.HammingDistance(init, keep) != 0 {
		t.Fatal("Solve mutated the caller's Initial slice")
	}
}

func TestAttemptsCount(t *testing.T) {
	m := ferromagnet(16)
	res := Solve(m, Config{Sweeps: 10, Seed: 1})
	if res.Attempts != 160 {
		t.Fatalf("Attempts = %d, want 160", res.Attempts)
	}
	if res.Flips > res.Attempts {
		t.Fatal("more flips than attempts")
	}
}

func TestColdRunOnlyImproves(t *testing.T) {
	// At infinite beta, Metropolis is greedy: energy must be
	// non-increasing sweep over sweep.
	r := rng.New(6)
	g := graph.Complete(50, r)
	m := g.ToIsing()
	last := math.Inf(1)
	Solve(m, Config{
		Sweeps: 30, Seed: 7, Beta: sched.Constant(1e9),
		OnSweep: func(sweep int, e float64) {
			if e > last+1e-9 {
				t.Fatalf("greedy energy increased at sweep %d: %v -> %v", sweep, last, e)
			}
			last = e
		},
	})
}

func TestHotRunExplores(t *testing.T) {
	// At beta ~ 0 almost every proposal is accepted.
	m := ferromagnet(20)
	res := Solve(m, Config{Sweeps: 10, Seed: 8, Beta: sched.Constant(1e-9)})
	if float64(res.Flips) < 0.9*float64(res.Attempts) {
		t.Fatalf("hot run accepted only %d of %d", res.Flips, res.Attempts)
	}
}

func TestNaiveMatchesFastStatistically(t *testing.T) {
	// Same process, different arithmetic path: both must land on the
	// ferromagnet ground state.
	m := ferromagnet(16)
	fast := Solve(m, Config{Sweeps: 100, Seed: 11})
	naive := SolveNaive(m, Config{Sweeps: 100, Seed: 11})
	want := -float64(16*15) / 2
	if fast.Energy != want || naive.Energy != want {
		t.Fatalf("fast=%v naive=%v want=%v", fast.Energy, naive.Energy, want)
	}
}

func TestNaiveEnergyConsistent(t *testing.T) {
	r := rng.New(12)
	g := graph.Complete(20, r)
	m := g.ToIsing()
	res := SolveNaive(m, Config{Sweeps: 20, Seed: 13})
	if d := math.Abs(res.Energy - m.Energy(res.Spins)); d > 1e-6 {
		t.Fatalf("naive energy off by %v", d)
	}
}

func TestInstructionsPerFlip(t *testing.T) {
	m := ferromagnet(64)
	res := Solve(m, Config{Sweeps: 50, Seed: 14})
	if res.Flips == 0 {
		t.Skip("no flips")
	}
	ipf := res.InstructionsPerFlip()
	// Must at least cover one row update.
	if ipf < float64(64*instrPerRowUpdate) {
		t.Fatalf("instructions per flip %v below one row update", ipf)
	}
}

func TestInstructionsPerFlipNoFlips(t *testing.T) {
	r := &Result{Attempts: 10, Flips: 0, Instructions: 100}
	if !math.IsInf(r.InstructionsPerFlip(), 1) {
		t.Fatal("zero flips should give +Inf per-flip cost")
	}
}

func TestOpsAccounting(t *testing.T) {
	m := ferromagnet(8)
	ops := metrics.NewOpCounter()
	res := Solve(m, Config{Sweeps: 5, Seed: 1, Ops: ops})
	if ops.Get("sa.attempts") != res.Attempts || ops.Get("sa.flips") != res.Flips {
		t.Fatal("op counter disagrees with result")
	}
}

func TestSolveBatchBestIsMin(t *testing.T) {
	r := rng.New(15)
	g := graph.Complete(30, r)
	m := g.ToIsing()
	br := SolveBatch(m, Config{Sweeps: 30, Seed: 100}, 8)
	if len(br.Results) != 8 {
		t.Fatalf("got %d results", len(br.Results))
	}
	for _, res := range br.Results {
		if res.Energy < br.Best.Energy {
			t.Fatal("Best is not the minimum")
		}
	}
}

func TestSolveBatchSeedsDiffer(t *testing.T) {
	r := rng.New(16)
	g := graph.Complete(40, r)
	m := g.ToIsing()
	br := SolveBatch(m, Config{Sweeps: 5, Seed: 1}, 4)
	distinct := false
	for i := 1; i < len(br.Results); i++ {
		if ising.HammingDistance(br.Results[0].Spins, br.Results[i].Spins) != 0 {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("batch runs all identical; seeds not varied")
	}
}

// TestSolveBatchCtxKeepsTheCutRun: a batch cancelled in its second run
// holds the first run whole and the second as far as it got, and Best is
// the lower of the two.
func TestSolveBatchCtxKeepsTheCutRun(t *testing.T) {
	m := graph.Complete(40, rng.New(18)).ToIsing()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const sweeps, cutAt = 20, 7
	calls := 0
	cfg := Config{Sweeps: sweeps, Seed: 3, OnSweep: func(int, float64) {
		if calls++; calls == sweeps+cutAt {
			cancel()
		}
	}}
	br, err := SolveBatchCtx(ctx, m, cfg, 3)
	if !errors.Is(err, context.Canceled) || len(br.Results) != 2 {
		t.Fatalf("err %v, %d results", err, len(br.Results))
	}
	first, cut := br.Results[0], br.Results[1]
	if want := Solve(m, Config{Sweeps: sweeps, Seed: 3}); first.Energy != want.Energy || first.Attempts != want.Attempts {
		t.Fatalf("first run energy %v, a lone run %v", first.Energy, want.Energy)
	}
	if cut.Attempts != cutAt*40 || cut.Energy != m.Energy(cut.Spins) {
		t.Fatalf("cut run: %d attempts, energy %v of spins at %v", cut.Attempts, cut.Energy, m.Energy(cut.Spins))
	}
	if br.Best != first && br.Best != cut || br.Best.Energy > min(first.Energy, cut.Energy) {
		t.Fatalf("Best %v of %v and %v", br.Best.Energy, first.Energy, cut.Energy)
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	m := ferromagnet(4)
	for name, f := range map[string]func(){
		"zero sweeps":  func() { Solve(m, Config{Sweeps: 0}) },
		"bad initial":  func() { Solve(m, Config{Sweeps: 1, Initial: make([]int8, 3)}) },
		"zero runs":    func() { SolveBatch(m, Config{Sweeps: 1}, 0) },
		"naive sweeps": func() { SolveNaive(m, Config{Sweeps: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestQualityImprovesWithSweeps(t *testing.T) {
	// More annealing must not hurt on average — the shape behind every
	// quality-vs-time figure.
	r := rng.New(17)
	g := graph.Complete(60, r)
	m := g.ToIsing()
	short := SolveBatch(m, Config{Sweeps: 3, Seed: 500}, 6)
	long := SolveBatch(m, Config{Sweeps: 120, Seed: 500}, 6)
	if long.Best.Energy >= short.Best.Energy {
		t.Fatalf("120 sweeps (%v) no better than 3 sweeps (%v)",
			long.Best.Energy, short.Best.Energy)
	}
}

func BenchmarkSolveK256Sweep(b *testing.B) {
	r := rng.New(1)
	g := graph.Complete(256, r)
	m := g.ToIsing()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Solve(m, Config{Sweeps: 1, Seed: uint64(i)})
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
