package sa

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/metrics"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
	"mbrim/internal/sched"
)

// sweeps is a Tracer that hands each per-sweep EnergySample's sweep
// number and energy to a function.
type sweeps func(sweep int, energy float64)

func (f sweeps) Emit(e obs.Event) {
	if e.Kind == obs.EnergySample {
		f(e.Epoch, e.Value)
	}
}

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
	for i, s := range res.Spins {
		if s != res.Spins[0] {
			t.Fatalf("ground state not uniform: spin %d is %d, spin 0 is %d", i, s, res.Spins[0])
		}
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
		Tracer: sweeps(func(sweep int, e float64) {
			if e > last+1e-9 {
				t.Fatalf("greedy energy increased at sweep %d: %v -> %v", sweep, last, e)
			}
			last = e
		}),
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
	want := fmt.Sprintf("sa.attempts: %d\nsa.flips: %d\n", res.Attempts, res.Flips)
	if got := ops.String(); !strings.Contains(got, want) {
		t.Fatalf("op counter %q disagrees with result %q", got, want)
	}
}

func TestSolveBatchBestIsMin(t *testing.T) {
	br := SolveBatch(graph.Complete(30, rng.New(15)).ToIsing(), Config{Sweeps: 30, Seed: 100}, 8)
	if len(br.Results) != 8 || slices.ContainsFunc(br.Results, func(r *Result) bool { return r.Energy < br.Best.Energy }) {
		t.Fatalf("%d results, Best %v not the minimum", len(br.Results), br.Best.Energy)
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
	const runSweeps, cutAt = 20, 7
	calls := 0
	cfg := Config{Sweeps: runSweeps, Seed: 3, Tracer: sweeps(func(int, float64) {
		if calls++; calls == runSweeps+cutAt {
			cancel()
		}
	})}
	br, err := SolveBatchCtx(ctx, m, cfg, 3)
	if !errors.Is(err, context.Canceled) || len(br.Results) != 2 {
		t.Fatalf("err %v, %d results", err, len(br.Results))
	}
	first, cut := br.Results[0], br.Results[1]
	if want := Solve(m, Config{Sweeps: runSweeps, Seed: 3}); first.Energy != want.Energy || first.Attempts != want.Attempts {
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

// BenchmarkSolveK256 is the solve the service daemon runs for a K256
// SA request: 200 sweeps over the ±1 planes of graph.NewKGraph.
func BenchmarkSolveK256(b *testing.B) {
	m := graph.NewKGraph(256, rng.New(1)).Model
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Solve(m, Config{Sweeps: 200, Seed: uint64(i)})
	}
}
