package pt

import (
	"math"
	"testing"

	"mbrim/internal/exact"
	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/rng"
	"mbrim/internal/sa"
)

func ferromagnet(n int) *ising.Model {
	mb := ising.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mb.SetCoupling(i, j, 1)
		}
	}
	return mustBuild(mb)
}

func TestFindsFerromagnetGround(t *testing.T) {
	n := 24
	m := ferromagnet(n)
	res := Solve(m, Config{Sweeps: 50, Seed: 1})
	want := -float64(n*(n-1)) / 2
	if res.Energy != want {
		t.Fatalf("energy %v, want %v", res.Energy, want)
	}
}

func TestEnergyMatchesSpins(t *testing.T) {
	g := graph.Complete(40, rng.New(2))
	m := g.ToIsing()
	res := Solve(m, Config{Sweeps: 30, Seed: 3})
	if d := math.Abs(res.Energy - m.Energy(res.Spins)); d > 1e-6 {
		t.Fatalf("energy off by %v", d)
	}
}

func TestDeterministic(t *testing.T) {
	g := graph.Complete(30, rng.New(4))
	m := g.ToIsing()
	a := Solve(m, Config{Sweeps: 20, Seed: 5})
	b := Solve(m, Config{Sweeps: 20, Seed: 5})
	if a.Energy != b.Energy || a.Swaps != b.Swaps ||
		ising.HammingDistance(a.Spins, b.Spins) != 0 {
		t.Fatal("same seed produced different runs")
	}
}

func TestSwapsHappen(t *testing.T) {
	g := graph.Complete(40, rng.New(6))
	m := g.ToIsing()
	res := Solve(m, Config{Sweeps: 50, Seed: 7})
	if res.SwapAttempts == 0 {
		t.Fatal("no swap attempts")
	}
	if res.Swaps == 0 {
		t.Fatal("no swaps accepted over a full run")
	}
	if res.Swaps > res.SwapAttempts {
		t.Fatal("more swaps than attempts")
	}
}

func TestReachesExactOptimumSmall(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := graph.Complete(16, rng.New(seed+10))
		m := g.ToIsing()
		want := exact.Solve(m).Energy
		got := Solve(m, Config{Sweeps: 150, Seed: seed}).Energy
		if got != want {
			t.Fatalf("seed %d: PT best %v, optimum %v", seed, got, want)
		}
	}
}

func TestCompetitiveWithSAEqualBudget(t *testing.T) {
	// Same total sweep budget (replicas × sweeps = SA sweeps × runs):
	// PT must not be meaningfully worse on a frustrated instance.
	g := graph.Complete(80, rng.New(20))
	m := g.ToIsing()
	var ptSum, saSum float64
	const trials = 3
	for i := uint64(0); i < trials; i++ {
		ptSum += Solve(m, Config{Replicas: 8, Sweeps: 100, Seed: i}).Energy
		saSum += sa.SolveBatch(m, sa.Config{Sweeps: 100, Seed: i}, 8).Best.Energy
	}
	if ptSum > saSum+0.05*math.Abs(saSum) {
		t.Fatalf("PT (%v) clearly worse than SA restarts (%v) at equal budget",
			ptSum/trials, saSum/trials)
	}
}

func TestBestIsMonotoneInSweeps(t *testing.T) {
	g := graph.Complete(50, rng.New(8))
	m := g.ToIsing()
	short := Solve(m, Config{Sweeps: 5, Seed: 9}).Energy
	long := Solve(m, Config{Sweeps: 100, Seed: 9}).Energy
	if long > short {
		t.Fatalf("more sweeps worse: %v vs %v", long, short)
	}
}

func TestPanics(t *testing.T) {
	m := ferromagnet(4)
	for name, f := range map[string]func(){
		"zero sweeps": func() { Solve(m, Config{Sweeps: 0}) },
		"one replica": func() { Solve(m, Config{Sweeps: 1, Replicas: 1}) },
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

func BenchmarkPTK256(b *testing.B) {
	g := graph.Complete(256, rng.New(1))
	m := g.ToIsing()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Solve(m, Config{Replicas: 8, Sweeps: 5, Seed: uint64(i)})
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
