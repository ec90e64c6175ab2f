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
		"zero sweeps":  func() { Solve(m, Config{Sweeps: 0}) },
		"one replica":  func() { Solve(m, Config{Sweeps: 1, Replicas: 1}) },
		"bad ladder":   func() { Solve(m, Config{Sweeps: 1, BetaMin: 2, BetaMax: 1}) },
		"neg exchange": func() { Solve(m, Config{Sweeps: 1, ExchangeEvery: -1}) },
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

func TestPopulationFindsFerromagnetGround(t *testing.T) {
	n := 20
	m := ferromagnet(n)
	res := SolvePopulation(m, PopulationConfig{Population: 32, Rungs: 15, Seed: 1})
	if want := -float64(n*(n-1)) / 2; res.Energy != want {
		t.Fatalf("energy %v, want %v", res.Energy, want)
	}
}

func TestPopulationEnergyMatchesSpins(t *testing.T) {
	g := graph.Complete(30, rng.New(2))
	m := g.ToIsing()
	res := SolvePopulation(m, PopulationConfig{Population: 24, Rungs: 10, Seed: 3})
	if d := math.Abs(res.Energy - m.Energy(res.Spins)); d > 1e-6 {
		t.Fatalf("energy off by %v", d)
	}
}

func TestPopulationDeterministic(t *testing.T) {
	g := graph.Complete(24, rng.New(4))
	m := g.ToIsing()
	cfg := PopulationConfig{Population: 16, Rungs: 8, Seed: 5}
	a := SolvePopulation(m, cfg)
	b := SolvePopulation(m, cfg)
	if a.Energy != b.Energy || a.MaxPopulation != b.MaxPopulation {
		t.Fatal("population annealing nondeterministic")
	}
}

func TestPopulationStaysBounded(t *testing.T) {
	g := graph.Complete(40, rng.New(6))
	m := g.ToIsing()
	res := SolvePopulation(m, PopulationConfig{Population: 64, Rungs: 20, Seed: 7})
	if res.MinPopulation < 8 || res.MaxPopulation > 64*8 {
		t.Fatalf("population swung to [%d, %d] around target 64",
			res.MinPopulation, res.MaxPopulation)
	}
}

func TestPopulationReachesExactOptimum(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		g := graph.Complete(16, rng.New(seed+30))
		m := g.ToIsing()
		want := exact.Solve(m).Energy
		got := SolvePopulation(m, PopulationConfig{
			Population: 64, Rungs: 30, SweepsPerRung: 3, Seed: seed,
		}).Energy
		if got != want {
			t.Fatalf("seed %d: population best %v, optimum %v", seed, got, want)
		}
	}
}

func TestPopulationPanics(t *testing.T) {
	m := ferromagnet(4)
	for name, f := range map[string]func(){
		"tiny pop":   func() { SolvePopulation(m, PopulationConfig{Population: 1}) },
		"neg rungs":  func() { SolvePopulation(m, PopulationConfig{Rungs: -1}) },
		"neg sweeps": func() { SolvePopulation(m, PopulationConfig{SweepsPerRung: -1}) },
		"bad ladder": func() { SolvePopulation(m, PopulationConfig{BetaMin: 3, BetaMax: 1}) },
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

// mustBuild freezes a test's builder: its couplings are the test's own,
// so an error is a bug in the test.
func mustBuild(b *ising.Builder) *ising.Model {
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}
