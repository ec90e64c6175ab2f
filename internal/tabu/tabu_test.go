package tabu

import (
	"math"
	"testing"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/rng"
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
	n := 20
	m := ferromagnet(n)
	res := Solve(m, Config{MaxIters: 2000, Seed: 1})
	want := -float64(n*(n-1)) / 2
	if res.Energy != want {
		t.Fatalf("energy %v, want %v", res.Energy, want)
	}
}

func TestEnergyMatchesSpins(t *testing.T) {
	r := rng.New(2)
	g := graph.Complete(30, r)
	m := g.ToIsing()
	res := Solve(m, Config{MaxIters: 500, Seed: 3})
	if d := math.Abs(res.Energy - m.Energy(res.Spins)); d > 1e-6 {
		t.Fatalf("reported energy off by %v", d)
	}
}

func TestDeterministic(t *testing.T) {
	r := rng.New(4)
	g := graph.Complete(25, r)
	m := g.ToIsing()
	a := Solve(m, Config{MaxIters: 300, Seed: 7})
	b := Solve(m, Config{MaxIters: 300, Seed: 7})
	if a.Energy != b.Energy || ising.HammingDistance(a.Spins, b.Spins) != 0 {
		t.Fatal("same seed produced different runs")
	}
}

func TestBeatsRandomStart(t *testing.T) {
	r := rng.New(5)
	g := graph.Complete(50, r)
	m := g.ToIsing()
	init := ising.RandomSpins(50, r)
	startEnergy := m.Energy(init)
	res := Solve(m, Config{MaxIters: 1000, Seed: 6, Initial: init})
	if res.Energy >= startEnergy {
		t.Fatalf("tabu did not improve: %v -> %v", startEnergy, res.Energy)
	}
}

func TestEscapesLocalMinimum(t *testing.T) {
	// A frustrated 4-cycle with one strong and three weak edges has
	// local minima; tabu's forced moves must still reach the optimum
	// (found exhaustively).
	mb := ising.NewBuilder(4)
	mb.SetCoupling(0, 1, 2)
	mb.SetCoupling(1, 2, -1)
	mb.SetCoupling(2, 3, -1)
	mb.SetCoupling(3, 0, -1)
	m := mustBuild(mb)
	bestE := math.Inf(1)
	for mask := 0; mask < 16; mask++ {
		s := make([]int8, 4)
		for i := range s {
			if mask&(1<<i) != 0 {
				s[i] = 1
			} else {
				s[i] = -1
			}
		}
		if e := m.Energy(s); e < bestE {
			bestE = e
		}
	}
	res := Solve(m, Config{MaxIters: 500, Seed: 8})
	if res.Energy != bestE {
		t.Fatalf("stuck at %v, optimum is %v", res.Energy, bestE)
	}
}

func TestPatienceStopsEarly(t *testing.T) {
	m := ferromagnet(10)
	res := Solve(m, Config{MaxIters: 100000, Seed: 9})
	if res.Iters >= 100000 {
		t.Fatal("patience did not stop the search")
	}
}

func TestInitialNotMutated(t *testing.T) {
	m := ferromagnet(8)
	init := ising.RandomSpins(8, rng.New(10))
	keep := ising.CopySpins(init)
	Solve(m, Config{MaxIters: 100, Seed: 11, Initial: init})
	if ising.HammingDistance(init, keep) != 0 {
		t.Fatal("Solve mutated the caller's Initial")
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	m := ferromagnet(4)
	for name, f := range map[string]func(){
		"zero iters":  func() { Solve(m, Config{MaxIters: 0}) },
		"bad initial": func() { Solve(m, Config{MaxIters: 1, Initial: make([]int8, 2)}) },
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

func TestBestNeverWorseThanVisited(t *testing.T) {
	// Returned energy is the best over the trajectory, so rerunning
	// with more iterations can only improve or tie.
	r := rng.New(12)
	g := graph.Complete(40, r)
	m := g.ToIsing()
	short := Solve(m, Config{MaxIters: 50, Seed: 13})
	long := Solve(m, Config{MaxIters: 2000, Seed: 13})
	if long.Energy > short.Energy {
		t.Fatalf("longer run worse: %v vs %v", long.Energy, short.Energy)
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
