package exact

import (
	"math"
	"testing"
	"testing/quick"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/rng"
	"mbrim/internal/sa"
)

func randomModel(n int, withBias bool, r *rng.Source) *ising.Model {
	mb := ising.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mb.SetCoupling(i, j, float64(r.Intn(7)-3))
		}
		if withBias {
			mb.SetBias(i, float64(r.Intn(5)-2))
		}
	}
	return mustBuild(mb)
}

// bruteForce is the trivially correct reference: evaluate Energy on
// every bitmask.
func bruteForce(m *ising.Model) float64 {
	n := m.N()
	best := math.Inf(1)
	s := make([]int8, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s[i] = 1
			} else {
				s[i] = -1
			}
		}
		if e := m.Energy(s); e < best {
			best = e
		}
	}
	return best
}

func TestSolveMatchesBruteForceNoBias(t *testing.T) {
	f := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		n := 2 + r.Intn(10)
		m := randomModel(n, false, r)
		res := Solve(m)
		return math.Abs(res.Energy-bruteForce(m)) < 1e-9 &&
			math.Abs(m.Energy(res.Spins)-res.Energy) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveMatchesBruteForceWithBias(t *testing.T) {
	f := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		n := 2 + r.Intn(10)
		m := randomModel(n, true, r)
		res := Solve(m)
		return math.Abs(res.Energy-bruteForce(m)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveHalvesSymmetricSpace(t *testing.T) {
	r := rng.New(1)
	m := randomModel(12, false, r)
	res := Solve(m)
	if res.States != 1<<11 {
		t.Fatalf("visited %d states, want %d (halved)", res.States, 1<<11)
	}
	mb := randomModel(12, true, r)
	resB := Solve(mb)
	if resB.States != 1<<12 {
		t.Fatalf("biased instance visited %d states, want %d", resB.States, 1<<12)
	}
}

func TestFerromagnetGroundAndDegeneracy(t *testing.T) {
	n := 10
	mb := ising.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mb.SetCoupling(i, j, 1)
		}
	}
	m := mustBuild(mb)
	res := Solve(m)
	if res.Energy != -float64(n*(n-1))/2 {
		t.Fatalf("energy %v", res.Energy)
	}
	// Only σ and −σ are optimal, and −σ is not enumerated separately:
	// no degeneracy flag.
	if res.Degenerate {
		t.Fatal("ferromagnet flagged degenerate in half-space enumeration")
	}
}

func TestDegenerateDetected(t *testing.T) {
	// Two decoupled antiferromagnetic pairs: 4 optimal states in the
	// half space → degenerate.
	mb := ising.NewBuilder(4)
	mb.SetCoupling(0, 1, -1)
	mb.SetCoupling(2, 3, -1)
	m := mustBuild(mb)
	if !Solve(m).Degenerate {
		t.Fatal("degenerate instance not flagged")
	}
}

func TestPanicsOnTooLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Solve(mustBuild(ising.NewBuilder(MaxN + 1)))
}

func TestMaxCutExact(t *testing.T) {
	// Triangle: max cut 2.
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 1)
	if cut := g.CutValue(Solve(g.ToIsing()).Spins); cut != 2 {
		t.Fatalf("triangle max cut %v, want 2", cut)
	}
}

func TestVerify(t *testing.T) {
	r := rng.New(3)
	m := randomModel(10, true, r)
	res := Solve(m)
	if err := Verify(m, res.Spins, res.Energy); err != nil {
		t.Fatalf("optimum failed Verify: %v", err)
	}
	if err := Verify(m, res.Spins, res.Energy+1); err == nil {
		t.Fatal("Verify accepted wrong energy")
	}
}

func TestVerifyCatchesNonLocalOptimum(t *testing.T) {
	mb := ising.NewBuilder(2)
	mb.SetCoupling(0, 1, 1)
	m := mustBuild(mb)
	bad := []int8{1, -1} // flipping either spin improves
	if err := Verify(m, bad, m.Energy(bad)); err == nil {
		t.Fatal("Verify accepted a locally improvable state")
	}
}

func TestSAReachesExactOptimum(t *testing.T) {
	// Cross-validation: batch SA must find the true optimum on small
	// frustrated instances.
	r := rng.New(4)
	for trial := 0; trial < 5; trial++ {
		g := graph.Complete(14, r)
		m := g.ToIsing()
		want := Solve(m).Energy
		got := sa.SolveBatch(m, sa.Config{Sweeps: 200, Seed: uint64(trial)}, 10).Best.Energy
		if got != want {
			t.Fatalf("trial %d: SA best %v, optimum %v", trial, got, want)
		}
	}
}

func BenchmarkSolveN20(b *testing.B) {
	r := rng.New(1)
	m := randomModel(20, false, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Solve(m)
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
