package embed

import (
	"math"
	"testing"
	"testing/quick"

	"mbrim/internal/exact"
	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/rng"
	"mbrim/internal/sa"
)

func logicalModel(n int, withBias bool, seed uint64) *ising.Model {
	r := rng.New(seed)
	mb := ising.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mb.SetCoupling(i, j, float64(r.Intn(5)-2))
		}
		if withBias {
			mb.SetBias(i, float64(r.Intn(3)-1))
		}
	}
	return mustBuild(mb)
}

func TestPhysicalNodeCount(t *testing.T) {
	for _, n := range []int{2, 3, 5, 10} {
		e := Complete(logicalModel(n, false, 1), 0)
		if e.PhysicalNodes() != n*(n-1) {
			t.Fatalf("n=%d: %d physical nodes, want %d", n, e.PhysicalNodes(), n*(n-1))
		}
	}
}

func TestBoundedDegree(t *testing.T) {
	// Every physical node couples to at most 3 others — the locality
	// constraint that motivates the whole construction.
	e := Complete(logicalModel(8, true, 2), 0)
	lat := e.Physical.View(lattice.Auto)
	for p := 0; p < e.Physical.N(); p++ {
		if d := lat.RowNNZ(p); d > 3 {
			t.Fatalf("physical node %d has degree %d", p, d)
		}
	}
}

func TestChainsPartitionPhysicalNodes(t *testing.T) {
	e := Complete(logicalModel(6, false, 3), 0)
	seen := make([]bool, e.Physical.N())
	for _, chain := range e.Chains() {
		for _, p := range chain {
			if seen[p] {
				t.Fatalf("physical node %d in two chains", p)
			}
			seen[p] = true
		}
	}
	for p, s := range seen {
		if !s {
			t.Fatalf("physical node %d in no chain", p)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		n := 2 + r.Intn(8)
		e := Complete(logicalModel(n, true, uint64(seed)), 0)
		logical := ising.RandomSpins(n, r)
		back := e.Decode(e.Encode(logical))
		return ising.HammingDistance(back, logical) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeHasNoChainBreaks(t *testing.T) {
	e := Complete(logicalModel(7, false, 4), 0)
	phys := e.Encode(ising.RandomSpins(7, rng.New(5)))
	if b := e.ChainBreaks(phys); b != 0 {
		t.Fatalf("encoded state has %d chain breaks", b)
	}
}

func TestChainBreaksDetected(t *testing.T) {
	e := Complete(logicalModel(4, false, 6), 0)
	phys := e.Encode([]int8{1, 1, 1, 1})
	phys[e.Chains()[0][0]] = -1
	if b := e.ChainBreaks(phys); b != 1 {
		t.Fatalf("ChainBreaks = %d, want 1", b)
	}
}

func TestEnergyIdentityOnIntactChains(t *testing.T) {
	// physical.Energy(Encode(σ)) = logical.Energy(σ) − offset, exactly.
	f := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		n := 2 + r.Intn(7)
		m := logicalModel(n, true, uint64(seed))
		e := Complete(m, 0)
		offset := e.EnergyIdentityOffset()
		for trial := 0; trial < 4; trial++ {
			s := ising.RandomSpins(n, r)
			physE := e.Physical.Energy(e.Encode(s))
			if math.Abs(physE-(m.Energy(s)-offset)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGroundStatePreserved(t *testing.T) {
	// The embedded ground state decodes to the logical ground state
	// (checked exactly on small instances).
	for seed := uint64(0); seed < 3; seed++ {
		m := logicalModel(4, true, seed)
		e := Complete(m, 0)
		logicalOpt := exact.Solve(m)
		physOpt := exact.Solve(e.Physical) // 12 physical spins
		if b := e.ChainBreaks(physOpt.Spins); b != 0 {
			t.Fatalf("seed %d: ground state breaks %d chains", seed, b)
		}
		decoded := e.Decode(physOpt.Spins)
		if got := m.Energy(decoded); math.Abs(got-logicalOpt.Energy) > 1e-9 {
			t.Fatalf("seed %d: decoded energy %v, logical optimum %v", seed, got, logicalOpt.Energy)
		}
	}
}

func TestSAOnEmbeddedProblem(t *testing.T) {
	// End-to-end: anneal the physical model, decode, compare to
	// annealing the logical model directly. Embedded quality is
	// allowed to be worse (that's the paper's point) but must be a
	// valid, reasonable solution.
	g := graph.Complete(12, rng.New(7))
	m := g.ToIsing()
	e := Complete(m, 0)
	physRes := sa.SolveBatch(e.Physical, sa.Config{Sweeps: 600, Seed: 8}, 6)
	decoded := e.Decode(physRes.Best.Spins)
	embCut := g.CutValue(decoded)
	direct := sa.SolveBatch(m, sa.Config{Sweeps: 600, Seed: 8}, 6)
	directCut := g.CutValue(direct.Best.Spins)
	if embCut <= 0 {
		t.Fatalf("embedded cut %v", embCut)
	}
	if embCut > directCut {
		t.Logf("embedded (%v) beat direct (%v) — fine, just unusual", embCut, directCut)
	}
}

func TestEffectiveCapacity(t *testing.T) {
	cases := map[int]int{
		0: 0, 1: 0, 2: 2, 5: 2, 6: 3, 11: 3, 12: 4,
		2000: 45, // the D-Wave 2000q scale: ~45-64 effective of 2000 nominal
	}
	for phys, want := range cases {
		if got := EffectiveCapacity(phys); got != want {
			t.Fatalf("EffectiveCapacity(%d) = %d, want %d", phys, got, want)
		}
	}
	// Consistency: n(n-1) physical nodes fit exactly n.
	for n := 2; n < 60; n++ {
		if got := EffectiveCapacity(n * (n - 1)); got != n {
			t.Fatalf("EffectiveCapacity(%d) = %d, want %d", n*(n-1), got, n)
		}
	}
}

func TestDefaultChainStrengthStrongEnough(t *testing.T) {
	m := logicalModel(5, true, 9)
	e := Complete(m, 0)
	maxRow := 0.0
	for i := 0; i < 5; i++ {
		s := math.Abs(m.Mu() * m.Bias(i))
		for j := 0; j < 5; j++ {
			s += math.Abs(m.Coupling(i, j))
		}
		if s > maxRow {
			maxRow = s
		}
	}
	if e.ChainStrength <= maxRow {
		t.Fatalf("chain strength %v not above worst row weight %v", e.ChainStrength, maxRow)
	}
}

func TestPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"n=1":          func() { Complete(mustBuild(ising.NewBuilder(1)), 0) },
		"neg strength": func() { Complete(mustBuild(ising.NewBuilder(3)), -1) },
		"bad decode":   func() { Complete(mustBuild(ising.NewBuilder(3)), 0).Decode(make([]int8, 2)) },
		"bad encode":   func() { Complete(mustBuild(ising.NewBuilder(3)), 0).Encode(make([]int8, 2)) },
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
