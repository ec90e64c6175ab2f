package dnc

import (
	"math"
	"testing"

	"mbrim/internal/brim"
	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/rng"
	"mbrim/internal/sa"
)

func testGraph(n int, seed uint64) *ising.Model {
	return graph.Complete(n, rng.New(seed)).ToIsing()
}

func proxy(cap int) *ProxyMachine {
	return &ProxyMachine{Cap: cap, AnnealNS: 1000, Program: 100, Sweeps: 40}
}

func TestQBSolvFitsInMachine(t *testing.T) {
	// Problem within capacity: one launch per pass, solution at least
	// as good as a short SA reference.
	m := testGraph(40, 1)
	res := QBSolv(m, proxy(64), QBSolvConfig{Seed: 2})
	if res.Launches == 0 {
		t.Fatal("machine never launched")
	}
	if d := math.Abs(res.Energy - m.Energy(res.Spins)); d > 1e-6 {
		t.Fatalf("energy off by %v", d)
	}
	ref := sa.Solve(m, sa.Config{Sweeps: 5, Seed: 3})
	if res.Energy > ref.Energy {
		t.Fatalf("qbsolv (%v) worse than 5-sweep SA (%v)", res.Energy, ref.Energy)
	}
}

func TestQBSolvBeyondCapacity(t *testing.T) {
	// Problem larger than the machine: must still produce a valid,
	// reasonable solution with multiple launches per pass.
	m := testGraph(90, 4)
	res := QBSolv(m, proxy(32), QBSolvConfig{Seed: 5})
	if res.Launches < res.Passes*2 {
		t.Fatalf("expected >=2 launches per pass, got %d launches %d passes",
			res.Launches, res.Passes)
	}
	if !ising.ValidSpins(res.Spins) || len(res.Spins) != 90 {
		t.Fatal("invalid solution vector")
	}
	if res.GlueOps == 0 {
		t.Fatal("no glue ops recorded despite oversized problem")
	}
}

func TestQBSolvGlueGrowsWithOversize(t *testing.T) {
	// The Sec 3.3 effect: glue work appears only when the problem
	// exceeds capacity, and grows with the excess.
	small := QBSolv(testGraph(60, 6), proxy(64), QBSolvConfig{Seed: 7})
	if small.GlueOps != 0 {
		t.Fatalf("within-capacity run has %d glue ops", small.GlueOps)
	}
	big := QBSolv(testGraph(80, 6), proxy(64), QBSolvConfig{Seed: 7})
	bigger := QBSolv(testGraph(128, 6), proxy(64), QBSolvConfig{Seed: 7})
	if big.GlueOps == 0 || bigger.GlueOps <= big.GlueOps {
		t.Fatalf("glue ops not growing: %d then %d", big.GlueOps, bigger.GlueOps)
	}
}

func TestQBSolvDeterministic(t *testing.T) {
	m := testGraph(50, 8)
	a := QBSolv(m, proxy(32), QBSolvConfig{Seed: 9})
	b := QBSolv(m, proxy(32), QBSolvConfig{Seed: 9})
	if a.Energy != b.Energy || ising.HammingDistance(a.Spins, b.Spins) != 0 {
		t.Fatal("same seed produced different runs")
	}
}

func TestQBSolvTimeLedger(t *testing.T) {
	m := testGraph(70, 10)
	res := QBSolv(m, proxy(32), QBSolvConfig{Seed: 11})
	wantHW := float64(res.Launches) * 1000
	wantProg := float64(res.Launches) * 100
	if res.HardwareNS != wantHW || res.ProgramNS != wantProg {
		t.Fatalf("ledger wrong: hw %v (want %v), prog %v (want %v)",
			res.HardwareNS, wantHW, res.ProgramNS, wantProg)
	}
	if res.SoftwareWall <= 0 {
		t.Fatal("no software time recorded")
	}
	if res.TotalNS() <= wantHW+wantProg {
		t.Fatal("TotalNS must include software wall time")
	}
}

func TestOrderByImpactSorted(t *testing.T) {
	m := testGraph(30, 12)
	s := ising.RandomSpins(30, rng.New(13))
	idx := orderByImpact(m, s)
	if len(idx) != 30 {
		t.Fatalf("index has %d entries", len(idx))
	}
	fields := m.LocalFields(s, nil)
	seen := make([]bool, 30)
	last := math.Inf(1)
	for _, i := range idx {
		if seen[i] {
			t.Fatalf("index %d repeated", i)
		}
		seen[i] = true
		d := math.Abs(m.FlipDelta(s, fields, i))
		if d > last+1e-9 {
			t.Fatal("impacts not descending")
		}
		last = d
	}
}

func TestOursFitsInMachine(t *testing.T) {
	m := testGraph(40, 14)
	res := Ours(m, proxy(64), OursConfig{Seed: 15})
	if res.Launches != res.Passes {
		t.Fatalf("expected one launch per pass, got %d/%d", res.Launches, res.Passes)
	}
	if d := math.Abs(res.Energy - m.Energy(res.Spins)); d > 1e-6 {
		t.Fatalf("energy off by %v", d)
	}
}

func TestOursBeyondCapacity(t *testing.T) {
	m := testGraph(100, 16)
	res := Ours(m, proxy(48), OursConfig{Seed: 17})
	if !ising.ValidSpins(res.Spins) || len(res.Spins) != 100 {
		t.Fatal("invalid solution")
	}
	if res.GlueOps == 0 {
		t.Fatal("no glue recorded")
	}
	if res.SoftwareWall <= 0 {
		t.Fatal("host partitions recorded no software time")
	}
}

func TestOursImprovesOverRandom(t *testing.T) {
	m := testGraph(80, 18)
	res := Ours(m, proxy(32), OursConfig{Seed: 19})
	// Random assignments on a ±1 K-graph average energy ~0.
	if res.Energy >= 0 {
		t.Fatalf("d&c no better than random: %v", res.Energy)
	}
}

func TestOursDeterministic(t *testing.T) {
	m := testGraph(60, 20)
	a := Ours(m, proxy(32), OursConfig{Seed: 21})
	b := Ours(m, proxy(32), OursConfig{Seed: 21})
	if a.Energy != b.Energy || ising.HammingDistance(a.Spins, b.Spins) != 0 {
		t.Fatal("same seed produced different runs")
	}
}

func TestBRIMMachineAnneal(t *testing.T) {
	// The real-dynamics machine on a small ferromagnetic sub-problem.
	mb := ising.NewBuilder(8)
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			mb.SetCoupling(i, j, 1)
		}
	}
	m := mustBuild(mb)
	mach := &BRIMMachine{Cap: 8, Cfg: brim.SolveConfig{Duration: 60}, Program: 50}
	init := ising.RandomSpins(8, rng.New(22))
	sol, ns := mach.Anneal(m, init, 23)
	if math.Abs(ns-60) > 1e-6 {
		t.Fatalf("model time %v, want 60", ns)
	}
	if e := m.Energy(sol); e != -28 {
		t.Fatalf("BRIM sub-anneal energy %v, want ground -28", e)
	}
}

func TestBRIMMachineCapacityEnforced(t *testing.T) {
	mach := &BRIMMachine{Cap: 4, Cfg: brim.SolveConfig{Duration: 10}}
	defer func() {
		if recover() == nil {
			t.Fatal("oversized sub-problem accepted")
		}
	}()
	mach.Anneal(mustBuild(ising.NewBuilder(5)), make([]int8, 5), 1)
}

func TestProxyMachineCapacityEnforced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized sub-problem accepted")
		}
	}()
	proxy(4).Anneal(mustBuild(ising.NewBuilder(5)), make([]int8, 5), 1)
}

func TestQBSolvWithBRIMMachineEndToEnd(t *testing.T) {
	// Full-stack smoke test: qbsolv gluing a real dynamical-system
	// machine on a problem 2x its capacity.
	m := testGraph(32, 24)
	mach := &BRIMMachine{Cap: 16, Cfg: brim.SolveConfig{Duration: 30}, Program: 50}
	res := QBSolv(m, mach, QBSolvConfig{Seed: 25, NumRepeats: 1})
	if !ising.ValidSpins(res.Spins) {
		t.Fatal("invalid spins")
	}
	if res.HardwareNS == 0 {
		t.Fatal("no hardware time accumulated")
	}
	if res.Energy >= 0 {
		t.Fatalf("no optimization progress: %v", res.Energy)
	}
}

func TestOursPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Ours(testGraph(10, 1), &ProxyMachine{Cap: 0}, OursConfig{})
}

func TestQBSolvPanicsOnBadFraction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	QBSolv(testGraph(10, 1), proxy(8), QBSolvConfig{Fraction: 2})
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
