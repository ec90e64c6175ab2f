package core

import (
	"context"
	"math"
	"testing"

	"mbrim/internal/brim"
	"mbrim/internal/checkpoint"
	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/rng"
	"mbrim/internal/sa"
	"mbrim/internal/tabu"
)

func testProblem(n int, seed uint64) (*graph.Graph, *Request) {
	g := graph.Complete(n, rng.New(seed))
	return g, &Request{Model: g.ToIsing(), Graph: g, Seed: seed}
}

func TestParseKind(t *testing.T) {
	for _, s := range Kinds() {
		k, err := ParseKind(s)
		if err != nil || string(k) != s {
			t.Fatalf("ParseKind(%q) = %v, %v", s, k, err)
		}
	}
	if _, err := ParseKind("  SA "); err != nil {
		t.Fatal("ParseKind should trim and lowercase")
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("ParseKind accepted garbage")
	}
}

func TestEveryEngineSolves(t *testing.T) {
	g, base := testProblem(40, 1)
	for _, name := range Kinds() {
		k, _ := ParseKind(name)
		req := *base
		req.Kind = k
		req.Sweeps = 30
		req.Steps = 100
		req.DurationNS = 30
		req.Chips = 4
		req.Runs = 2
		req.MachineCapacity = 24
		out, err := Solve(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out.Spins) != 40 {
			t.Fatalf("%s: %d spins", name, len(out.Spins))
		}
		if math.Abs(out.Energy-req.Model.Energy(out.Spins)) > 1e-6 {
			t.Fatalf("%s: reported energy inconsistent", name)
		}
		if math.Abs(out.Cut-g.CutValue(out.Spins)) > 1e-9 {
			t.Fatalf("%s: cut inconsistent", name)
		}
		if out.Energy >= 0 {
			t.Fatalf("%s: no optimization progress (E=%v)", name, out.Energy)
		}
		if out.Wall <= 0 {
			t.Fatalf("%s: no wall time", name)
		}
	}
}

func TestModelTimeLedger(t *testing.T) {
	_, base := testProblem(32, 2)
	// Pure software engines report zero model time.
	for _, k := range []Kind{SA, Tabu, BSBM, DSBM} {
		req := *base
		req.Kind = k
		req.Sweeps = 10
		req.Steps = 50
		out, err := Solve(req)
		if err != nil {
			t.Fatal(err)
		}
		if out.ModelNS != 0 {
			t.Fatalf("%s: software engine has model time %v", k, out.ModelNS)
		}
	}
	// Machines report model time.
	for _, k := range []Kind{BRIM, MBRIMConcurrent, MBRIMBatch} {
		req := *base
		req.Kind = k
		req.DurationNS = 20
		req.Chips = 4
		req.Runs = 2
		out, err := Solve(req)
		if err != nil {
			t.Fatal(err)
		}
		if out.ModelNS <= 0 {
			t.Fatalf("%s: machine engine has no model time", k)
		}
	}
}

func TestMultichipStatsExposed(t *testing.T) {
	_, base := testProblem(48, 3)
	req := *base
	req.Kind = MBRIMConcurrent
	req.Chips = 4
	req.DurationNS = 30
	out, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"flips", "bitChanges", "trafficBytes", "stallNS"} {
		if _, ok := out.Stats[key]; !ok {
			t.Fatalf("stat %q missing", key)
		}
	}
	if out.Stats["flips"] == 0 {
		t.Fatal("no flips recorded")
	}
}

func TestDncStatsExposed(t *testing.T) {
	_, base := testProblem(60, 4)
	req := *base
	req.Kind = QBSolv
	req.MachineCapacity = 32
	req.Sweeps = 20
	out, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats["launches"] == 0 || out.Stats["glueOps"] == 0 {
		t.Fatalf("d&c stats missing: %v", out.Stats)
	}
	if out.ModelNS <= 0 {
		t.Fatal("d&c hardware time missing")
	}
}

func TestDeterministicOutcomes(t *testing.T) {
	_, base := testProblem(32, 5)
	for _, k := range []Kind{SA, DSBM, BRIM, MBRIMConcurrent} {
		req := *base
		req.Kind = k
		req.Sweeps = 10
		req.Steps = 50
		req.DurationNS = 20
		req.Chips = 2
		a, err := Solve(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Solve(req)
		if err != nil {
			t.Fatal(err)
		}
		if a.Energy != b.Energy {
			t.Fatalf("%s: nondeterministic outcome", k)
		}
	}
}

func TestNilModelErrors(t *testing.T) {
	if _, err := Solve(Request{Kind: SA}); err == nil {
		t.Fatal("nil model did not error")
	}
}

func TestNoGraphNoCut(t *testing.T) {
	_, base := testProblem(16, 6)
	req := *base
	req.Graph = nil
	req.Kind = SA
	req.Sweeps = 5
	out, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cut != 0 {
		t.Fatalf("cut %v without a graph", out.Cut)
	}
}

func TestInitialWarmStart(t *testing.T) {
	// A warm start from a good state must not end worse than the
	// state's own energy for greedy-capable engines.
	_, base := testProblem(32, 7)
	good, err := Solve(Request{Kind: SA, Model: base.Model, Sweeps: 200, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Tabu returns the best state seen, so a warm start can never end
	// above its seed. (SA's final state can be worse transiently when
	// the schedule reheats; it is exercised separately.)
	req := *base
	req.Kind = Tabu
	req.Sweeps = 20
	req.Initial = good.Spins
	out, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	if out.Energy > good.Energy {
		t.Fatalf("tabu warm start ended worse (%v) than its seed state (%v)",
			out.Energy, good.Energy)
	}
	saReq := *base
	saReq.Kind = SA
	saReq.Sweeps = 20
	saReq.Initial = good.Spins
	if _, err := Solve(saReq); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartEveryRestart: a warm-start envelope given to SolveCtx
// with Runs 3 seeds the restarts as each engine defines: sa and brim run
// restart i at Seed+i from the warm spins, tabu only restart 0. The
// outcome is then that of the lone runs: the first of their lowest
// energies, with their flips summed.
func TestWarmStartEveryRestart(t *testing.T) {
	_, base := testProblem(96, 5)
	m := base.Model
	warm := ising.RandomSpins(m.N(), rng.New(6))
	env, err := checkpoint.EncodeWarm("sa", 0, m, warm, m.Energy(warm))
	if err != nil {
		t.Fatal(err)
	}
	const seed, runs, sweeps, durationNS = 7, 3, 1, 6
	for _, tc := range []struct {
		kind    Kind
		warmAll bool // every restart starts warm, not restart 0 alone
		run     func(seed uint64, initial []int8) ([]int8, float64, int64)
	}{
		{SA, true, func(seed uint64, initial []int8) ([]int8, float64, int64) {
			r := sa.Solve(m, sa.Config{Sweeps: sweeps, Seed: seed, Initial: initial})
			return r.Spins, r.Energy, r.Flips
		}},
		{BRIM, true, func(seed uint64, initial []int8) ([]int8, float64, int64) {
			r := brim.Solve(m, brim.SolveConfig{Duration: durationNS, Initial: initial, Config: brim.Config{Seed: seed}})
			return r.Spins, r.Energy, r.Flips
		}},
		{Tabu, false, func(seed uint64, initial []int8) ([]int8, float64, int64) {
			r := tabu.Solve(m, tabu.Config{MaxIters: sweeps * m.N(), Seed: seed, Initial: initial})
			return r.Spins, r.Energy, 0
		}},
	} {
		lone := func(warmAll bool) (spins []int8, energy float64, flips int64) {
			for i := 0; i < runs; i++ {
				initial := warm
				if i > 0 && !warmAll {
					initial = nil
				}
				s, e, f := tc.run(seed+uint64(i), initial)
				if flips += f; i == 0 || e < energy {
					spins, energy = s, e
				}
			}
			return spins, energy, flips
		}
		spins, energy, flips := lone(tc.warmAll)
		if _, other, _ := lone(!tc.warmAll); other == energy {
			t.Fatalf("%s: warm starts at every restart or at the first only end alike; the test is vacuous", tc.kind)
		}
		out, err := SolveCtx(context.Background(), Request{Kind: tc.kind, Model: m, Seed: seed, Runs: runs,
			Sweeps: sweeps, DurationNS: durationNS, Resume: env})
		if err != nil {
			t.Fatal(err)
		}
		if out.Energy != energy || ising.HammingDistance(out.Spins, spins) != 0 || out.Stats["flips"] != float64(flips) {
			t.Fatalf("%s: energy %v, %v flips; its lone runs %v, %d flips", tc.kind, out.Energy, out.Stats["flips"], energy, flips)
		}
	}
}

func TestSequentialEngineSlower(t *testing.T) {
	// mbrim-seq charges chips× elapsed model time vs mbrim concurrent.
	_, base := testProblem(32, 9)
	conc := *base
	conc.Kind = MBRIMConcurrent
	conc.Chips = 4
	conc.DurationNS = 20
	co, err := Solve(conc)
	if err != nil {
		t.Fatal(err)
	}
	seq := conc
	seq.Kind = MBRIMSequential
	so, err := Solve(seq)
	if err != nil {
		t.Fatal(err)
	}
	if so.ModelNS < 3.9*co.ModelNS {
		t.Fatalf("sequential elapsed %v not ~4x concurrent %v", so.ModelNS, co.ModelNS)
	}
}

func TestPTStatsExposed(t *testing.T) {
	_, base := testProblem(32, 10)
	req := *base
	req.Kind = PT
	req.Sweeps = 20
	req.Runs = 4
	out, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats["swapAttempts"] == 0 {
		t.Fatal("PT swap stats missing")
	}
}

func TestBandwidthPresets(t *testing.T) {
	if HBChannelBytesPerNS != 250 || LBChannelBytesPerNS != 62.5 {
		t.Fatalf("presets %v/%v drifted from the paper's Sec 6.3 values",
			HBChannelBytesPerNS, LBChannelBytesPerNS)
	}
}
