package sbm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/obs"
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

func TestBallisticFindsFerromagnetGround(t *testing.T) {
	n := 20
	m := ferromagnet(n)
	res := Solve(m, Config{Variant: Ballistic, Steps: 400, Seed: 1})
	want := -float64(n*(n-1)) / 2
	if res.Energy != want {
		t.Fatalf("bSBM energy %v, want %v", res.Energy, want)
	}
}

func TestDiscreteFindsFerromagnetGround(t *testing.T) {
	n := 20
	m := ferromagnet(n)
	res := Solve(m, Config{Variant: Discrete, Steps: 400, Seed: 2})
	want := -float64(n*(n-1)) / 2
	if res.Energy != want {
		t.Fatalf("dSBM energy %v, want %v", res.Energy, want)
	}
}

func TestAntiferromagnetPair(t *testing.T) {
	mb := ising.NewBuilder(2)
	mb.SetCoupling(0, 1, -1)
	m := mustBuild(mb)
	for _, v := range []Variant{Ballistic, Discrete} {
		res := Solve(m, Config{Variant: v, Steps: 300, Seed: 3})
		if res.Spins[0] == res.Spins[1] {
			t.Fatalf("%v aligned an antiferromagnetic pair", v)
		}
	}
}

func TestBiasRespected(t *testing.T) {
	mb := ising.NewBuilder(2)
	mb.SetCoupling(0, 1, 0.01)
	mb.SetBias(0, 5)
	mb.SetBias(1, -5)
	m := mustBuild(mb)
	res := Solve(m, Config{Variant: Ballistic, Steps: 400, Seed: 4, C0: 0.5})
	if res.Spins[0] != 1 || res.Spins[1] != -1 {
		t.Fatalf("bias ignored: %v", res.Spins)
	}
}

func TestDeterministic(t *testing.T) {
	r := rng.New(5)
	g := graph.Complete(30, r)
	m := g.ToIsing()
	a := Solve(m, Config{Variant: Discrete, Steps: 100, Seed: 6})
	b := Solve(m, Config{Variant: Discrete, Steps: 100, Seed: 6})
	if a.Energy != b.Energy || ising.HammingDistance(a.Spins, b.Spins) != 0 {
		t.Fatal("same seed produced different runs")
	}
}

func TestEnergyMatchesSpins(t *testing.T) {
	r := rng.New(7)
	g := graph.Complete(25, r)
	m := g.ToIsing()
	res := Solve(m, Config{Variant: Ballistic, Steps: 150, Seed: 8})
	if d := math.Abs(res.Energy - m.Energy(res.Spins)); d > 1e-9 {
		t.Fatalf("energy off by %v", d)
	}
}

func TestPositionsBounded(t *testing.T) {
	// Walls must keep |x| <= 1; detectable through OnStep never seeing
	// a NaN energy and the run completing.
	r := rng.New(9)
	g := graph.Complete(40, r)
	m := g.ToIsing()
	res := Solve(m, Config{Variant: Ballistic, Steps: 200, Seed: 10,
		OnStep: func(step int, e float64) {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				t.Fatalf("non-finite energy at step %d", step)
			}
		}})
	if math.IsNaN(res.Energy) {
		t.Fatal("non-finite final energy")
	}
}

func TestMoreStepsHelpOnAverage(t *testing.T) {
	r := rng.New(11)
	g := graph.Complete(50, r)
	m := g.ToIsing()
	var short, long float64
	for i := 0; i < 5; i++ {
		s := Solve(m, Config{Variant: Discrete, Steps: 10, Seed: uint64(100 + i)})
		l := Solve(m, Config{Variant: Discrete, Steps: 500, Seed: uint64(100 + i)})
		short += s.Energy
		long += l.Energy
	}
	if long > short {
		t.Fatalf("more SB steps hurt: %v vs %v", long/5, short/5)
	}
}

func TestDiscreteAtLeastMatchesBallisticOnFrustrated(t *testing.T) {
	// The literature result the paper leans on: dSB solution quality
	// is at least bSB's. Check on average over seeds on one graph.
	r := rng.New(12)
	g := graph.Complete(60, r)
	m := g.ToIsing()
	var db, bb float64
	for i := 0; i < 8; i++ {
		d := Solve(m, Config{Variant: Discrete, Steps: 300, Seed: uint64(i)})
		b := Solve(m, Config{Variant: Ballistic, Steps: 300, Seed: uint64(i)})
		db += d.Energy
		bb += b.Energy
	}
	// At this small size dSB's edge is statistical; only flag a
	// clearly broken variant (>5% worse on average).
	if db > bb+0.05*math.Abs(bb) {
		t.Fatalf("dSBM (%v) clearly worse than bSBM (%v)", db/8, bb/8)
	}
}

func TestOnStepCalledEveryStep(t *testing.T) {
	m := ferromagnet(8)
	calls := 0
	Solve(m, Config{Steps: 37, Seed: 1, OnStep: func(int, float64) { calls++ }})
	if calls != 37 {
		t.Fatalf("OnStep called %d times, want 37", calls)
	}
}

func TestSolveBatchBest(t *testing.T) {
	br := SolveBatch(graph.Complete(30, rng.New(13)).ToIsing(), Config{Variant: Discrete, Steps: 100, Seed: 50}, 6)
	if len(br.Results) != 6 || slices.ContainsFunc(br.Results, func(r *Result) bool { return r.Energy < br.Best.Energy }) {
		t.Fatalf("%d results, Best %v not the minimum", len(br.Results), br.Best.Energy)
	}
}

func TestVariantString(t *testing.T) {
	if Ballistic.String() != "bSBM" || Discrete.String() != "dSBM" {
		t.Fatal("variant names wrong")
	}
	if Variant(9).String() != "Variant(9)" {
		t.Fatal("unknown variant name wrong")
	}
}

func TestPanics(t *testing.T) {
	m := ferromagnet(4)
	for name, f := range map[string]func(){
		"zero steps": func() { Solve(m, Config{Steps: 0}) },
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

func TestDefaultC0Positive(t *testing.T) {
	r := rng.New(14)
	g := graph.Complete(20, r)
	if c := defaultC0From(g.ToIsing().View(lattice.Dense)); c <= 0 || math.IsNaN(c) {
		t.Fatalf("defaultC0 = %v", c)
	}
	// Degenerate single-spin model must not divide by zero.
	if c := defaultC0From(mustBuild(ising.NewBuilder(1)).View(lattice.Dense)); c != 1 {
		t.Fatalf("defaultC0 on edgeless model = %v, want 1", c)
	}
}

// walkC0 is defaultC0From as it stood before lattice.UpperSums: the
// moment sums by a Scan walk over every row's upper triangle, kept as the
// reference.
func walkC0(lat lattice.Coupling) float64 {
	n := lat.N()
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		lat.Scan(i, func(j int, v float64) {
			if j > i {
				sum += v
				sumSq += float64(v * v)
			}
		})
	}
	cnt := n * (n - 1) / 2
	if cnt == 0 {
		return 1
	}
	mean := sum / float64(cnt)
	variance := sumSq/float64(cnt) - float64(mean*mean)
	return 0.5 / (math.Sqrt(math.Max(variance, 1e-12)) * math.Sqrt(float64(n)))
}

// TestDiscreteForceIsFields is the kept force's differential at the
// engine: at every step of dSBM runs the force is lattice.Fields of that
// step's signs and every energy the run reads is lattice.Energy's, by
// Float64bits, and C0 is the walk's. The ±1 K-graphs with and without
// integer biases keep their force by fanning out the flipped rows; a
// fractional bias and a sparse (CSR) model recompute it.
func TestDiscreteForceIsFields(t *testing.T) {
	models := map[string]*ising.Model{}
	for _, n := range []int{5, 64, 130, 512} {
		models[fmt.Sprintf("K%d", n)] = graph.Complete(n, rng.New(uint64(n))).ToIsing()
	}
	ints, frac := make([]float64, 64), make([]float64, 64)
	for i := range ints {
		ints[i], frac[i] = float64(i%5-2), float64(i%5-2)/4
	}
	for name, h := range map[string][]float64{"K64 integer bias": ints, "K64 fractional bias": frac} {
		b := ising.NewBuilder(64)
		for _, e := range graph.Complete(64, rng.New(64)).Edges() {
			b.SetCoupling(e.U, e.V, -e.Weight)
		}
		for i, v := range h {
			b.SetBias(i, v)
		}
		m, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		models[name] = m
	}
	models["sparse"] = graph.Random(300, 0.02, rng.New(3)).ToIsing()
	if models["sparse"].View(lattice.Auto).Kind() != lattice.CSR {
		t.Fatal("the sparse model is not stored as CSR")
	}
	for name, m := range models {
		lat := m.View(lattice.Auto)
		if got, want := defaultC0From(lat), walkC0(lat); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: C0 %v, walk %v", name, got, want)
		}
		const steps = 400
		want := make([]float64, m.N())
		for seed := uint64(1); seed <= 6; seed++ {
			mc := newMachine(m, Config{Variant: Discrete, Steps: steps, Seed: seed}, nil)
			for step := 0; step < steps; step++ {
				mc.step(float64(step) / steps)
				lattice.Fields(lat, mc.spins, m.MuH(), want, 1)
				for i, f := range mc.force {
					if math.Float64bits(f) != math.Float64bits(want[i]) {
						t.Fatalf("%s seed %d step %d row %d: force %v, Fields %v", name, seed, step, i, f, want[i])
					}
				}
				if e, w := mc.energy(), m.Energy(mc.spins); math.Float64bits(e) != math.Float64bits(w) {
					t.Fatalf("%s seed %d step %d: energy %v, lattice.Energy %v", name, seed, step, e, w)
				}
			}
		}
	}
}

// energies records the values of the events a run emits.
type energies []float64

func (e *energies) Emit(ev obs.Event) { *e = append(*e, ev.Value) }

// TestSamplingDoesNotPerturb: reading the energy along the way — every
// step through OnStep, ~64 times through a Tracer, or both — leaves a
// run's spins and energy where a bare run ends, and the samples agree
// with each other, by Float64bits, and Metrics counts the run and its
// steps.
func TestSamplingDoesNotPerturb(t *testing.T) {
	m := graph.Complete(130, rng.New(3)).ToIsing()
	for _, v := range []Variant{Discrete, Ballistic} {
		cfg := Config{Variant: v, Steps: 200, Seed: 4}
		bare := Solve(m, cfg)
		var perStep, both energies
		var traced, tracedBoth energies
		reg := obs.NewRegistry()
		withStep, withTracer, withBoth := cfg, cfg, cfg
		withStep.OnStep = func(_ int, e float64) { perStep = append(perStep, e) }
		withTracer.Tracer, withTracer.Metrics = &traced, reg
		withBoth.OnStep = func(_ int, e float64) { both = append(both, e) }
		withBoth.Tracer = &tracedBoth
		for name, c := range map[string]Config{"OnStep": withStep, "Tracer": withTracer, "both": withBoth} {
			res := Solve(m, c)
			if math.Float64bits(res.Energy) != math.Float64bits(bare.Energy) || ising.HammingDistance(res.Spins, bare.Spins) != 0 {
				t.Fatalf("%v with %s: energy %v, bare run %v", v, name, res.Energy, bare.Energy)
			}
		}
		every := cfg.Steps / 64
		if len(perStep) != cfg.Steps || len(traced) != cfg.Steps/every || math.Float64bits(perStep[cfg.Steps-1]) != math.Float64bits(bare.Energy) {
			t.Fatalf("%v: %d step samples, %d traced", v, len(perStep), len(traced))
		}
		if runs, steps := reg.Counter("sbm.runs").Value(), reg.Counter("sbm.steps").Value(); runs != 1 || steps != int64(cfg.Steps) {
			t.Fatalf("%v: sbm.runs %d, sbm.steps %d", v, runs, steps)
		}
		for k, e := range traced {
			if p := perStep[(k+1)*every-1]; math.Float64bits(e) != math.Float64bits(p) || math.Float64bits(tracedBoth[k]) != math.Float64bits(e) {
				t.Fatalf("%v sample %d: traced %v, with OnStep %v, OnStep %v", v, k, e, tracedBoth[k], p)
			}
		}
		for k, e := range both {
			if math.Float64bits(e) != math.Float64bits(perStep[k]) {
				t.Fatalf("%v step %d: %v with a Tracer, %v without", v, k, e, perStep[k])
			}
		}
	}
}

// TestSolveBatchCtxKeepsTheCutRun: a batch cancelled in its second run
// holds the first run and the partial second, which is what SolveCtx
// returns at that cut.
func TestSolveBatchCtxKeepsTheCutRun(t *testing.T) {
	m := graph.Complete(40, rng.New(15)).ToIsing()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cutAt = 30
	calls := 0
	cfg := Config{Variant: Discrete, Steps: 100, Seed: 9, OnStep: func(int, float64) {
		if calls++; calls == 100+cutAt {
			cancel()
		}
	}}
	br, err := SolveBatchCtx(ctx, m, cfg, 3)
	if !errors.Is(err, context.Canceled) || len(br.Results) != 2 {
		t.Fatalf("err %v, %d results", err, len(br.Results))
	}
	first, cut := br.Results[0], br.Results[1]
	if first.Steps != 100 || cut.Steps != cutAt {
		t.Fatalf("runs took %d and %d steps", first.Steps, cut.Steps)
	}
	if e := m.Energy(cut.Spins); math.Float64bits(cut.Energy) != math.Float64bits(e) {
		t.Fatalf("cut run reports energy %v of spins at %v", cut.Energy, e)
	}
}

// BenchmarkDSBMK512 is one solve of the k512_dsbm workload: dSBM on a
// ±1 K512 for 800 steps, the C0 sums, the kept force and the final
// energy included.
func BenchmarkDSBMK512(b *testing.B) {
	m := graph.Complete(512, rng.New(1)).ToIsing()
	seed := uint64(0)
	for b.Loop() {
		seed++
		Solve(m, Config{Variant: Discrete, Steps: 800, Seed: seed})
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
