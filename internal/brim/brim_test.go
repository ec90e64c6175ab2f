package brim

import (
	"context"
	"math"
	"testing"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/rng"
	"mbrim/internal/sched"
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

func TestSettlesFerromagnet(t *testing.T) {
	n := 16
	m := ferromagnet(n)
	res := Solve(m, SolveConfig{Duration: 80, Config: Config{Seed: 1}})
	want := -float64(n*(n-1)) / 2
	if res.Energy != want {
		t.Fatalf("energy %v, want ground %v (spins %v)", res.Energy, want, res.Spins)
	}
}

func TestSettlesAntiferromagnetPair(t *testing.T) {
	// Two spins with J = -1 must end up anti-aligned.
	mb := ising.NewBuilder(2)
	mb.SetCoupling(0, 1, -1)
	m := mustBuild(mb)
	res := Solve(m, SolveConfig{Duration: 60, Config: Config{Seed: 2}})
	if res.Spins[0] == res.Spins[1] {
		t.Fatalf("antiferromagnetic pair aligned: %v", res.Spins)
	}
	if res.Energy != -1 {
		t.Fatalf("energy %v, want -1", res.Energy)
	}
}

func TestBiasPullsSpin(t *testing.T) {
	// A single strongly biased node must follow its bias.
	mb := ising.NewBuilder(2)
	mb.SetCoupling(0, 1, 0.01)
	mb.SetBias(0, 3)
	mb.SetBias(1, -3)
	m := mustBuild(mb)
	res := Solve(m, SolveConfig{Duration: 60, Config: Config{Seed: 3}})
	if res.Spins[0] != 1 || res.Spins[1] != -1 {
		t.Fatalf("bias ignored: %v", res.Spins)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	r := rng.New(4)
	g := graph.Complete(24, r)
	m := g.ToIsing()
	a := Solve(m, SolveConfig{Duration: 40, Config: Config{Seed: 5}})
	b := Solve(m, SolveConfig{Duration: 40, Config: Config{Seed: 5}})
	if a.Energy != b.Energy || ising.HammingDistance(a.Spins, b.Spins) != 0 {
		t.Fatal("same seed produced different trajectories")
	}
	if a.Flips != b.Flips || a.Induced != b.Induced || a.Steps != b.Steps {
		t.Fatal("same seed produced different counters")
	}
}

func TestVoltagesStayOnRails(t *testing.T) {
	r := rng.New(6)
	g := graph.Complete(30, r)
	ma := New(g.ToIsing(), Config{Seed: 7})
	ma.Run(50)
	for i, v := range ma.Voltages() {
		if v < -1 || v > 1 || math.IsNaN(v) {
			t.Fatalf("voltage %d out of rails: %v", i, v)
		}
	}
}

func TestAnnealingBeatsFrozenDynamics(t *testing.T) {
	// With induced flips disabled the machine greedily settles; with
	// the default annealing schedule it must (statistically) match or
	// beat the frozen run on a frustrated instance.
	r := rng.New(8)
	g := graph.Complete(40, r)
	m := g.ToIsing()
	var frozen, annealed float64
	runs := 5
	for i := 0; i < runs; i++ {
		f := Solve(m, SolveConfig{
			Duration: 60,
			Config:   Config{Seed: uint64(10 + i), InducedFlip: sched.Constant(0)},
		})
		a := Solve(m, SolveConfig{Duration: 60, Config: Config{Seed: uint64(10 + i)}})
		frozen += f.Energy
		annealed += a.Energy
	}
	if annealed > frozen {
		t.Fatalf("annealing hurt on average: %v vs %v", annealed/5, frozen/5)
	}
}

func TestFlipsCounted(t *testing.T) {
	r := rng.New(9)
	g := graph.Complete(20, r)
	res := Solve(g.ToIsing(), SolveConfig{Duration: 60, Config: Config{Seed: 11}})
	if res.Flips == 0 {
		t.Fatal("no flips recorded over a full annealing run")
	}
	if res.Induced > res.Flips {
		t.Fatalf("induced flips (%d) exceed total flips (%d)", res.Induced, res.Flips)
	}
}

func TestOnFlipListener(t *testing.T) {
	r := rng.New(10)
	g := graph.Complete(20, r)
	ma := New(g.ToIsing(), Config{Seed: 12})
	var events int64
	ma.OnFlip(func(node int, newSpin int8, induced bool) {
		if node < 0 || node >= 20 {
			t.Fatalf("flip event for bad node %d", node)
		}
		if newSpin != 1 && newSpin != -1 {
			t.Fatalf("flip event with bad spin %d", newSpin)
		}
		events++
	})
	ma.SetHorizon(60)
	ma.Run(60)
	if events != ma.Flips() {
		t.Fatalf("listener saw %d events, machine counted %d", events, ma.Flips())
	}
}

func TestModelTimeAccounting(t *testing.T) {
	m := ferromagnet(8)
	res := Solve(m, SolveConfig{Duration: 25, Config: Config{Seed: 1}})
	if math.Abs(res.ModelNS-25) > 1e-6 {
		t.Fatalf("model time %v, want 25", res.ModelNS)
	}
}

func TestRunInChunksMatchesSingleRun(t *testing.T) {
	// Epoch-driven operation must integrate the same trajectory as one
	// long run when the horizon is declared up front.
	r := rng.New(13)
	g := graph.Complete(16, r)
	m := g.ToIsing()

	one := New(m, Config{Seed: 14})
	one.SetHorizon(40)
	one.Run(40)

	chunked := New(m, Config{Seed: 14})
	chunked.SetHorizon(40)
	for i := 0; i < 20; i++ {
		chunked.Run(2)
	}

	if ising.HammingDistance(one.Spins(), chunked.Spins()) != 0 {
		t.Fatal("chunked run diverged from single run")
	}
	for i := range one.Voltages() {
		if math.Abs(one.Voltages()[i]-chunked.Voltages()[i]) > 1e-6 {
			t.Fatalf("voltage %d differs: %v vs %v", i, one.Voltages()[i], chunked.Voltages()[i])
		}
	}
}

func TestExternalBiasActsLikeFrozenNeighbor(t *testing.T) {
	// A 1-node machine with external bias b must settle to sign(b) —
	// this is the shadow-copy mechanism in miniature.
	m := mustBuild(ising.NewBuilder(1))
	ma := New(m, Config{Seed: 15, InducedFlip: sched.Constant(0)})
	ma.SetExternalBias([]float64{1.5})
	ma.SetHorizon(30)
	ma.Run(30)
	if ma.Spins()[0] != 1 {
		t.Fatalf("positive external bias gave spin %d", ma.Spins()[0])
	}

	mb := New(m, Config{Seed: 15, InducedFlip: sched.Constant(0)})
	mb.SetExternalBias([]float64{-1.5})
	mb.SetHorizon(30)
	mb.Run(30)
	if mb.Spins()[0] != -1 {
		t.Fatalf("negative external bias gave spin %d", mb.Spins()[0])
	}
}

func TestAddExternalBiasAccumulates(t *testing.T) {
	m := mustBuild(ising.NewBuilder(2))
	ma := New(m, Config{Seed: 1})
	ma.SetExternalBias([]float64{0.5, -0.5})
	ma.AddExternalBias(0, 0.25)
	got := ma.ExternalBias()
	if got[0] != 0.75 || got[1] != -0.5 {
		t.Fatalf("external bias = %v", got)
	}
}

func TestSetSpinsWarmStart(t *testing.T) {
	m := ferromagnet(6)
	ma := New(m, Config{Seed: 16})
	s := []int8{1, -1, 1, -1, 1, -1}
	ma.SetSpins(s)
	if ising.HammingDistance(ma.Spins(), s) != 0 {
		t.Fatal("SetSpins did not set readout")
	}
	if ma.Flips() != 0 {
		t.Fatal("SetSpins counted flips")
	}
}

func TestSynchronizedMachinesInduceIdentically(t *testing.T) {
	// Two machines over the same model with cloned PRNGs and no
	// coupling differences must flip in lockstep (Sec 5.4.2).
	m := ferromagnet(10)
	master := rng.New(77)
	a := New(m, Config{Seed: 0})
	b := New(m, Config{Seed: 0})
	a.SetRNG(master.Clone())
	b.SetRNG(master.Clone())
	// Give both the same initial state to make trajectories identical.
	s := ising.RandomSpins(10, rng.New(5))
	a.SetSpins(s)
	b.SetSpins(s)
	a.SetHorizon(40)
	b.SetHorizon(40)
	a.Run(40)
	b.Run(40)
	if a.InducedFlips() != b.InducedFlips() {
		t.Fatalf("induced counts differ: %d vs %d", a.InducedFlips(), b.InducedFlips())
	}
	if ising.HammingDistance(a.Spins(), b.Spins()) != 0 {
		t.Fatal("synchronized machines diverged")
	}
}

func TestTraceSampling(t *testing.T) {
	r := rng.New(17)
	g := graph.Complete(12, r)
	res := Solve(g.ToIsing(), SolveConfig{
		Duration:       20,
		SampleInterval: 5,
		Config:         Config{Seed: 18},
	})
	if len(res.Trace) != 4 {
		t.Fatalf("trace has %d samples, want 4", len(res.Trace))
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].X <= res.Trace[i-1].X {
			t.Fatal("trace times not increasing")
		}
	}
	last := res.Trace[len(res.Trace)-1]
	if math.Abs(last.Y-res.Energy) > 1e-9 {
		t.Fatalf("last trace sample %v != final energy %v", last.Y, res.Energy)
	}
}

func TestSolveBatchBest(t *testing.T) {
	r := rng.New(19)
	g := graph.Complete(20, r)
	m := g.ToIsing()
	best, all, err := SolveBatchCtx(context.Background(), m, SolveConfig{Duration: 30, Config: Config{Seed: 100}}, 5)
	if err != nil || len(all) != 5 {
		t.Fatalf("got %d results", len(all))
	}
	for _, res := range all {
		if res.Energy < best.Energy {
			t.Fatal("best is not minimal")
		}
	}
}

func TestEulerRunsAndStaysBounded(t *testing.T) {
	r := rng.New(20)
	g := graph.Complete(16, r)
	ma := New(g.ToIsing(), Config{Seed: 21})
	ma.SetHorizon(30)
	ma.RunEuler(30)
	for _, v := range ma.Voltages() {
		if v < -1 || v > 1 || math.IsNaN(v) {
			t.Fatalf("Euler voltage escaped rails: %v", v)
		}
	}
}

func TestPanics(t *testing.T) {
	m := ferromagnet(4)
	for name, f := range map[string]func(){
		"zero duration":   func() { Solve(m, SolveConfig{Duration: 0}) },
		"zero runs":       func() { SolveBatchCtx(context.Background(), m, SolveConfig{Duration: 1}, 0) },
		"neg run":         func() { New(m, Config{}).Run(-1) },
		"bad bias len":    func() { New(m, Config{}).SetExternalBias([]float64{1}) },
		"bad spins len":   func() { New(m, Config{}).SetSpins([]int8{1}) },
		"bad horizon":     func() { New(m, Config{}).SetHorizon(0) },
		"negative dt cfg": func() { New(m, Config{Dt: -1}) },
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

func TestScaleConsistencyAcrossSlices(t *testing.T) {
	// Two machines given the same explicit Scale must normalize the
	// same coupling to the same value — required when one problem is
	// sliced over chips.
	mb := ising.NewBuilder(2)
	mb.SetCoupling(0, 1, 4)
	m := mustBuild(mb)
	a := New(m, Config{Scale: 8})
	got := math.NaN()
	a.lat.Scan(0, func(j int, v float64) {
		if j == 1 {
			got = v
		}
	})
	if got != 0.5 {
		t.Fatalf("scaled coupling = %v, want 0.5", got)
	}
}

func TestMoreTimeDoesNotHurtQuality(t *testing.T) {
	r := rng.New(22)
	g := graph.Complete(32, r)
	m := g.ToIsing()
	var short, long float64
	for i := 0; i < 5; i++ {
		s := Solve(m, SolveConfig{Duration: 5, Config: Config{Seed: uint64(200 + i)}})
		l := Solve(m, SolveConfig{Duration: 80, Config: Config{Seed: uint64(200 + i)}})
		short += s.Energy
		long += l.Energy
	}
	if long > short {
		t.Fatalf("more annealing time hurt: %v vs %v", long/5, short/5)
	}
}

// BenchmarkStepN64 is the RK4 step of the chip k256_mbrim4 anneals: a
// quarter of a K256, 64 nodes, dense.
func BenchmarkStepN64(b *testing.B) {
	benchStep(b, graph.Complete(64, rng.New(1)).ToIsing())
}

func BenchmarkStepN256(b *testing.B) {
	benchStep(b, graph.Complete(256, rng.New(1)).ToIsing())
}

// BenchmarkStepSparse256 is the RK4 step of the chip sparse1k_mbrim4
// anneals: 256 nodes at 2 %, compressed rows, the mat-vec in lane groups.
func BenchmarkStepSparse256(b *testing.B) {
	m := graph.Random(256, 0.02, rng.New(1)).ToIsing()
	if k := m.View(lattice.Auto).Kind(); k != lattice.CSR {
		b.Fatalf("a 2 %% model is stored %v", k)
	}
	benchStep(b, m)
}

func benchStep(b *testing.B, m *ising.Model) {
	ma := New(m, Config{Seed: 1})
	ma.SetHorizon(float64(b.N) * ma.cfg.Dt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bad, _ := ma.trialStep(ma.cfg.Dt); bad < 0 {
			ma.commitStep(ma.cfg.Dt)
		}
	}
}

// TestRunDoesNotAllocate pins the step: an RK4 stage is one mat-vec
// call and one latch call over [0, n), with no closure handed to
// lattice.ForRange (which escaped — four heap closures a step, 803
// allocations for this Run(10) before the direct call). The listener
// case is the shape multichip installs (it writes captured state and
// allocates nothing itself). The sparse machine's mat-vec is the lane
// groups, n = 67 leaves a remainder to the Go form and the varied
// machines pass the latch their factors; none allocates.
func TestRunDoesNotAllocate(t *testing.T) {
	sparse := graph.Random(256, 0.02, rng.New(14)).ToIsing()
	if k := sparse.View(lattice.Auto).Kind(); k != lattice.CSR {
		t.Fatalf("a 2 %% model is stored %v", k)
	}
	models := map[string]*ising.Model{
		"K64":        graph.Complete(64, rng.New(14)).ToIsing(),
		"K67":        graph.Complete(67, rng.New(14)).ToIsing(),
		"sparse 256": sparse,
	}
	for name, m := range models {
		for _, variation := range []float64{0, 0.05} {
			for _, listen := range []bool{false, true} {
				ma := New(m, Config{Seed: 15, DeviceVariation: variation})
				var events int64
				if listen {
					ma.OnFlip(func(int, int8, bool) { events++ })
				}
				ma.SetHorizon(1e6)
				if err := ma.Run(10); err != nil { // warm: first steps, first induced draw
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(20, func() {
					if err := ma.Run(10); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("variation=%v listener=%v: Run(10) on a warm %s machine allocates %v times, want 0", variation, listen, name, allocs)
				}
				if listen && events != ma.Flips() {
					t.Errorf("listener saw %d flips, machine counted %d", events, ma.Flips())
				}
			}
		}
	}
}

// refDeriv is the derivative one node at a time: a one-row matvec, the
// tanh of a one-element slice — too short for a lane group, so always
// the Go form that defines the bits — and the tail in its association,
// each product rounded on its own.
func refDeriv(ma *Machine, v []float64, p float64) []float64 {
	out, one := make([]float64, ma.n), make([]float64, 1)
	kappa := ma.cfg.FeedbackGain.At(p)
	l := &ma.latch
	for i := range out {
		ma.lat.MatVecRange(v, nil, out, i, i+1)
		one[0] = ma.cfg.Gamma * v[i]
		lattice.Tanh(one)
		acc := out[i]
		acc += l.Bias[i] + l.Ext[i]
		k := kappa
		if l.KappaVar != nil {
			k *= l.KappaVar[i]
		}
		acc += float64(k * (one[0] - v[i]))
		out[i] = acc * (1 / ma.cfg.Tau)
		if l.InvTauVar != nil {
			out[i] *= l.InvTauVar[i]
		}
	}
	return out
}

// TestDerivBitsIndependentOfPlacement: a node's derivative, and the next
// stage voltage v0 + c·k formed from it, carry the same bits whichever
// range or lane group evaluated them — the machine's one stage over
// [0, n), two-piece splits at every residue mod 4, and in place (next =
// v, as stages two and three run) — against the node-at-a-time
// reference, for ideal and varied devices, over voltages on, between and
// (as RK4 stage voltages are) beyond the rails and past tanh's
// saturation; on K-graphs (the dense kernels) and on 5 % random graphs
// stored as compressed rows (whole windows in csrLanes, the rest walked).
func TestDerivBitsIndependentOfPlacement(t *testing.T) {
	const p, c = 0.4, 0.025
	type model struct {
		n      int
		sparse bool
	}
	for _, mc := range []model{{5, false}, {64, false}, {67, false}, {256, false}, {515, false}, {256, true}, {515, true}} {
		n := mc.n
		m := graph.Complete(n, rng.New(uint64(n))).ToIsing()
		if mc.sparse {
			m = graph.Random(n, 0.05, rng.New(uint64(n))).ToIsing().As(lattice.CSR)
		}
		r := rng.New(uint64(n) + 1)
		v, ext := make([]float64, n), make([]float64, n)
		for i := range v {
			v[i], ext[i] = r.Float64()*2.4-1.2, r.Float64()-0.5
		}
		for i, s := range []float64{0, math.Copysign(0, -1), 1, -1, 1e-300, -13, 40, 0x1p-30} {
			v[(i*7)%n] = s
		}
		for _, variation := range []float64{0, 0.05} {
			ma := New(m, Config{Seed: 7, DeviceVariation: variation})
			ma.SetExternalBias(ext)
			want := refDeriv(ma, v, p)
			check := func(what string, k, next []float64) {
				t.Helper()
				for i := range k {
					wantNext := ma.v[i] + float64(c*want[i])
					if math.Float64bits(k[i]) != math.Float64bits(want[i]) || math.Float64bits(next[i]) != math.Float64bits(wantNext) {
						t.Fatalf("n=%d sparse=%v variation=%v %s: node %d (v=%v) got %#x → %#x, node-at-a-time %#x → %#x",
							n, mc.sparse, variation, what, i, v[i], math.Float64bits(k[i]), math.Float64bits(next[i]),
							math.Float64bits(want[i]), math.Float64bits(wantNext))
					}
				}
			}
			k, next := make([]float64, n), make([]float64, n)
			ma.stage(v, p, k, c, next)
			check("stage", k, next)
			kappa := ma.cfg.FeedbackGain.At(p)
			for _, cut := range []int{1, 2, 3, n / 2, n - 1} {
				clear(k)
				clear(next)
				for _, rg := range [][2]int{{cut, n}, {0, cut}} {
					ma.lat.MatVecRange(v, nil, k, rg[0], rg[1])
					ma.latch.Stage(v, ma.v, k, next, kappa, c, rg[0], rg[1])
				}
				check("split", k, next)
			}
			w := append([]float64(nil), v...)
			ma.stage(w, p, k, c, w)
			check("in place", k, w)
		}
	}
}

// commitThreeLoops is commitStep as it was before it became one pass:
// clamp every node, advance time, draw every node's noise, re-apply the
// holds, then the readout — the reference the one-pass loop must match.
func commitThreeLoops(ma *Machine, dt float64) {
	for i, v := range ma.cand {
		if v > 1 {
			v = 1
		} else if v < -1 {
			v = -1
		}
		ma.v[i] = v
	}
	ma.t += dt
	ma.steps++
	if ma.cfg.NoiseAmp > 0 {
		amp := ma.cfg.NoiseAmp * math.Sqrt(dt)
		for i := range ma.v {
			v := ma.v[i] + amp*ma.r.NormFloat64()
			if v > 1 {
				v = 1
			} else if v < -1 {
				v = -1
			}
			ma.v[i] = v
		}
	}
	for i, until := range ma.holdUntil {
		if until > ma.t {
			ma.v[i] = 0.8 * float64(ma.holdTarget[i])
		}
	}
	ma.updateReadout(false)
}

// TestCommitStepMatchesThreeLoops: the one-pass commit — rails, noise,
// hold and readout per node in index order — leaves every voltage, spin,
// counter and the PRNG stream where the three loops did, and reports the
// same flips in the same order at the same times to a listener, on a
// noisy machine whose induced kicks are being held.
func TestCommitStepMatchesThreeLoops(t *testing.T) {
	m := graph.Complete(37, rng.New(30)).ToIsing()
	type event struct {
		node    int
		spin    int8
		induced bool
		t       float64
	}
	var machines [2]*Machine
	var logs [2][]event
	for s := range machines {
		ma := New(m, Config{Seed: 31, NoiseAmp: 0.3, KickHoldNS: 2, DeviceVariation: 0.05})
		ma.SetHorizon(40)
		ma.OnFlip(func(node int, spin int8, induced bool) {
			logs[s] = append(logs[s], event{node, spin, induced, ma.Time()})
		})
		machines[s] = ma
	}
	one, three := machines[0], machines[1]
	dt := one.cfg.Dt
	held := 0
	for step := 0; step < 400; step++ {
		if step%7 == 0 {
			one.Induce(step % 37)
			three.Induce(step % 37)
		}
		if step%20 == 0 {
			one.induceFlips()
			three.induceFlips()
		}
		for _, until := range one.holdUntil {
			if until > one.t+dt {
				held++
			}
		}
		if bad, _ := one.trialStep(dt); bad >= 0 {
			t.Fatalf("step %d diverged at node %d", step, bad)
		}
		three.trialStep(dt)
		one.commitStep(dt)
		commitThreeLoops(three, dt)
	}
	if held == 0 {
		t.Fatal("no hold was active during a commit")
	}
	for i := range one.v {
		if math.Float64bits(one.v[i]) != math.Float64bits(three.v[i]) || one.spins[i] != three.spins[i] {
			t.Fatalf("node %d: one pass %v/%d, three loops %v/%d", i, one.v[i], one.spins[i], three.v[i], three.spins[i])
		}
	}
	if one.r.State() != three.r.State() || one.flips != three.flips || one.induced != three.induced || one.steps != three.steps {
		t.Fatal("PRNG stream or counters diverged")
	}
	if len(logs[0]) == 0 || len(logs[0]) != len(logs[1]) {
		t.Fatalf("listener saw %d flips, three loops %d", len(logs[0]), len(logs[1]))
	}
	for i := range logs[0] {
		if logs[0][i] != logs[1][i] {
			t.Fatalf("flip %d: one pass %+v, three loops %+v", i, logs[0][i], logs[1][i])
		}
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
