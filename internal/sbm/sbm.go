// Package sbm implements the simulated bifurcation machine of Goto et
// al. [22], the state-of-the-art computational annealer the paper
// compares against (the 8-FPGA system of [49] runs this algorithm).
// Both published variants are provided:
//
//   - Ballistic SB (bSB): the mean-field force uses the continuous
//     positions, with perfectly inelastic walls at x = ±1.
//   - Discrete SB (dSB): the force uses the *signs* of the positions,
//     which suppresses analog error and reaches better solutions.
//
// The dynamics follow the symplectic-Euler update of the paper:
//
//	y_i += [ −(a0 − a(t))·x_i + c0·f_i ] · dt
//	x_i += a0 · y_i · dt
//
// with the bifurcation parameter a(t) ramping 0 → a0 over the run and
// walls: |x_i| > 1 ⇒ x_i ← sign(x_i), y_i ← 0.
package sbm

import (
	"context"
	"fmt"
	"math"
	"time"

	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
)

// Variant selects the SB flavour.
type Variant int

// The two published high-performance SB variants.
const (
	Ballistic Variant = iota
	Discrete
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Ballistic:
		return "bSBM"
	case Discrete:
		return "dSBM"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config parameterizes an SB run.
type Config struct {
	// Variant selects ballistic or discrete SB. Default Ballistic.
	Variant Variant
	// Steps is the number of symplectic-Euler steps. Must be >= 1.
	Steps int
	// Dt is the time step. Default 0.5.
	Dt float64
	// A0 is the final bifurcation parameter. Default 1.
	A0 float64
	// C0 is the coupling strength. Default 0.5/(√N·σ_J), the value
	// recommended by Goto et al. for dense random couplings.
	C0 float64
	// Seed drives the random initial positions.
	Seed uint64
	// OnStep, if non-nil, is called after each step with the step
	// index and the energy of the current sign readout.
	OnStep func(step int, energy float64)
	// Tracer, if non-nil, receives EnergySample events on a bounded
	// cadence (~64 samples per run; outside dSB's exact fields a sample
	// is a full energy evaluation, so per-step emission would dominate
	// the run).
	Tracer obs.Tracer
	// Metrics, if non-nil, accumulates run totals (sbm.steps, sbm.runs).
	Metrics *obs.Registry
}

// Result is the outcome of one SB run.
type Result struct {
	Spins  []int8
	Energy float64
	Steps  int
	Wall   time.Duration
}

// defaultC0From computes Goto's heuristic coupling scale from a
// coupling view. The moment statistics run over every upper-triangle
// pair, zeros included — the historical population — so cnt is n(n−1)/2
// directly while the sums (lattice.UpperSums) cover only stored nonzeros
// (adding a zero never changes an accumulator's bits).
func defaultC0From(lat lattice.Coupling) float64 {
	n := lat.N()
	sum, sumSq := lattice.UpperSums(lat)
	cnt := n * (n - 1) / 2
	if cnt == 0 {
		return 1
	}
	mean := sum / float64(cnt)
	variance := sumSq/float64(cnt) - float64(mean*mean)
	sigma := math.Sqrt(math.Max(variance, 1e-12))
	return 0.5 / (sigma * math.Sqrt(float64(n)))
}

// positions draws the random initial positions and momenta of n nodes,
// uniform in ±0.1.
func positions(seed uint64, n int) (x, y []float64) {
	r := rng.New(seed)
	// The conversion around r.Float64 keeps its division by 2⁵³, once
	// inlined, from fusing with the doubling where the compiler fuses.
	draw := func() float64 { return 0.1 * (float64(float64(r.Float64())*2) - 1) }
	x, y = make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i] = draw(), draw()
	}
	return x, y
}

// machine is one SB run between steps. spins is always the sign readout
// of x; where kept is set, force is always the fields of spins.
type machine struct {
	lat      lattice.Coupling
	base     []float64
	sb       lattice.Bifurcation
	discrete bool
	x, y     []float64
	force    []float64
	spins    []int8
	flipped  []int32
	kept     *lattice.KeptFields
	// stale, if set, is the view of a multi-chip run whose chips read
	// each other's positions from a snapshot exchanged every few steps
	// (multichip.go); nil, every row reads x itself.
	stale *staleView
}

// newMachine validates and defaults cfg and places the run at its
// initial positions, reading remote rows through stale if it is set.
func newMachine(m *ising.Model, cfg Config, stale *staleView) *machine {
	if cfg.Steps < 1 {
		panic(fmt.Sprintf("sbm: Steps=%d", cfg.Steps))
	}
	dt := cfg.Dt
	if dt == 0 {
		dt = 0.5
	}
	if dt <= 0 {
		panic(fmt.Sprintf("sbm: Dt=%v", dt))
	}
	a0 := cfg.A0
	if a0 == 0 {
		a0 = 1
	}
	n := m.N()
	mc := &machine{
		lat:      m.View(lattice.Auto),
		base:     m.MuH(), // μh enters the force like a coupling to a fixed +1 spin
		discrete: cfg.Variant == Discrete,
		force:    make([]float64, n),
		spins:    make([]int8, n),
		flipped:  make([]int32, n),
		stale:    stale,
	}
	c0 := cfg.C0
	if c0 == 0 {
		c0 = defaultC0From(mc.lat)
	}
	mc.sb = lattice.Bifurcation{A0: a0, C0: c0, Dt: dt}
	mc.x, mc.y = positions(cfg.Seed, n)
	readout(mc.x, mc.spins)
	if mc.discrete && stale == nil {
		mc.kept = lattice.KeepFields(mc.lat, mc.base)
		lattice.Fields(mc.lat, mc.spins, mc.base, mc.force, 1)
	}
	return mc
}

// step advances one symplectic step at bifurcation parameter at. The
// mean-field force of dSB is the fields of sign(x), kept current across
// the step by the signs that changed; bSB's is the mat-vec of x itself.
// Behind a stale view each chip's rows are recomputed from its own x and
// the snapshot of the others'.
func (mc *machine) step(at float64) {
	switch {
	case mc.stale != nil:
		mc.stale.force(mc)
	case !mc.discrete:
		lattice.MatVec(mc.lat, mc.x, mc.base, mc.force, 1)
	}
	flipped := mc.sb.Step(mc.x, mc.y, mc.force, mc.spins, mc.flipped, at)
	if mc.kept != nil {
		mc.kept.Flip(mc.spins, flipped, mc.force)
	}
}

// energy is m.Energy's bits for the current readout: read off the kept
// fields for dSB where they are exact, else by lattice.Energy.
func (mc *machine) energy() float64 {
	if mc.kept != nil {
		return mc.kept.Energy(mc.spins, mc.force)
	}
	return lattice.Energy(mc.lat, mc.spins, mc.base)
}

// run takes cfg.Steps steps with the bifurcation parameter ramping from
// 0, stopping early at a step boundary when ctx is cancelled, and
// returns the sign readout reached alongside ctx.Err().
func (mc *machine) run(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sampleEvery := 0
	if cfg.Tracer != nil {
		sampleEvery = max(cfg.Steps/64, 1)
	}
	start := time.Now()
	done := ctx.Done()
	stepsDone := 0
	var runErr error
	for step := 0; step < cfg.Steps; step++ {
		select {
		case <-done:
			runErr = ctx.Err()
		default:
		}
		if runErr != nil {
			break
		}
		mc.step(mc.sb.A0 * float64(step) / float64(cfg.Steps))
		stepsDone++
		if cfg.OnStep != nil {
			cfg.OnStep(step, mc.energy())
		}
		if sampleEvery > 0 && (step+1)%sampleEvery == 0 {
			cfg.Tracer.Emit(obs.Event{Kind: obs.EnergySample,
				Epoch: step + 1, Value: mc.energy()})
		}
	}
	res := &Result{
		Spins:  ising.CopySpins(mc.spins),
		Energy: mc.energy(),
		Steps:  stepsDone,
		Wall:   time.Since(start),
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("sbm.runs").Inc()
		cfg.Metrics.Counter("sbm.steps").Add(int64(stepsDone))
	}
	return res, runErr
}

// Solve runs simulated bifurcation on the model.
func Solve(m *ising.Model, cfg Config) *Result {
	res, _ := SolveCtx(context.Background(), m, cfg)
	return res
}

// SolveCtx is Solve with cancellation: the run stops at the next
// symplectic step boundary and returns the sign readout reached so far
// alongside ctx.Err(). The result is always non-nil and internally
// consistent.
func SolveCtx(ctx context.Context, m *ising.Model, cfg Config) (*Result, error) {
	return newMachine(m, cfg, nil).run(ctx, cfg)
}

// readout writes sign(x) into buf and returns it.
func readout(x []float64, buf []int8) []int8 {
	for i, v := range x {
		if v >= 0 {
			buf[i] = 1
		} else {
			buf[i] = -1
		}
	}
	return buf
}

// BatchResult aggregates independent SB runs.
type BatchResult struct {
	Best    *Result
	Results []*Result
	Wall    time.Duration
}

// SolveBatch performs runs independent SB runs with consecutive seeds
// and returns all results plus the best by energy.
func SolveBatch(m *ising.Model, cfg Config, runs int) *BatchResult {
	br, _ := SolveBatchCtx(context.Background(), m, cfg, runs)
	return br
}

// SolveBatchCtx is SolveBatch with cancellation: the batch stops at the
// run the cancellation cut short, which it holds beside the completed
// ones, Best is the lowest energy among them, and the error is ctx.Err().
func SolveBatchCtx(ctx context.Context, m *ising.Model, cfg Config, runs int) (*BatchResult, error) {
	if runs < 1 {
		panic(fmt.Sprintf("sbm: runs=%d", runs))
	}
	br := &BatchResult{Results: make([]*Result, 0, runs)}
	start := time.Now()
	var err error
	for i := 0; i < runs && err == nil; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		var res *Result
		res, err = SolveCtx(ctx, m, c)
		br.Results = append(br.Results, res)
		if br.Best == nil || res.Energy < br.Best.Energy {
			br.Best = res
		}
	}
	br.Wall = time.Since(start)
	return br, err
}
