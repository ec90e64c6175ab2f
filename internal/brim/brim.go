// Package brim simulates a Bistable Resistively-coupled Ising Machine
// (BRIM [3]), the paper's baseline Ising substrate. Following the
// paper's methodology (Sec 6.1), the machine's dynamical system is
// integrated with the 4th-order Runge–Kutta method.
//
// # Dynamics
//
// Node i is a capacitor voltage V_i ∈ [-1, 1]. Three currents drive it:
//
//   - Coupling: Σ_j Ĵ_ij V_j, the resistive network. Ĵ is the problem's
//     coupling matrix scaled so the largest magnitude is ~1 (resistor
//     value 1/J_ij in the physical machine).
//   - Bias: μ ĥ_i plus an externally supplied per-node current. In a
//     multiprocessor, the external term carries the shadow copies of
//     remote spins — a frozen ±1 value per remote spin pushed through
//     the local coupling column exactly like g = μh + J_× σ of Eq. 3.
//   - Bistable feedback: κ(t)·(tanh(γ V_i) − V_i), the latch circuit
//     that makes each node snap to a rail. Its gain κ follows an
//     annealing schedule: weak early (analog exploration), strong late
//     (digitization). The tanh is the repository's own (lattice.Tanh,
//     inside lattice.Latch's stage): the same bits on every host, so a
//     seed's trajectory is too.
//
// giving τ·dV_i/dt = couple_i + bias_i + feedback_i, with τ the RC time
// constant in nanoseconds. Increasing τ is the "slow down the machine's
// physics" knob of Sec 5.3 — the response to a bandwidth-limited fabric.
//
// # Annealing
//
// To escape local minima, the machine stochastically induces spin flips
// (Sec 5.4.2): every 0.5·Tau of model time, each node flips with a
// probability from a decaying schedule. The draw is made from the
// machine's PRNG in a fixed order, so two machines holding clones of
// the same PRNG induce identical flips — the property the coordinated
// induced-flip optimization depends on.
//
// # Time
//
// All times are nanoseconds of *model time*: the machine's own physics,
// not host CPU time. Results carry model time so speedups against
// measured software solvers can be formed the way the paper forms them.
package brim

import (
	"context"
	"fmt"
	"math"

	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/rng"
	"mbrim/internal/sched"
)

// The circuit's fixed operating point: one tuned design, as the paper
// models (Sec 6.1, which notes that schedule tuning has significant
// impact; these were tuned on seeded K-graphs). Its times scale with
// Config.Tau: induced flips are drawn every 0.5·Tau, and the couplings'
// spectrum sets the RK4 step, a whole division of that interval and at
// most 0.25·Tau (flipSteps): 0.25·Tau on chip blocks and small sparse
// models, Tau/6 on whole K-graphs. The step sits inside RK4's stability
// region for every generated family (TestStepStaysInsideRK4Stability)
// and finds the cut half of it does (TestHalfStepKeepsTheCut); DESIGN's
// numerics paragraph has the table.
const (
	// gamma is the feedback sharpness (tanh slope).
	gamma = 1.5
	// spinThreshold is the hysteresis level of the digital readout: the
	// discrete spin changes only when the voltage crosses the opposite
	// threshold.
	spinThreshold = 0.1
)

// feedbackGain is the κ(t) schedule over run progress: 0.05 → 1.2
// linearly, nearly free analog exploration early, firm digitization by
// the end.
var feedbackGain = sched.Linear{From: 0.05, To: 1.2}

// Config parameterizes a machine. The zero value of most fields
// selects a sensible default; see each field.
type Config struct {
	// Tau is the RC time constant in ns. Default 1.
	Tau float64
	// InducedFlip is the per-node flip probability schedule over run
	// progress, drawn every 0.5·Tau. Default decays 0.08 → 0.
	InducedFlip sched.Schedule
	// KickHoldNS is how long the annealing control actively drives a
	// kicked node at its new rail before releasing it to the analog
	// dynamics. Holding the pulse lets the rest of the network adapt,
	// so induced flips persist the way the architecture assumes
	// (Sec 5.4.2). Default 0.5·Tau. Negative disables holding.
	KickHoldNS float64
	// Scale divides the coupling matrix (resistor normalization).
	// Default = the model's MaxRowNorm2, putting typical local fields at
	// unit scale — the operating point where the bistable feedback
	// competes meaningfully with the coupling network, and the regime
	// in which induced flips persist long enough to matter.
	// Multi-chip slices of one problem must share one global scale.
	Scale float64
	// Seed drives induced flips and the random initial voltages.
	Seed uint64
	// MaxStepRetries bounds the numerical guardrail's step-halving
	// backoff: a step whose candidate voltages come out NaN/Inf or
	// blown far past the rails is discarded and retried at halved dt
	// up to this many times before the run aborts with a
	// *DivergenceError. Zero selects the default 8; negative disables
	// retries (the first bad step aborts).
	MaxStepRetries int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Tau == 0 {
		out.Tau = 1
	}
	if out.InducedFlip == nil {
		out.InducedFlip = sched.Linear{From: 0.08, To: 0}
	}
	if out.KickHoldNS == 0 {
		out.KickHoldNS = 0.5 * out.Tau
	}
	if out.MaxStepRetries == 0 {
		out.MaxStepRetries = defaultMaxStepRetries
	}
	if out.Tau <= 0 {
		panic(fmt.Sprintf("brim: Tau=%v", out.Tau))
	}
	return out
}

// Machine is a stateful BRIM instance. It is advanced in model time
// with Run; the multiprocessor drives one Machine per chip epoch by
// epoch. Machine is not safe for concurrent use.
type Machine struct {
	model *ising.Model
	cfg   Config
	r     *rng.Source

	lat   lattice.Coupling // scaled couplings Ĵ = J/scale behind the backend interface
	latch lattice.Latch    // the derivative's pointwise half: μ·h_i/scale and the external currents
	scale float64
	n     int
	v     []float64 // voltages
	spins []int8    // hysteresis readout

	t        float64 // model time, ns
	horizon  float64 // total planned duration, for schedule progress
	nextFlip float64 // model time of the next induced-flip draw
	// dt is the RK4 step, flipInterval/flipSteps (Tau/4 or Tau/6 for
	// random-sign couplings); flipInterval the model time between
	// induced-flip draws, 0.5·Tau. Run lands t exactly on every draw and
	// run end, so a run split at a draw steps through an unsplit one's
	// clock.
	dt, flipInterval float64

	flips        int64 // readout sign changes (all causes)
	induced      int64 // flips whose proximate cause was an induced kick
	steps        int64
	stepRetries  int64 // guardrail halved-step retries, cumulative
	epochRetries int64 // retries since the last TakeEpochRetries drain
	// retryLog, when enabled, records where on the model timeline the
	// guardrail spent retries — the raw feed of "rk4_retry" trace spans.
	// Appended only on the (rare) retry path, never per step.
	retryLog     []RetryRecord
	logRetries   bool
	flipListener func(node int, newSpin int8, induced bool)

	// Kick-hold state: nodes the annealing control is still driving.
	holdUntil  []float64
	holdTarget []int8

	// scratch buffers for RK4: k1–k3 the stage derivatives, k4 the last
	// stage's mat-vec, vtmp the next stage's voltages; cand holds a step's
	// candidate voltages so the guardrail can inspect them before any
	// state commits; crossed holds the nodes a commit's readout flips.
	k1, k2, k3, k4, vtmp, cand []float64
	crossed                    []int32
}

// New builds a machine for the model. The machine starts at random
// rail voltages (±0.5) drawn from the seed, at model time 0, with a
// planned horizon that Run extends as needed.
func New(m *ising.Model, cfg Config) *Machine {
	c := cfg.withDefaults()
	n := m.N()
	scale := c.Scale
	if scale == 0 {
		scale = m.MaxRowNorm2()
		if scale == 0 {
			scale = 1
		}
	}
	ma := &Machine{
		model: m,
		cfg:   c,
		r:     rng.New(c.Seed),
		n:     n,
		scale: scale,
		v:     make([]float64, n),
		spins: make([]int8, n),

		flipInterval: 0.5 * c.Tau,

		holdUntil:  make([]float64, n),
		holdTarget: make([]int8, n),
		crossed:    make([]int32, n),
	}
	// The six scratch vectors are carved from one allocation.
	scratch := make([]float64, 6*n)
	carve := func() []float64 {
		v := scratch[:n:n]
		scratch = scratch[n:]
		return v
	}
	ma.k1, ma.k2, ma.k3, ma.k4, ma.vtmp, ma.cand = carve(), carve(), carve(), carve(), carve(), carve()
	// The machine stores Ĵ = J/scale — division, exactly as the old
	// private jhat copy did, so trajectories are bit-identical — in the
	// layout the model came in (its own kind, not Auto: a rescale never
	// re-lays the model it was handed), as floats: the RK4 mat-vec
	// multiplies floats by floats, and a ±1 model stores bits.
	stored := m.View(lattice.Auto)
	ma.lat = lattice.Floats(lattice.Convert(stored, stored.Kind(), scale))
	ma.latch = lattice.Latch{Gamma: gamma, InvTau: 1 / c.Tau, Bias: make([]float64, n), Ext: make([]float64, n)}
	for i, b := range m.MuH() {
		ma.latch.Bias[i] = b / scale
	}
	ma.dt = ma.flipInterval / float64(ma.flipSteps())
	for i := range ma.v {
		s := ma.r.Spin()
		ma.v[i] = 0.5 * float64(s)
		ma.spins[i] = s
	}
	ma.nextFlip = ma.flipInterval
	return ma
}

// Model returns the Ising model this machine was built over (do not
// mutate — the machine holds pre-scaled copies of its parameters).
func (ma *Machine) Model() *ising.Model { return ma.model }

// Time returns the current model time in ns.
func (ma *Machine) Time() float64 { return ma.t }

// Spins returns the current digital readout (do not mutate).
func (ma *Machine) Spins() []int8 { return ma.spins }

// Flips returns the total number of readout sign changes so far.
func (ma *Machine) Flips() int64 { return ma.flips }

// InducedFlips returns how many readout changes were caused by the
// stochastic annealing kicks rather than the analog dynamics.
func (ma *Machine) InducedFlips() int64 { return ma.induced }

// Steps returns the number of RK4 steps taken.
func (ma *Machine) Steps() int64 { return ma.steps }

// Induce applies an externally commanded annealing kick to node i,
// driving its voltage firmly past the opposite threshold. The
// multiprocessor runtime uses this to coordinate induced flips across
// chips (Sec 5.4.2); the resulting readout change is counted as an
// induced flip.
func (ma *Machine) Induce(i int) {
	target := -ma.spins[i]
	if target == 0 {
		target = 1
	}
	ma.v[i] = 0.8 * float64(target)
	if ma.cfg.KickHoldNS > 0 {
		ma.holdUntil[i] = ma.t + ma.cfg.KickHoldNS
		ma.holdTarget[i] = target
	}
	if ma.spins[i] != target {
		ma.recordFlip(i, target, true)
	}
}

// OnFlip installs a listener called on every readout change with the
// node index, its new spin, and whether an induced kick caused it.
// The fabric model subscribes here to generate update traffic. A flip
// the dynamics caused is reported once its whole step has committed, in
// node order: the listener sees the step's time (Time) and every node's
// voltage of that step (Snapshot), and the spins of the nodes reported
// before it.
func (ma *Machine) OnFlip(f func(node int, newSpin int8, induced bool)) {
	ma.flipListener = f
}

// SetHorizon declares the total planned run length in ns, used only to
// convert model time into schedule progress. Run sets it automatically
// when the horizon is unset; multi-epoch drivers set it once up front
// so schedules span the whole run rather than each epoch.
func (ma *Machine) SetHorizon(ns float64) {
	if ns <= 0 {
		panic("brim: non-positive horizon")
	}
	ma.horizon = ns
}

// SetSpins forces the node voltages to the rails matching s (the
// warm-start used by batch mode when a chip picks up another job's
// state) and resets the readout accordingly. It does not count flips:
// it is a state load, not dynamics.
func (ma *Machine) SetSpins(s []int8) {
	if len(s) != ma.n {
		panic("brim: SetSpins length mismatch")
	}
	for i, sp := range s {
		ma.v[i] = 0.7 * float64(sp)
		ma.spins[i] = sp
		// A state load cancels any pending annealing-control pulse; a
		// hold from the previous context must not corrupt this one.
		ma.holdUntil[i] = 0
	}
}

// SetExternalBias replaces the external per-node bias currents (the
// shadow-spin contributions, already scaled like the couplings).
func (ma *Machine) SetExternalBias(b []float64) {
	if len(b) != ma.n {
		panic("brim: SetExternalBias length mismatch")
	}
	copy(ma.latch.Ext, b)
}

// AddColumnBias adds Ĵ[k]·delta to node li[k]'s external bias current
// for each k in order — one remote spin's flip through its coupling
// column: when remote spin j flips from σ to −σ, the owner chip passes
// the local nodes i and couplings Ĵ_ij of its column and delta = −2σ.
func (ma *Machine) AddColumnBias(li []int32, jhat []float64, delta float64) {
	ext, jhat := ma.latch.Ext, jhat[:len(li)]
	for k, i := range li {
		ext[i] += float64(jhat[k] * delta)
	}
}

// stage runs one RK4 stage at voltages v and schedule progress p: the
// coupling mat-vec into k, then the latch, which turns it into dV/dt and
// writes the next stage's voltages next = ma.v + c·k (lattice.Latch.Stage:
// four nodes per instruction where the host has the lanes, the same bits
// on every host). next may be v.
func (ma *Machine) stage(v []float64, p float64, k []float64, c float64, next []float64) {
	ma.lat.MatVecRange(v, nil, k, 0, ma.n)
	ma.latch.Stage(v, ma.v, k, next, feedbackGain.At(p), c, 0, ma.n)
}

// The step. A flip interval takes the fewest equal RK4 steps, and at
// least minFlipSteps (dt ≤ 0.25·Tau, the largest step the quality table
// has evidence for), that keep the node equations' stiffest mode at
// |λ|·dt/τ ≤ stepMargin: a quarter of RK4's real-axis stability bound
// (≈ 2.785), where the method's amplification factor stays within 0.3 %
// of e^z. powerIters mat-vecs estimate ρ(Ĵ) for it, under 1 % of a
// 100 ns run.
const (
	minFlipSteps = 2
	stepMargin   = 2.785 / 4
	powerIters   = 32
)

// flipSteps returns how many equal RK4 steps one flip interval takes.
// Every eigenvalue of the node equations' Jacobian, in units of 1/τ, is
// within ρ(Ĵ) + κmax·max(1, γ−1) of zero: Ĵ's plus the latch's slope
// κ(γ·sech²(γV) − 1). The estimate of ρ(Ĵ) is padded 10 % because it
// climbs to ρ from below. Random-sign couplings sit near ρ(Ĵ) = 2 as
// whole K-graphs (three steps) and near 1 as a 4-chip run's blocks (two);
// coherent ones (unweighted dense MaxCut, number partitioning) reach
// ρ(Ĵ) ≈ √n and take many more, where a coarse step would drive their
// stiff mode to the rails.
func (ma *Machine) flipSteps() int {
	slope := float64(math.Max(feedbackGain.From, feedbackGain.To) * math.Max(1, gamma-1))
	rho := float64(1.1 * ma.spectralRadius(powerIters))
	return max(minFlipSteps, int(math.Ceil(float64(0.5*(rho+slope))/stepMargin)))
}

// spectralRadius estimates ρ(Ĵ) by iters steps of power iteration from a
// fixed pseudo-random start, in the scratch vectors k1 and k2. Ĵ is
// symmetric, so ‖Ĵx‖ at unit x is the Rayleigh quotient of Ĵ² taken to
// the square root, and it climbs to ρ whichever end of the spectrum ρ
// sits at.
func (ma *Machine) spectralRadius(iters int) float64 {
	x, y := ma.k1, ma.k2
	r := rng.New(0x5EC7)
	for i := range x {
		x[i] = float64(r.Float64()) - 0.5
	}
	norm := func(v []float64) float64 {
		var s float64
		for _, e := range v {
			s += float64(e * e)
		}
		return math.Sqrt(s)
	}
	var rho float64
	for k := 0; k < iters; k++ {
		nx := norm(x)
		for i := range x {
			x[i] /= nx
		}
		ma.lat.MatVecRange(x, nil, y, 0, ma.n)
		rho = norm(y)
		x, y = y, x
	}
	return rho
}

// progress maps a model time to schedule progress given the horizon.
func (ma *Machine) progress(t float64) float64 {
	if ma.horizon <= 0 {
		return 0
	}
	p := t / ma.horizon
	if p > 1 {
		p = 1
	}
	return p
}

// Numerical guardrail constants. A candidate voltage past blowupLimit
// means the integrator left its stability region: physical voltages
// clamp at ±1, and a stable step never overshoots the rails by six
// orders of magnitude. defaultMaxStepRetries bounds the step-halving
// backoff (2^8 ≈ 256× dt reduction reach).
const (
	blowupLimit           = 1e6
	defaultMaxStepRetries = 8
)

// DivergenceError reports that the integrator left its numerical
// stability region and the step-halving guardrail could not recover:
// some candidate voltage came out NaN/Inf or beyond blowupLimit at
// every attempted step size. The machine's committed state is still
// the last stable one — no NaN ever reaches the voltages or readout.
type DivergenceError struct {
	// Node is the first offending node index (machine-local).
	Node int
	// TimeNS is the model time at which the failing step began.
	TimeNS float64
	// Value is the offending candidate voltage of the final attempt.
	Value float64
	// DtHistory lists every step size attempted, largest first.
	DtHistory []float64
}

func (e *DivergenceError) Error() string {
	last := math.NaN()
	if len(e.DtHistory) > 0 {
		last = e.DtHistory[len(e.DtHistory)-1]
	}
	return fmt.Sprintf("brim: integrator diverged at node %d, t=%.4g ns (candidate v=%g after %d step size(s) down to dt=%g)",
		e.Node, e.TimeNS, e.Value, len(e.DtHistory), last)
}

// trialStep computes the RK4 candidate voltages for a step of size dt
// into ma.cand without committing any state, and returns the first node
// whose candidate is NaN/Inf or beyond blowupLimit (-1 when the step is
// clean). Overflow in an intermediate stage surfaces in the candidate —
// Inf propagates through the remaining stages and mixed-sign overflow
// yields NaN — so checking the candidate catches stage blowups too.
func (ma *Machine) trialStep(dt float64) (badNode int, badV float64) {
	p := ma.progress(ma.t)
	pm := ma.progress(ma.t + float64(dt/2))
	pe := ma.progress(ma.t + dt)

	ma.stage(ma.v, p, ma.k1, dt/2, ma.vtmp)
	ma.stage(ma.vtmp, pm, ma.k2, dt/2, ma.vtmp)
	ma.stage(ma.vtmp, pm, ma.k3, dt, ma.vtmp)
	ma.lat.MatVecRange(ma.vtmp, nil, ma.k4, 0, ma.n)
	bad := ma.latch.Final(ma.vtmp, ma.v, ma.k1, ma.k2, ma.k3, ma.k4, ma.cand, feedbackGain.At(pe), dt/6, blowupLimit)
	if bad < 0 {
		return -1, 0
	}
	return bad, ma.cand[bad]
}

// commitStep commits the candidate voltages of a clean trial as one
// step of size dt: it advances time and lets the latch take every node
// through the rails, its kick, its hold and the readout comparator
// (lattice.Latch.Commit: four nodes per instruction where the host has
// the lanes, the same bits on every host). Then it records the flips the
// latch lists, in node order.
func (ma *Machine) commitStep(dt float64) {
	ma.t += dt
	ma.steps++
	for _, i := range ma.latch.Commit(ma.cand, ma.v, ma.holdUntil, ma.holdTarget, ma.spins, ma.t, spinThreshold, ma.crossed) {
		ma.recordFlip(int(i), lattice.Readout(ma.spins[i], ma.v[i], spinThreshold), false)
	}
}

// guardedStep advances one integration step of size dt with the
// numerical guardrail: a step whose candidate voltages are non-finite
// or blown past blowupLimit is discarded and retried at halved dt, up
// to MaxStepRetries times. A retried step commits the shortened step —
// the machine simply takes more, smaller steps to cross the interval —
// and retries consume no PRNG draws, so the guardrail never perturbs an
// already-stable trajectory and guarded runs stay deterministic.
func (ma *Machine) guardedStep(dt float64) error {
	dt0 := dt
	limit := ma.cfg.MaxStepRetries
	if limit < 0 {
		limit = 0
	}
	for attempt := 0; ; attempt++ {
		bad, badV := ma.trialStep(dt)
		if bad < 0 {
			ma.commitStep(dt)
			if attempt > 0 {
				ma.stepRetries += int64(attempt)
				ma.epochRetries += int64(attempt)
				if ma.logRetries {
					ma.retryLog = append(ma.retryLog,
						RetryRecord{TimeNS: ma.t, Retries: attempt, FinalDt: dt})
				}
			}
			return nil
		}
		if attempt >= limit {
			hist := make([]float64, attempt+1)
			d := dt0
			for i := range hist {
				hist[i] = d
				d /= 2
			}
			return &DivergenceError{Node: bad, TimeNS: ma.t, Value: badV, DtHistory: hist}
		}
		dt /= 2
	}
}

// StepRetries returns the total halved-step retries the numerical
// guardrail has spent so far.
func (ma *Machine) StepRetries() int64 { return ma.stepRetries }

// TakeEpochRetries drains the retry count accumulated since the last
// call. The multiprocessor reads it at epoch barriers, in chip order,
// to emit Numerical trace events deterministically under Parallel.
func (ma *Machine) TakeEpochRetries() int64 {
	r := ma.epochRetries
	ma.epochRetries = 0
	return r
}

// RetryRecord is one guardedStep invocation that needed halved-dt
// retries: the model-time position it committed at, how many halvings
// it spent, and the step size that finally went through.
type RetryRecord struct {
	TimeNS  float64
	Retries int
	FinalDt float64
}

// SetRetryLog enables (or disables) recording of per-retry positions
// for span tracing. Off by default: the log costs an append on the
// retry path only, but span consumers must opt in explicitly.
func (ma *Machine) SetRetryLog(on bool) { ma.logRetries = on }

// TakeRetryLog drains the recorded retry positions. Reading it at a
// run or epoch boundary keeps emission off the integration path.
func (ma *Machine) TakeRetryLog() []RetryRecord {
	log := ma.retryLog
	ma.retryLog = nil
	return log
}

// updateReadout applies the hysteresis comparator to every node and
// fires flip events.
func (ma *Machine) updateReadout(induced bool) {
	for i, v := range ma.v {
		if s := lattice.Readout(ma.spins[i], v, spinThreshold); s != 0 {
			ma.recordFlip(i, s, induced)
		}
	}
}

func (ma *Machine) recordFlip(i int, newSpin int8, induced bool) {
	ma.spins[i] = newSpin
	ma.flips++
	if induced {
		ma.induced++
	}
	if ma.flipListener != nil {
		ma.flipListener(i, newSpin, induced)
	}
}

// induceFlips draws the stochastic annealing kicks for the current
// schedule point. Every node is drawn in index order so that machines
// with synchronized PRNGs make identical draws.
func (ma *Machine) induceFlips() {
	prob := ma.cfg.InducedFlip.At(ma.progress(ma.t))
	for i := 0; i < ma.n; i++ {
		if !ma.r.Bool(prob) {
			continue
		}
		// Kick the node firmly past the opposite threshold.
		target := -ma.spins[i]
		if target == 0 {
			target = 1
		}
		ma.v[i] = 0.6 * float64(target)
	}
	ma.updateReadout(true)
}

// Run advances the machine by duration ns of model time, processing
// induced-flip draws on schedule. If no horizon was declared, the
// first Run call sets it to its own duration. A non-nil error is a
// *DivergenceError: the machine's committed state is still the last
// stable one.
func (ma *Machine) Run(duration float64) error {
	return ma.run(context.Background(), duration)
}

// RunCtx is Run with cooperative cancellation: the context is checked
// at every flip-interval boundary, and ctx.Err() is returned when it
// fires, leaving the machine at a consistent state mid-run.
func (ma *Machine) RunCtx(ctx context.Context, duration float64) error {
	return ma.run(ctx, duration)
}

// run is the shared advance loop: integrate to the next induced-flip
// draw or the end, whichever comes first, with the numerical guardrail
// around every step and a cancellation check per flip interval.
func (ma *Machine) run(ctx context.Context, duration float64) error {
	if duration <= 0 {
		panic("brim: Run with non-positive duration")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if ma.horizon <= 0 {
		ma.horizon = duration
	}
	end := ma.t + duration
	// eps is the clock's tolerance: a step that ends within it of a
	// boundary ends on the boundary. It is relative to dt, so the few
	// ulps t += dt gathers between boundaries leave no sliver step even
	// a million ns into a run.
	eps := float64(1e-6 * ma.dt)
	done := ctx.Done()
	for ma.t < end-eps {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		// Integrate up to the next induced-flip draw or the epoch end,
		// whichever comes first.
		next := end
		if ma.nextFlip < next {
			next = ma.nextFlip
		}
		for ma.t < next-eps {
			dt := ma.dt
			if ma.t+dt > next {
				dt = next - ma.t
			}
			if err := ma.guardedStep(dt); err != nil {
				return err
			}
			// Land exactly on the boundary: a run split at any boundary
			// then steps through the same clock values as an unsplit one.
			if ma.t > next-eps {
				ma.t = next
			}
		}
		if ma.t >= ma.nextFlip-eps {
			ma.induceFlips()
			ma.nextFlip += ma.flipInterval
		}
	}
	return nil
}
