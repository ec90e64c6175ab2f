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
	// Workers fans the force accumulation over goroutines. It only
	// moves host time: every layout × worker count produces
	// bit-identical trajectories.
	Workers int
	// Tracer, if non-nil, receives EnergySample events on a bounded
	// cadence (~64 samples per run; each sample costs an O(N²) energy
	// evaluation, so per-step emission would dominate the run).
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
// directly while the sums iterate only stored nonzeros (adding a zero
// never changes an accumulator's bits).
func defaultC0From(lat lattice.Coupling) float64 {
	n := lat.N()
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		lat.Scan(i, func(j int, v float64) {
			if j > i {
				sum += v
				sumSq += v * v
			}
		})
	}
	cnt := n * (n - 1) / 2
	if cnt == 0 {
		return 1
	}
	mean := sum / float64(cnt)
	variance := sumSq/float64(cnt) - mean*mean
	sigma := math.Sqrt(math.Max(variance, 1e-12))
	return 0.5 / (sigma * math.Sqrt(float64(n)))
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
	if cfg.Steps < 1 {
		panic(fmt.Sprintf("sbm: Steps=%d", cfg.Steps))
	}
	if ctx == nil {
		ctx = context.Background()
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
	lat := m.View(lattice.Auto)
	// The bias term enters the force like a coupling to a fixed +1 spin:
	// μh seeds every row's accumulator.
	base := m.MuH()
	c0 := cfg.C0
	if c0 == 0 {
		c0 = defaultC0From(lat)
	}
	r := rng.New(cfg.Seed)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 0.1 * (r.Float64()*2 - 1)
		y[i] = 0.1 * (r.Float64()*2 - 1)
	}
	force := make([]float64, n)
	spins := make([]int8, n)
	// m.Energy's bits, through the ±1 planes when the view has them.
	energy := func(s []int8) float64 { return lattice.Energy(lat, s, base) }
	sampleEvery := 0
	if cfg.Tracer != nil {
		sampleEvery = cfg.Steps / 64
		if sampleEvery < 1 {
			sampleEvery = 1
		}
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
		at := a0 * float64(step) / float64(cfg.Steps)
		// Mean-field force. dSB uses sign(x), bSB uses x itself.
		switch cfg.Variant {
		case Discrete:
			for j := 0; j < n; j++ {
				if x[j] >= 0 {
					spins[j] = 1
				} else {
					spins[j] = -1
				}
			}
			lattice.Fields(lat, spins, base, force, cfg.Workers)
		default:
			lattice.MatVec(lat, x, base, force, cfg.Workers)
		}
		for i := 0; i < n; i++ {
			y[i] += (-(a0-at)*x[i] + c0*force[i]) * dt
			x[i] += a0 * y[i] * dt
			// Perfectly inelastic walls.
			if x[i] > 1 {
				x[i], y[i] = 1, 0
			} else if x[i] < -1 {
				x[i], y[i] = -1, 0
			}
		}
		stepsDone++
		if cfg.OnStep != nil {
			cfg.OnStep(step, energy(readout(x, spins)))
		}
		if sampleEvery > 0 && (step+1)%sampleEvery == 0 {
			cfg.Tracer.Emit(obs.Event{Kind: obs.EnergySample,
				Epoch: step + 1, Value: energy(readout(x, spins))})
		}
	}
	res := &Result{
		Spins: ising.CopySpins(readout(x, spins)),
		Steps: stepsDone,
		Wall:  time.Since(start),
	}
	res.Energy = energy(res.Spins)
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("sbm.runs").Inc()
		cfg.Metrics.Counter("sbm.steps").Add(int64(stepsDone))
	}
	return res, runErr
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
	if runs < 1 {
		panic(fmt.Sprintf("sbm: runs=%d", runs))
	}
	br := &BatchResult{Results: make([]*Result, runs)}
	start := time.Now()
	for i := 0; i < runs; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		br.Results[i] = Solve(m, c)
		if br.Best == nil || br.Results[i].Energy < br.Best.Energy {
			br.Best = br.Results[i]
		}
	}
	br.Wall = time.Since(start)
	return br
}
