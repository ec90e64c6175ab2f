// Package sa implements an optimized simulated annealer in the style
// of Isakov et al. [29], the fastest software baseline the paper
// measures against. The optimization that matters for fully connected
// graphs (Sec 6.1, "dense matrix representation") is caching the local
// field of every spin: a Metropolis attempt is then O(1) and only an
// accepted flip pays the O(N) field update. The second is the one
// optimised SA codes make for ±1 couplings: ΔE takes few values at a
// temperature, so the acceptance test reads a per-sweep table of
// integer bounds (rng.Metropolis) and pays math.Exp once per (β, ΔE)
// instead of once per uphill attempt — deciding, and drawing, bit for
// bit as r.Float64() < exp(−β·ΔE) does.
//
// A deliberately naive variant (full energy recomputation per attempt)
// is provided for the ablation benchmark that quantifies how much the
// dense local-field representation buys.
package sa

import (
	"context"
	"fmt"
	"math"
	"time"

	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/metrics"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
	"mbrim/internal/sched"
)

// Instruction-cost model for the first-principles analysis (Sec 6.4.1).
// Counting "instructions" exactly is host-specific; these constants
// approximate a scalar CPU: an attempt costs a handful of arithmetic
// ops plus an exp, an accepted flip additionally walks one dense row.
// They model the paper's scalar baseline, not this code: an attempt
// still counts its exp although the acceptance table pays one only per
// (β, ΔE).
const (
	instrPerAttempt   = 24 // field read, delta, exp, compare, RNG
	instrPerRowUpdate = 3  // load, fma, store per neighbour on accept
)

// Config parameterizes one annealing run.
type Config struct {
	// Sweeps is the number of full passes over all spins. Must be >= 1.
	Sweeps int
	// Beta is the inverse-temperature schedule over run progress.
	// Nil defaults to DefaultBeta.
	Beta sched.Schedule
	// Seed drives all stochastic choices; the same seed reproduces the
	// run exactly.
	Seed uint64
	// Initial optionally fixes the starting spins (copied, not
	// aliased). Nil starts from a random assignment drawn from Seed.
	Initial []int8
	// Ops, if non-nil, accumulates operation counts for the
	// first-principles analysis.
	Ops *metrics.OpCounter
	// Tracer, if non-nil, receives an EnergySample event per sweep
	// (the energy is already tracked incrementally, so this is free):
	// quality-vs-time traces hook in here.
	Tracer obs.Tracer
	// Metrics, if non-nil, accumulates run totals (sa.attempts,
	// sa.flips, sa.sweeps, sa.runs).
	Metrics *obs.Registry
}

// DefaultBeta is the β ramp used when Config.Beta is nil: a linear
// ramp from a hot start to a cold finish, the Isakov default shape.
var DefaultBeta sched.Schedule = sched.Linear{From: 0.1, To: 3}

// Result is the outcome of one annealing run.
type Result struct {
	Spins  []int8
	Energy float64
	// Attempts and Flips count Metropolis proposals and acceptances.
	// Each acceptance is one explored state (Sec 6.4.1 counts these).
	Attempts, Flips int64
	// Instructions is the modeled instruction count of the run.
	Instructions int64
	Wall         time.Duration
}

// InstructionsPerFlip returns the modeled cost of one state change,
// the quantity the paper reports as ≈140,000 for K800.
func (r *Result) InstructionsPerFlip() float64 {
	if r.Flips == 0 {
		return math.Inf(1)
	}
	return float64(r.Instructions) / float64(r.Flips)
}

// Solve runs simulated annealing with cached local fields. An accepted
// flip costs what the model's couplings store for that spin: the full
// row of a dense layout, the degree over compressed rows.
func Solve(m *ising.Model, cfg Config) *Result {
	res, _ := SolveCtx(context.Background(), m, cfg)
	return res
}

// SolveCtx is Solve with cancellation: the run stops at the next sweep
// boundary and returns the state reached so far alongside ctx.Err().
// The result is always non-nil and internally consistent.
func SolveCtx(ctx context.Context, m *ising.Model, cfg Config) (*Result, error) {
	return solve(ctx, m, cfg, rng.New(cfg.Seed))
}

// solve is SolveCtx drawing from r, which it leaves where the run's last
// draw did.
func solve(ctx context.Context, m *ising.Model, cfg Config, r *rng.Source) (*Result, error) {
	if cfg.Sweeps < 1 {
		panic(fmt.Sprintf("sa: Sweeps=%d", cfg.Sweeps))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	beta := cfg.Beta
	if beta == nil {
		beta = DefaultBeta
	}
	n := m.N()
	spins := cfg.Initial
	if spins == nil {
		spins = ising.RandomSpins(n, r)
	} else {
		if len(spins) != n {
			panic("sa: Initial length mismatch")
		}
		spins = ising.CopySpins(spins)
	}
	// The hot loop runs on the stored couplings directly: field build,
	// per-attempt delta and accepted-flip fanout, each in the
	// ascending-column accumulation every layout shares.
	lat := m.View(lattice.Auto)
	muH := m.MuH()
	fields := make([]float64, n)
	lattice.Fields(lat, spins, nil, fields, 1)
	energy := m.EnergyFromFields(spins, fields)

	// The modeled cost of an accepted flip is the field-update fanout:
	// what the layout touches — the full row when dense, the stored
	// entries over compressed rows.
	rowCost := func(int) int64 { return int64(n) * instrPerRowUpdate }
	if lat.Kind() == lattice.CSR {
		rowCost = func(i int) int64 { return int64(lat.RowNNZ(i)) * instrPerRowUpdate }
	}

	met := rng.NewMetropolis(n, 0)
	res := &Result{}
	start := time.Now()
	done := ctx.Done()
	sweepsDone := 0
	var runErr error
	for sweep := 0; sweep < cfg.Sweeps; sweep++ {
		select {
		case <-done:
			runErr = ctx.Err()
		default:
		}
		if runErr != nil {
			break
		}
		met.SetBeta(beta.At(float64(sweep) / float64(cfg.Sweeps)))
		for i := 0; i < n; i++ {
			res.Attempts++
			delta := lattice.FlipDelta(spins, fields, i, muH[i])
			if met.Accept(r, delta) {
				old := float64(spins[i])
				spins[i] = -spins[i]
				lat.FlipFanout(fields, i, -2*old)
				energy += delta
				res.Flips++
				res.Instructions += rowCost(i)
			}
			res.Instructions += instrPerAttempt
		}
		sweepsDone++
		if cfg.Tracer != nil {
			cfg.Tracer.Emit(obs.Event{Kind: obs.EnergySample,
				Epoch: sweep + 1, Value: energy})
		}
	}
	res.Wall = time.Since(start)
	res.Spins = spins
	res.Energy = energy
	if cfg.Ops != nil {
		cfg.Ops.Add("sa.attempts", res.Attempts)
		cfg.Ops.Add("sa.flips", res.Flips)
		cfg.Ops.Add("sa.instructions", res.Instructions)
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("sa.runs").Inc()
		cfg.Metrics.Counter("sa.sweeps").Add(int64(sweepsDone))
		cfg.Metrics.Counter("sa.attempts").Add(res.Attempts)
		cfg.Metrics.Counter("sa.flips").Add(res.Flips)
	}
	return res, runErr
}

// SolveNaive runs the same Metropolis process but recomputes the full
// energy for every proposal — the O(N²)-per-sweep strawman that the
// dense local-field representation replaces. It exists for the
// ablation bench; never use it for real work.
func SolveNaive(m *ising.Model, cfg Config) *Result {
	if cfg.Sweeps < 1 {
		panic(fmt.Sprintf("sa: Sweeps=%d", cfg.Sweeps))
	}
	beta := cfg.Beta
	if beta == nil {
		beta = DefaultBeta
	}
	r := rng.New(cfg.Seed)
	n := m.N()
	spins := cfg.Initial
	if spins == nil {
		spins = ising.RandomSpins(n, r)
	} else {
		spins = ising.CopySpins(spins)
	}
	energy := m.Energy(spins)
	met := rng.NewMetropolis(n, 0)
	res := &Result{}
	start := time.Now()
	for sweep := 0; sweep < cfg.Sweeps; sweep++ {
		met.SetBeta(beta.At(float64(sweep) / float64(cfg.Sweeps)))
		for i := 0; i < n; i++ {
			res.Attempts++
			spins[i] = -spins[i]
			proposed := m.Energy(spins)
			delta := proposed - energy
			if met.Accept(r, delta) {
				energy = proposed
				res.Flips++
			} else {
				spins[i] = -spins[i]
			}
			res.Instructions += int64(n)*instrPerRowUpdate + instrPerAttempt
		}
	}
	res.Wall = time.Since(start)
	res.Spins = spins
	res.Energy = energy
	return res
}

// SolveBatch anneals runs times, at seeds Seed, Seed+1, …, and keeps the
// best: metrics.BestOf over sequential runs.
func SolveBatch(m *ising.Model, cfg Config, runs int) *metrics.Batch[*Result] {
	br, _ := SolveBatchCtx(context.Background(), m, cfg, runs)
	return br
}

// SolveBatchCtx is SolveBatch with cancellation: it stops at the run the
// cancellation cut short, keeping it, and returns ctx.Err().
func SolveBatchCtx(ctx context.Context, m *ising.Model, cfg Config, runs int) (*metrics.Batch[*Result], error) {
	return metrics.BestOf(runs, cfg.Seed, func(r *Result) float64 { return r.Energy },
		func(_ int, seed uint64) (*Result, error) {
			cfg.Seed = seed
			return SolveCtx(ctx, m, cfg)
		})
}
