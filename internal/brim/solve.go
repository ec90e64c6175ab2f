package brim

import (
	"context"
	"fmt"

	"mbrim/internal/ising"
	"mbrim/internal/metrics"
	"mbrim/internal/obs"
)

// Result is the outcome of a complete single-chip annealing run.
type Result struct {
	Spins  []int8
	Energy float64
	// ModelNS is the machine time spent, in nanoseconds.
	ModelNS float64
	// Flips counts readout sign changes; Induced the subset caused by
	// annealing kicks; Steps the RK4 steps taken.
	Flips, Induced, Steps int64
	// StepRetries counts the numerical guardrail's halved-step retries.
	StepRetries int64
	// Trace, if sampling was requested, holds (model time ns, energy)
	// samples of the digital readout over the run.
	Trace []metrics.Point
}

// SolveConfig extends Config with run-level parameters.
type SolveConfig struct {
	Config
	// Duration is the total annealing time in ns. Must be > 0.
	Duration float64
	// SampleInterval, if > 0, records an energy sample of the readout
	// every so many ns into Result.Trace.
	SampleInterval float64
	// Initial optionally warm-starts the machine at the given spins.
	Initial []int8
	// Tracer, if non-nil, receives an EnergySample event per trace
	// sample (requires SampleInterval > 0). Nil disables tracing.
	Tracer obs.Tracer
	// Metrics, if non-nil, accumulates run totals (brim.steps,
	// brim.flips, brim.induced_flips, brim.step_retries, brim.runs).
	Metrics *obs.Registry
	// Spans, if non-nil, records the run as a "brim_run" interval under
	// SpanParent, with one "rk4_retry" child interval per guardrail
	// retry burst. Emission happens at run boundaries only and never
	// perturbs the trajectory.
	Spans *obs.Spanner
	// SpanParent is the enclosing interval (zero = root).
	SpanParent obs.Span
}

// Solve runs one annealing job on a fresh machine and reports the
// final readout, its energy, and the machine-time ledger. It panics on
// integrator divergence; callers that need the typed error use
// SolveCtx.
func Solve(m *ising.Model, cfg SolveConfig) *Result {
	res, err := SolveCtx(context.Background(), m, cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// SolveCtx is Solve with lifecycle control. Cancellation stops the run
// at the next flip-interval (or sample) boundary and returns the
// partial best-effort result alongside ctx.Err(); integrator
// divergence returns the last stable state alongside a
// *DivergenceError. The result is always non-nil and internally
// consistent.
func SolveCtx(ctx context.Context, m *ising.Model, cfg SolveConfig) (*Result, error) {
	return solve(ctx, m, cfg, 0)
}

// solve is SolveCtx with the run's intervals shifted by offsetNS on the
// trace timeline: a batch lays its runs end to end, since each
// machine's own model clock starts at zero.
func solve(ctx context.Context, m *ising.Model, cfg SolveConfig, offsetNS float64) (*Result, error) {
	if cfg.Duration <= 0 {
		panic(fmt.Sprintf("brim: Duration=%v", cfg.Duration))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ma := New(m, cfg.Config)
	ma.SetHorizon(cfg.Duration)
	if cfg.Initial != nil {
		ma.SetSpins(cfg.Initial)
	}
	var runSpan obs.Span
	if cfg.Spans != nil {
		runSpan = cfg.Spans.Start("brim_run", cfg.SpanParent, -1, offsetNS)
		ma.SetRetryLog(true)
	}
	res := &Result{}
	var runErr error
	if cfg.SampleInterval > 0 {
		for t := 0.0; t < cfg.Duration && runErr == nil; t += cfg.SampleInterval {
			chunk := cfg.SampleInterval
			if t+chunk > cfg.Duration {
				chunk = cfg.Duration - t
			}
			runErr = ma.RunCtx(ctx, chunk)
			if runErr != nil {
				break
			}
			en := m.Energy(ma.Spins())
			res.Trace = append(res.Trace, metrics.Point{
				X: ma.Time(),
				Y: en,
			})
			if cfg.Tracer != nil {
				cfg.Tracer.Emit(obs.Event{Kind: obs.EnergySample,
					ModelNS: ma.Time(), Value: en})
			}
		}
	} else {
		runErr = ma.RunCtx(ctx, cfg.Duration)
	}
	res.Spins = ising.CopySpins(ma.Spins())
	res.Energy = m.Energy(res.Spins)
	res.ModelNS = ma.Time()
	res.Flips = ma.Flips()
	res.Induced = ma.InducedFlips()
	res.Steps = ma.Steps()
	res.StepRetries = ma.StepRetries()
	if cfg.Spans != nil {
		for _, rr := range ma.TakeRetryLog() {
			cfg.Spans.Complete("rk4_retry", runSpan, -1,
				offsetNS+rr.TimeNS, 0, 0, &obs.Event{Count: int64(rr.Retries), Aux: rr.FinalDt})
		}
		runSpan.End(offsetNS+ma.Time(), &obs.Event{Count: res.Flips})
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("brim.runs").Inc()
		cfg.Metrics.Counter("brim.steps").Add(res.Steps)
		cfg.Metrics.Counter("brim.flips").Add(res.Flips)
		cfg.Metrics.Counter("brim.induced_flips").Add(res.Induced)
		cfg.Metrics.Counter("brim.step_retries").Add(res.StepRetries)
	}
	return res, runErr
}

// SolveBatchCtx runs `runs` annealing jobs from different seeds on one
// machine design and keeps the best (metrics.BestOf). Model time
// accumulates across runs, which lie end to end on the span timeline: a
// single chip performs the batch sequentially, which is exactly the
// baseline batch mode is measured against. Cancellation or divergence
// stops the batch at the run it cut short.
func SolveBatchCtx(ctx context.Context, m *ising.Model, cfg SolveConfig, runs int) (*metrics.Batch[*Result], error) {
	offset := 0.0
	return metrics.BestOf(runs, cfg.Seed, func(r *Result) float64 { return r.Energy },
		func(_ int, seed uint64) (*Result, error) {
			cfg.Seed = seed
			res, err := solve(ctx, m, cfg, offset)
			offset += res.ModelNS
			return res, err
		})
}
