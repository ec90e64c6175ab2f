package core

import (
	"context"
	"fmt"
	"time"

	"mbrim/internal/brim"
)

// brimEngine adapts the single-chip BRIM (RK4 dynamics): a batch of
// Runs anneals, model time and flips accumulated across the batch,
// divergence surfacing as a typed error rather than an interrupt.
type brimEngine struct{}

func init() { Register(brimEngine{}) }

func (brimEngine) Kind() Kind { return BRIM }

func (brimEngine) Capabilities() Capabilities {
	return Capabilities{
		WarmStart:   true,
		Spans:       true,
		Traced:      true,
		ModelTime:   true,
		Description: "single-chip BRIM (RK4 coupled-oscillator dynamics), best of Runs anneals",
	}
}

func (brimEngine) Solve(ctx context.Context, r *Request) (*Outcome, error) {
	out := r.NewOutcome()
	start := time.Now()
	br, rerr := brim.SolveBatchCtx(ctx, r.Model, brim.SolveConfig{
		Duration:       r.DurationNS,
		SampleInterval: r.SampleEveryNS,
		Initial:        r.Initial,
		Config:         brim.Config{Seed: r.Seed},
		Tracer:         r.Tracer,
		Metrics:        r.Metrics,
		Spans:          r.spans,
		SpanParent:     r.rootSpan,
	}, r.Runs)
	out.Spins, out.Energy = br.Best.Spins, br.Best.Energy
	out.Trace = br.Best.Trace
	for _, res := range br.Results {
		out.ModelNS += res.ModelNS
		out.Stats["flips"] += float64(res.Flips)
	}
	if rerr != nil {
		if isCtxErr(rerr) {
			return r.Interrupted(out, start, rerr, nil)
		}
		return nil, fmt.Errorf("core: %s: %w", r.Kind, rerr)
	}
	r.Finish(out, start)
	return out, nil
}
