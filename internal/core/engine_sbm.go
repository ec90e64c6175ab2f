package core

import (
	"context"
	"time"

	"mbrim/internal/sbm"
)

// sbmEngine adapts internal/sbm; one registration per variant (bSBM
// ballistic, dSBM discrete) so each is a first-class registry entry. The
// best-of-Runs restarts are sbm.SolveBatchCtx's.
type sbmEngine struct {
	kind    Kind
	variant sbm.Variant
	desc    string
}

func init() {
	Register(sbmEngine{kind: BSBM, variant: sbm.Ballistic,
		desc: "ballistic simulated bifurcation, best of Runs restarts"})
	Register(sbmEngine{kind: DSBM, variant: sbm.Discrete,
		desc: "discrete simulated bifurcation, best of Runs restarts"})
}

func (e sbmEngine) Kind() Kind { return e.kind }

func (e sbmEngine) Capabilities() Capabilities {
	return Capabilities{
		Description: e.desc,
	}
}

func (e sbmEngine) Solve(ctx context.Context, r *Request) (*Outcome, error) {
	out := r.NewOutcome()
	start := time.Now()
	br, rerr := sbm.SolveBatchCtx(ctx, r.Model, sbm.Config{Variant: e.variant, Steps: r.Steps,
		Seed: r.Seed, Tracer: r.Tracer, Metrics: r.Metrics}, r.Runs)
	out.Spins, out.Energy = br.Best.Spins, br.Best.Energy
	if rerr != nil {
		return r.Interrupted(out, start, rerr, nil)
	}
	r.Finish(out, start)
	return out, nil
}
