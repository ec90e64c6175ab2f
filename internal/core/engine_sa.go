package core

import (
	"context"
	"time"

	"mbrim/internal/sa"
)

// saEngine adapts internal/sa to the registry: sa.SolveBatchCtx's Runs
// anneals at consecutive seeds, best energy wins, attempts and flips
// accumulate over every run, the one a cancellation cut short included.
type saEngine struct{}

func init() { Register(saEngine{}) }

func (saEngine) Kind() Kind { return SA }

func (saEngine) Capabilities() Capabilities {
	return Capabilities{
		WarmStart:   true,
		Description: "simulated annealing (Isakov-style), best of Runs restarts",
	}
}

func (saEngine) Solve(ctx context.Context, r *Request) (*Outcome, error) {
	if len(r.Resume) > 0 {
		if err := r.applyWarmStart(); err != nil {
			return nil, err
		}
	}
	out := r.NewOutcome()
	start := time.Now()
	br, rerr := sa.SolveBatchCtx(ctx, r.Model, sa.Config{Sweeps: r.Sweeps, Seed: r.Seed,
		Initial: r.Initial, Tracer: r.Tracer, Metrics: r.Metrics}, r.Runs)
	out.Spins, out.Energy = br.Best.Spins, br.Best.Energy
	for _, res := range br.Results {
		out.Stats["attempts"] += float64(res.Attempts)
		out.Stats["flips"] += float64(res.Flips)
	}
	if rerr != nil {
		return r.Interrupted(out, start, rerr, nil)
	}
	r.Finish(out, start)
	return out, nil
}
