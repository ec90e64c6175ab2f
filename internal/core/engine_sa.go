package core

import (
	"context"
	"time"

	"mbrim/internal/sa"
)

// saEngine adapts internal/sa to the registry. The loop semantics are
// the pre-registry dispatch verbatim: Runs independent anneals at
// consecutive seeds, best energy wins, attempts/flips accumulate.
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
	var best *sa.Result
	var attempts, flips float64
	for i := 0; i < r.Runs; i++ {
		res, rerr := sa.SolveCtx(ctx, r.Model, sa.Config{Sweeps: r.Sweeps,
			Seed: r.Seed + uint64(i), Initial: r.Initial,
			Tracer: r.Tracer, Metrics: r.Metrics})
		attempts += float64(res.Attempts)
		flips += float64(res.Flips)
		if best == nil || res.Energy < best.Energy {
			best = res
		}
		if rerr != nil {
			out.Spins, out.Energy = best.Spins, best.Energy
			out.Stats["attempts"], out.Stats["flips"] = attempts, flips
			return r.Interrupted(out, start, rerr, nil)
		}
	}
	out.Spins, out.Energy = best.Spins, best.Energy
	out.Stats["attempts"] = attempts
	out.Stats["flips"] = flips
	r.Finish(out, start)
	return out, nil
}
