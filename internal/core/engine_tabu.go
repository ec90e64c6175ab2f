package core

import (
	"context"
	"time"

	"mbrim/internal/tabu"
)

// tabuEngine adapts internal/tabu: tabu.SolveBatchCtx's Runs restarts at
// consecutive seeds, MaxIters scaled as Sweeps × N, the warm start
// applying to the first restart only.
type tabuEngine struct{}

func init() { Register(tabuEngine{}) }

func (tabuEngine) Kind() Kind { return Tabu }

func (tabuEngine) Capabilities() Capabilities {
	return Capabilities{
		WarmStart:   true,
		Description: "tabu search, best of Runs restarts (MaxIters = Sweeps × N)",
	}
}

func (tabuEngine) Solve(ctx context.Context, r *Request) (*Outcome, error) {
	out := r.NewOutcome()
	start := time.Now()
	br, rerr := tabu.SolveBatchCtx(ctx, r.Model, tabu.Config{MaxIters: r.Sweeps * r.Model.N(), Seed: r.Seed, Initial: r.Initial}, r.Runs)
	out.Spins, out.Energy = br.Best.Spins, br.Best.Energy
	if rerr != nil {
		return r.Interrupted(out, start, rerr, nil)
	}
	r.Finish(out, start)
	return out, nil
}
