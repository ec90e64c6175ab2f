package portfolio

import (
	"fmt"
	"testing"

	"mbrim/internal/core"
	"mbrim/internal/embed"
	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/rng"
)

// BenchmarkRace is the racing-overhead A/B: for each
// problem structure, the a-posteriori best solo engine (the thing a
// clairvoyant caller would have run) against the heterogeneous race
// with the target fixed at that engine's deterministic final energy.
// The race's winner reproduces the solo trajectory seed for seed, so
// the delta is pure racing overhead: the losers' burnt core time until
// the crossing cancels them, plus the fan-out/merge machinery. On a
// 1-vCPU host the entrants time-slice one core, which makes this the
// worst case — with one core per entrant the overhead is the merge
// alone.
func BenchmarkRace(b *testing.B) {
	dense := graph.Complete(64, rng.New(3)).ToIsing()
	logical := graph.Complete(16, rng.New(4)).ToIsing()
	sparse := embed.Complete(logical, 0).Physical

	for _, prob := range []struct {
		name string
		m    *ising.Model
		solo core.Kind
	}{
		{"dense-K64", dense, core.DSBM},
		{"crossbar-K16", sparse, core.Tabu},
	} {
		base := core.Request{Model: prob.m, Seed: 3, Sweeps: 200, Steps: 2000, Runs: 1}

		soloReq := base
		soloReq.Kind = prob.solo
		ref, err := core.Solve(soloReq)
		if err != nil {
			b.Fatal(err)
		}
		target := ref.Energy

		b.Run(fmt.Sprintf("%s/solo-%s", prob.name, prob.solo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(soloReq); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(prob.name+"/race", func(b *testing.B) {
			req := base
			req.Kind = core.Portfolio
			req.Portfolio = core.PortfolioSpec{TargetEnergy: &target}
			for i := 0; i < b.N; i++ {
				out, err := core.Solve(req)
				if err != nil {
					b.Fatal(err)
				}
				if out.Energy > target {
					b.Fatalf("race missed the target: %v > %v", out.Energy, target)
				}
			}
		})
	}
}
