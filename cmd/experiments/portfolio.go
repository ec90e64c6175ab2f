package main

import (
	"flag"
	"fmt"
	"time"

	"mbrim/internal/core"
	"mbrim/internal/embed"
	"mbrim/internal/ising"
	"mbrim/internal/portfolio"
)

func init() {
	register("portfolio", "heterogeneous race (HETRI) vs solo engines on dense and embedded structures", runPortfolio)
}

// runPortfolio demonstrates the portfolio engine's two claims on two
// structurally opposite problems — a dense K-graph and a sparse,
// irregular chimera-embedded complete graph:
//
//  1. racing heterogeneous engines to a fixed target is never slower
//     than the *a-priori-unknown* best solo engine by more than the
//     racing overhead, and beats committing to the wrong one, and
//  2. the structure dispatcher fields a sensible lineup from row
//     statistics alone (density, degree CV) when no entrants are named.
func runPortfolio(args []string) error {
	fs := flag.NewFlagSet("portfolio", flag.ContinueOnError)
	n := fs.Int("n", 96, "K-graph size (the dense problem)")
	en := fs.Int("en", 20, "logical size of the chimera-embedded problem")
	sweeps := fs.Int("sweeps", 400, "SA/tabu sweep budget")
	steps := fs.Int("steps", 4000, "SBM step budget")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	_, dense := kgraph(*n, *seed)
	logical, _ := kgraph(*en, *seed+1)
	emb := embed.CompleteOnChimera(logical.ToIsing(), 4, 0)

	fmt.Println("# heterogeneous portfolio (HETRI mode): race vs solo commitment")
	for _, prob := range []struct {
		name string
		m    *ising.Model
	}{
		{fmt.Sprintf("dense K%d", *n), dense},
		{fmt.Sprintf("chimera-embedded K%d (%d physical)", *en, emb.Physical.N()), emb.Physical},
	} {
		stats := portfolio.Analyze(prob.m)
		field := portfolio.Dispatch(stats, 0)
		fmt.Printf("\n## problem: %s — n=%d nnz=%d density=%.3f degreeCV=%.2f\n",
			prob.name, stats.N, stats.NNZ, stats.Density, stats.DegreeCV)
		names := ""
		for i, e := range field {
			if i > 0 {
				names += ","
			}
			names += e.Kind
		}
		fmt.Printf("## dispatcher field: %s\n", names)

		// Solo baselines: what committing to one engine costs.
		base := core.Request{Model: prob.m, Seed: *seed,
			Sweeps: *sweeps, Steps: *steps, Runs: 1}
		best := 0.0
		fmt.Printf("%-10s %14s %12s %s\n", "engine", "energy", "wall", "note")
		for _, ent := range field {
			req := base
			req.Kind = core.Kind(ent.Kind)
			out, err := core.Solve(req)
			if err != nil {
				return fmt.Errorf("solo %s: %w", ent.Kind, err)
			}
			if out.Energy < best {
				best = out.Energy
			}
			fmt.Printf("%-10s %14.1f %12s solo\n", ent.Kind, out.Energy, out.Wall.Round(time.Microsecond))
		}

		// The race: same field, first to the best solo energy wins.
		req := base
		req.Kind = core.Portfolio
		target := best
		req.Portfolio = core.PortfolioSpec{TargetEnergy: &target}
		out, err := core.Solve(req)
		if err != nil {
			return fmt.Errorf("portfolio: %w", err)
		}
		p := out.Portfolio
		how := "best at end"
		if p.HitTarget {
			how = "first to target"
		}
		fmt.Printf("%-10s %14.1f %12s race: %s won (%s), %d/%d cancelled\n",
			"portfolio", out.Energy, out.Wall.Round(time.Microsecond),
			p.WinnerKind, how, int(out.Stats["entrantsInterrupted"]), len(p.Entrants))
		for _, e := range p.Entrants {
			state := "finished"
			if e.Interrupted {
				state = "cancelled"
			}
			if e.Err != "" {
				state = "failed"
			}
			fmt.Printf("           e%d %-8s energy %.1f  wall %s  %s\n",
				e.Index, e.Kind, e.Energy, time.Duration(e.WallNS).Round(time.Microsecond), state)
		}
	}
	note("the race's wall time tracks the winning entrant, not the sum of the field —")
	note("losers are cancelled at their next barrier once the target is crossed. On a")
	note("single vCPU the entrants time-slice one core, so solo walls undercount the")
	note("racing overhead; BenchmarkRace in internal/portfolio is the interleaved A/B.")
	return nil
}
