package main

import (
	"flag"
	"fmt"
	"time"

	"mbrim/internal/brim"
	"mbrim/internal/graph"
	"mbrim/internal/rng"
	"mbrim/internal/sa"
	"mbrim/internal/sbm"
)

func init() {
	register("suite", "benchmark suite: every solver class over a standard instance set", runSuite)
}

// suiteInstance is one named workload.
type suiteInstance struct {
	name string
	g    *graph.Graph
}

// standardSuite mirrors the instance families of the MaxCut
// literature: dense K-graphs across sizes plus sparse Gset-style
// random and near-regular graphs.
func standardSuite(seed uint64) []suiteInstance {
	return []suiteInstance{
		{"K64", graph.Complete(64, rng.New(seed))},
		{"K128", graph.Complete(128, rng.New(seed+1))},
		{"K256", graph.Complete(256, rng.New(seed+2))},
		{"G500_0.02", graph.Random(500, 0.02, rng.New(seed+3))},
		{"G1000_0.01", graph.Random(1000, 0.01, rng.New(seed+4))},
		{"R400_d6", graph.RandomRegularish(400, 6, rng.New(seed+5))},
	}
}

// runSuite runs SA, dSBM and BRIM over the standard suite and prints a
// results matrix — the regression table an open-source release tracks
// across versions.
func runSuite(args []string) error {
	fs := flag.NewFlagSet("suite", flag.ContinueOnError)
	runs := fs.Int("runs", 5, "restarts per solver per instance")
	sweeps := fs.Int("sweeps", 300, "SA sweeps")
	steps := fs.Int("steps", 800, "dSBM steps")
	duration := fs.Float64("duration", 150, "BRIM anneal, ns")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmt.Printf("%-12s %6s %8s | %10s %12s | %10s %12s | %10s %12s\n",
		"instance", "n", "m", "SA cut", "SA time", "dSBM cut", "dSBM time", "BRIM cut", "model ns")
	for _, inst := range standardSuite(*seed) {
		m := inst.g.ToIsing()

		saBest, saWall := 0.0, time.Duration(0)
		for r := 0; r < *runs; r++ {
			res := sa.Solve(m, sa.Config{Sweeps: *sweeps, Seed: *seed + uint64(r)})
			saWall += res.Wall
			if cut := inst.g.CutValue(res.Spins); cut > saBest {
				saBest = cut
			}
		}

		dsbBest, dsbWall := 0.0, time.Duration(0)
		for r := 0; r < *runs; r++ {
			res := sbm.Solve(m, sbm.Config{Variant: sbm.Discrete, Steps: *steps, Seed: *seed + uint64(r)})
			dsbWall += res.Wall
			if cut := inst.g.CutValue(res.Spins); cut > dsbBest {
				dsbBest = cut
			}
		}

		brimBest := 0.0
		for r := 0; r < *runs; r++ {
			res := brim.Solve(m, brim.SolveConfig{Duration: *duration,
				Config: brim.Config{Seed: *seed + uint64(r)}})
			if cut := inst.g.CutFromEnergy(res.Energy); cut > brimBest {
				brimBest = cut
			}
		}

		fmt.Printf("%-12s %6d %8d | %10.0f %12v | %10.0f %12v | %10.0f %12.0f\n",
			inst.name, inst.g.N(), inst.g.M(),
			saBest, saWall, dsbBest, dsbWall, brimBest, *duration*float64(*runs))
	}
	note("times are whole-batch: SA/dSBM measured host time, BRIM accumulated model ns.")
	note("the regression target: BRIM within a few %% of the software solvers' best cut")
	note("on every family, at 4-6 orders of magnitude less (machine) time.")
	return nil
}
