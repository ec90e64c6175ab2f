package main

import (
	"flag"

	"mbrim/internal/brim"
	"mbrim/internal/metrics"
	"mbrim/internal/sa"
)

func init() {
	register("firstprinciples", "Sec 6.4.1: states explored, instructions per flip, flip cadence", runFirstPrinciples)
}

// runFirstPrinciples reproduces the Sec 6.4.1 analysis on a K-graph:
// how many states each solver explores to reach comparable quality,
// SA's modeled instruction cost per flip (the paper counts ~140,000
// for K800), and BRIM's average time between spin flips (the paper's
// ~20 ps for K800; here in the simulator's ns time base).
func runFirstPrinciples(args []string) (*figure, error) {
	fs := flag.NewFlagSet("firstprinciples", flag.ContinueOnError)
	n := fs.Int("n", 256, "K-graph size (paper: 800)")
	sweeps := fs.Int("sweeps", 400, "SA sweeps")
	duration := fs.Float64("duration", 300, "BRIM duration, ns")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	g, m := kgraph(*n, *seed)

	ops := metrics.NewOpCounter()
	saRes := sa.Solve(m, sa.Config{Sweeps: *sweeps, Seed: *seed, Ops: ops})
	brimRes := brim.Solve(m, brim.SolveConfig{Duration: *duration, Config: brim.Config{Seed: *seed}})

	f := &figure{}
	f.printf("# Sec 6.4.1 first principles, K%d\n", *n)
	f.printf("SA:   states explored (accepted flips): %d of %d attempts\n", saRes.Flips, saRes.Attempts)
	f.printf("SA:   modeled instructions: %d (%.0f per flip)\n", saRes.Instructions, saRes.InstructionsPerFlip())
	f.printf("SA:   wall time: %v (%.0f ns per flip)\n", saRes.Wall,
		float64(saRes.Wall.Nanoseconds())/float64(max(saRes.Flips, 1)))
	f.printf("SA:   final cut: %.0f\n", g.CutValue(saRes.Spins))
	f.printf("BRIM: states explored (spin flips): %d (%d induced)\n", brimRes.Flips, brimRes.Induced)
	f.printf("BRIM: model time: %.0f ns (%.3f ns between flips)\n", brimRes.ModelNS,
		brimRes.ModelNS/float64(max(brimRes.Flips, 1)))
	f.printf("BRIM: final cut: %.0f\n", g.CutValue(brimRes.Spins))

	if brimRes.Flips > 0 && saRes.Flips > 0 {
		saNSPerFlip := float64(saRes.Wall.Nanoseconds()) / float64(saRes.Flips)
		brimNSPerFlip := brimRes.ModelNS / float64(brimRes.Flips)
		f.set("per-state speed advantage", saNSPerFlip/brimNSPerFlip)
		f.note("per-state-explored speed advantage of the physical machine: %.0fx.",
			saNSPerFlip/brimNSPerFlip)
		f.note("matching BRIM's flip cadence in software would need ~%.1f G instr/s × %.0f = %.2f P instr/s.",
			1/brimNSPerFlip, saRes.InstructionsPerFlip(),
			saRes.InstructionsPerFlip()/brimNSPerFlip/1e6)
	}
	f.note("expected shape (paper, K800): SA explored ~148K states vs BRIM's ~115K for")
	f.note("comparable quality — similar exploration volumes — but SA pays ~140,000")
	f.note("instructions per flip while BRIM flips every ~20 ps, which is why matching it")
	f.note("computationally needs ~2 Peta-ops/s (Sec 6.4.1).")
	return f, nil
}
