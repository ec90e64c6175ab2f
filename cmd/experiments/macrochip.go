package main

import (
	"flag"
	"fmt"

	"mbrim/internal/brim"
	"mbrim/internal/metrics"
	"mbrim/internal/multichip"
)

func init() {
	register("macrochip", "Sec 5.4.1: monolithic vs concurrent vs sequential multiprocessor quality", runMacrochip)
}

// runMacrochip tests the architectural-equivalence claims around the
// macrochip discussion: a short-epoch concurrent multiprocessor should
// match (a) a monolithic machine of the same total capacity — the
// macrochip it digitally replaces — and (b) the zero-ignorance
// sequential baseline, while being chips× faster than the latter.
func runMacrochip(args []string) (*figure, error) {
	fs := flag.NewFlagSet("macrochip", flag.ContinueOnError)
	n := fs.Int("n", 256, "K-graph size")
	chips := fs.Int("chips", 4, "number of chips")
	duration := fs.Float64("duration", 150, "annealing time, ns")
	runs := fs.Int("runs", 5, "averaging runs")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	g, m := kgraph(*n, *seed)

	type row struct {
		name              string
		avgCut, elapsedNS float64
	}
	var rows []row
	add := func(name string, cut, elapsed float64) {
		rows = append(rows, row{name, cut, elapsed})
	}

	var monoSum, concSum, seqSum, concElapsed, seqElapsed float64
	for i := 0; i < *runs; i++ {
		s := *seed + uint64(100*i)
		mono := brim.Solve(m, brim.SolveConfig{Duration: *duration, Config: brim.Config{Seed: s}})
		monoSum += g.CutFromEnergy(mono.Energy)

		conc := multichip.MustSystem(m, multichip.Config{
			Chips: *chips, Seed: s, EpochNS: 1, Parallel: true,
		}).RunConcurrent(*duration)
		concSum += g.CutFromEnergy(conc.Energy)
		concElapsed += conc.ElapsedNS

		seq := multichip.MustSystem(m, multichip.Config{
			Chips: *chips, Seed: s, EpochNS: 1,
		}).RunSequential(*duration)
		seqSum += g.CutFromEnergy(seq.Energy)
		seqElapsed += seq.ElapsedNS
	}
	r := float64(*runs)
	add("monolithic macrochip (1 big machine)", monoSum/r, *duration)
	add(fmt.Sprintf("%d-chip concurrent, 1 ns epochs", *chips), concSum/r, concElapsed/r)
	add(fmt.Sprintf("%d-chip sequential (zero ignorance)", *chips), seqSum/r, seqElapsed/r)

	f := &figure{}
	f.set("monolithic cut", monoSum/r)
	f.set("concurrent cut", concSum/r)
	f.set("sequential cut", seqSum/r)
	f.set("concurrent elapsed ns", concElapsed/r)
	f.set("sequential elapsed ns", seqElapsed/r)
	f.set("chips", float64(*chips))
	series := &metrics.Series{Name: "avg cut (x = elapsed ns)"}
	f.printf("# Macrochip equivalence on K%d (%d runs averaged)\n", *n, *runs)
	for _, row := range rows {
		f.printf("%-42s cut %8.0f  elapsed %8.0f ns\n", row.name, row.avgCut, row.elapsedNS)
		series.Add(row.elapsedNS, row.avgCut)
	}
	f.table("macrochip comparison", series)
	f.note("expected (Sec 5.4.1): all three land at comparable quality; the concurrent")
	f.note("multiprocessor matches the monolithic machine's speed while the sequential")
	f.note("baseline pays %dx elapsed time for the same annealing.", *chips)
	return f, nil
}
