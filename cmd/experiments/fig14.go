package main

import (
	"flag"

	"mbrim/internal/metrics"
	"mbrim/internal/multichip"
)

func init() {
	register("fig14", "solution quality vs epoch size: concurrent vs batch", runFig14)
}

// runFig14 reproduces Fig 14: average MaxCut quality as a function of
// epoch size for both operating modes. Concurrent mode degrades as
// epochs grow (global-state ignorance builds up); batch mode, whose
// epochs create no ignorance, degrades only slightly.
func runFig14(args []string) (*figure, error) {
	fs := flag.NewFlagSet("fig14", flag.ContinueOnError)
	n := fs.Int("n", 512, "K-graph size")
	chips := fs.Int("chips", 4, "number of chips")
	duration := fs.Float64("duration", 200, "annealing time, ns")
	runs := fs.Int("runs", 4, "averaging runs per point (and batch jobs)")
	seed := fs.Uint64("seed", 1, "random seed")
	tracePath := traceFlag(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	tracer, closeTrace, err := openTrace(*tracePath)
	if err != nil {
		return nil, err
	}
	defer closeTrace()
	g, m := kgraph(*n, *seed)

	conc := &metrics.Series{Name: "concurrent mode (avg cut)"}
	batch := &metrics.Series{Name: "batch mode (avg best cut)"}
	epochs := []float64{1, 2, 3.3, 5, 8, 12, 20, 33, 50}
	for _, e := range epochs {
		var cSum, bSum float64
		for r := 0; r < *runs; r++ {
			s := uint64(int(*seed) + r*101)
			cRes := multichip.MustSystem(m, multichip.Config{
				Chips: *chips, EpochNS: e, Seed: s, Parallel: true, Tracer: tracer,
			}).RunConcurrent(*duration)
			cSum += g.CutFromEnergy(cRes.Energy)
			bRes := multichip.MustSystem(m, multichip.Config{
				Chips: *chips, EpochNS: e, Seed: s, Parallel: true, Tracer: tracer,
			}).RunBatch(*runs, *duration)
			bSum += g.CutFromEnergy(bRes.BestEnergy)
		}
		conc.Add(e, cSum/float64(*runs))
		batch.Add(e, bSum/float64(*runs))
	}

	f := &figure{}
	f.table("Fig 14: average cut vs epoch size (ns)", conc, batch)
	first, last := conc.Points[0].Y, conc.Points[len(conc.Points)-1].Y
	bFirst, bLast := batch.Points[0].Y, batch.Points[len(batch.Points)-1].Y
	drop, bDrop := 100*(first-last)/first, 100*(bFirst-bLast)/bFirst
	f.set("concurrent drop %", drop)
	f.set("batch drop %", bDrop)
	f.note("concurrent: %.0f at %.1f ns epochs -> %.0f at %.0f ns (drop %.1f%%).",
		first, epochs[0], last, epochs[len(epochs)-1], drop)
	f.note("batch:      %.0f -> %.0f (drop %.1f%%).", bFirst, bLast, bDrop)
	f.note("expected shape (paper): best quality is concurrent mode at small epochs; its")
	f.note("quality falls quickly and significantly with epoch size, while batch mode's")
	f.note("reduces only very slightly — making batch the mode of choice when bandwidth")
	f.note("constraints force long epochs.")
	return f, nil
}
