package main

import (
	"flag"
	"fmt"
	"maps"
	"slices"

	"mbrim/internal/brim"
	"mbrim/internal/metrics"
	"mbrim/internal/pt"
	"mbrim/internal/sbm"
)

func init() {
	register("fig11", "single-solver landscape: K-graph cut vs time across machines", runFig11)
}

// Literature reference points for K2000, taken from the papers the
// figure cites. Only meaningful when the benchmark is the real K2000.
var fig11Literature = []struct {
	name   string
	timeNS float64
	cut    float64
}{
	{"CIM [28] (reported)", 5e6, 33000},
	{"STATICA [54] (reported)", 0.6e6, 32000},
	{"bSBM [22] (reported)", 0.5e6, 33000},
	{"dSBM [22] (reported)", 2e6, 33337},
	{"BRIM model [3] (reported)", 11e3, 33337},
}

// runFig11 reproduces Fig 11: the cut-vs-time landscape of a K-graph
// on a single BRIM chip (model time), SA and both SBM variants
// (measured wall time), plus the literature's reported points.
func runFig11(args []string) (*figure, error) {
	fs := flag.NewFlagSet("fig11", flag.ContinueOnError)
	n := fs.Int("n", 512, "K-graph size (paper: 2000)")
	runs := fs.Int("runs", 10, "restarts per time scale (paper: 100)")
	duration := fs.Float64("duration", 400, "BRIM anneal duration, ns")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	g, m := kgraph(*n, *seed)

	// BRIM: one chip, quality-vs-model-time trace, best over restarts.
	brimSeries := &metrics.Series{Name: "BRIM (model ns)"}
	best := make(map[float64]float64)
	for r := 0; r < *runs; r++ {
		res := brim.Solve(m, brim.SolveConfig{
			Duration:       *duration,
			SampleInterval: *duration / 20,
			Config:         brim.Config{Seed: *seed + uint64(r)},
		})
		for _, p := range res.Trace {
			cut := g.CutFromEnergy(p.Y)
			if cut > best[p.X] {
				best[p.X] = cut
			}
		}
	}
	for _, x := range slices.Sorted(maps.Keys(best)) {
		brimSeries.Add(x, best[x])
	}

	sweeps := []int{5, 15, 50, 150, 500}
	steps := []int{20, 60, 200, 600, 2000}
	saPts := saLadder(g.CutValue, m, sweeps, *runs, *seed)
	bsbPts := sbmLadder(g.CutValue, m, sbm.Ballistic, steps, *runs, *seed)
	dsbPts := sbmLadder(g.CutValue, m, sbm.Discrete, steps, *runs, *seed)

	// Parallel tempering: the strongest software point per time scale.
	ptSeries := &metrics.Series{Name: "PT best (measured ns)"}
	for _, sw := range sweeps {
		res := pt.Solve(m, pt.Config{Replicas: 8, Sweeps: sw, Seed: *seed})
		ptSeries.Add(float64(res.Wall.Nanoseconds()), g.CutFromEnergy(res.Energy))
	}

	lit := &metrics.Series{Name: "literature points (K2000 only)"}
	for _, p := range fig11Literature {
		lit.Add(p.timeNS, p.cut)
	}

	f := &figure{}
	f.table(
		fmt.Sprintf("Fig 11: K%d cut value vs time (ns)", *n),
		brimSeries,
		ladderSeries("SA best (measured ns)", saPts, func(p softwareLadderPoint) float64 { return p.BestCut }),
		ladderSeries("SA mean (measured ns)", saPts, func(p softwareLadderPoint) float64 { return p.MeanCut }),
		ladderSeries("bSBM best (measured ns)", bsbPts, func(p softwareLadderPoint) float64 { return p.BestCut }),
		ladderSeries("dSBM best (measured ns)", dsbPts, func(p softwareLadderPoint) float64 { return p.BestCut }),
		ptSeries,
		lit,
	)
	if *n != 2000 {
		f.note("literature points are reported for K2000; run with -n 2000 to compare directly.")
	}
	bestBRIM := lastY(brimSeries)
	bestSA := saPts[len(saPts)-1].BestCut
	f.set("BRIM cut", bestBRIM)
	f.set("BRIM ns", *duration)
	f.set("SA best cut", bestSA)
	f.set("SA ns", float64(saPts[len(saPts)-1].Wall.Nanoseconds()))
	f.set("dSBM best cut", dsbPts[len(dsbPts)-1].BestCut)
	f.set("dSBM ns", float64(dsbPts[len(dsbPts)-1].Wall.Nanoseconds()))
	f.note("BRIM reaches cut %.0f in %.0f ns of machine time; SA's best after %.2f ms is %.0f.",
		bestBRIM, *duration, float64(saPts[len(saPts)-1].Wall.Nanoseconds())/1e6, bestSA)
	f.note("expected shape (paper): BRIM attains the best-known cut ~2 orders of magnitude")
	f.note("faster than dSBM and ~6 orders faster than SA; only dSBM matches its quality.")
	return f, nil
}

func lastY(s *metrics.Series) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].Y
}
