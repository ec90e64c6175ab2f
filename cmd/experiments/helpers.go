package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/metrics"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
	"mbrim/internal/sa"
	"mbrim/internal/sbm"
)

// kgraph builds the seeded benchmark K-graph and its Ising model.
func kgraph(n int, seed uint64) (*graph.KGraph, *ising.Model) {
	kg := graph.NewKGraph(n, rng.New(seed))
	return kg, kg.Model
}

// traceFlag registers the shared -trace flag on a subcommand's flag
// set; pass the parsed value to openTrace.
func traceFlag(fs *flag.FlagSet) *string {
	return fs.String("trace", "", "archive the experiment's event stream to this JSONL file")
}

// openTrace opens the archival JSONL tracer named by -trace. The
// returned cleanup flushes and closes the file; tracer and cleanup are
// nil-safe no-ops when the flag was left empty.
func openTrace(path string) (obs.Tracer, func(), error) {
	if path == "" {
		return nil, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	t := obs.NewJSONL(f)
	return t, func() {
		if err := t.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace %s: %v\n", path, err)
		}
	}, nil
}

// note prints paper-expectation commentary, stripped by tools that
// only want the data.
func note(format string, args ...any) {
	fmt.Printf("#? "+format+"\n", args...)
}

// softwareLadderPoint is one measured (wall time, cut quality) rung of
// a software solver's quality-vs-time curve.
type softwareLadderPoint struct {
	Wall    time.Duration
	BestCut float64
	MeanCut float64
	MinCut  float64
}

// saLadder measures SA quality at increasing sweep budgets, `runs`
// restarts per rung, best/mean/min cut per rung as cut reads a spin
// assignment. The wall time is the whole batch (the paper's usage
// pattern: many anneals, take the best).
func saLadder(cut func([]int8) float64, m *ising.Model, sweeps []int, runs int, seed uint64) []softwareLadderPoint {
	out := make([]softwareLadderPoint, 0, len(sweeps))
	for _, s := range sweeps {
		br := sa.SolveBatch(m, sa.Config{Sweeps: s, Seed: seed}, runs)
		cuts := make([]float64, len(br.Results))
		for i, r := range br.Results {
			cuts[i] = cut(r.Spins)
		}
		out = append(out, ladderPoint(br.Wall, cuts))
	}
	return out
}

// sbmLadder measures SBM quality at increasing step budgets.
func sbmLadder(cut func([]int8) float64, m *ising.Model, variant sbm.Variant, steps []int, runs int, seed uint64) []softwareLadderPoint {
	out := make([]softwareLadderPoint, 0, len(steps))
	for _, s := range steps {
		br := sbm.SolveBatch(m, sbm.Config{Variant: variant, Steps: s, Seed: seed}, runs)
		cuts := make([]float64, len(br.Results))
		for i, r := range br.Results {
			cuts[i] = cut(r.Spins)
		}
		out = append(out, ladderPoint(br.Wall, cuts))
	}
	return out
}

func ladderPoint(wall time.Duration, cuts []float64) softwareLadderPoint {
	s := metrics.Summarize(cuts)
	return softwareLadderPoint{Wall: wall, BestCut: s.Max, MeanCut: s.Mean, MinCut: s.Min}
}

// ladderSeries converts ladder points to a (wall ns → cut) series.
func ladderSeries(name string, pts []softwareLadderPoint, pick func(softwareLadderPoint) float64) *metrics.Series {
	s := &metrics.Series{Name: name}
	for _, p := range pts {
		s.Add(float64(p.Wall.Nanoseconds()), pick(p))
	}
	return s
}
