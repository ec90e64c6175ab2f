package main

import (
	"flag"
	"fmt"

	"mbrim/internal/ising"
	"mbrim/internal/metrics"
	"mbrim/internal/multichip"
)

func init() {
	register("fig9", "energy surprise vs degree of ignorance for different epoch sizes", runFig9)
}

// runFig9 reproduces Fig 9: a problem partitioned over parallel SA
// solvers that synchronize every epoch; each epoch-boundary sample
// plots the solver's ignorance of the external state against its
// energy surprise.
func runFig9(args []string) (*figure, error) {
	fs := flag.NewFlagSet("fig9", flag.ContinueOnError)
	n := fs.Int("n", 2048, "graph size (paper: 8000)")
	solvers := fs.Int("solvers", 8, "number of parallel solvers")
	runs := fs.Int("runs", 5, "independent runs (paper: 20)")
	epochs := fs.Int("epochs", 10, "epochs per run")
	hw := fs.Bool("hw", false, "probe the BRIM multiprocessor's own shadows instead of the SA-solver model")
	duration := fs.Float64("duration", 100, "hardware run length per epoch-size point, ns (-hw)")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	_, m := kgraph(*n, *seed)

	if *hw {
		return runFig9Hardware(m, *solvers, *duration, *seed), nil
	}

	// Epoch sizes in Metropolis moves, expressed relative to partition
	// size: a small epoch attempts ~5% of a partition's spins, a large
	// one many sweeps' worth.
	part := *n / *solvers
	epochSizes := map[string]int{
		"small":  part/20 + 1,
		"medium": part,
		"large":  part * 20,
	}
	f := &figure{}
	var series []*metrics.Series
	for _, label := range []string{"small", "medium", "large"} {
		moves := epochSizes[label]
		samples := multichip.EnergySurprise(m, multichip.SurpriseConfig{
			Solvers:    *solvers,
			EpochMoves: moves,
			Epochs:     *epochs,
			Runs:       *runs,
			Seed:       *seed,
		})
		s := &metrics.Series{Name: fmt.Sprintf("%s epoch (%d moves)", label, moves)}
		var ign, sur []float64
		for _, sample := range samples {
			s.Add(sample.Ignorance, sample.Surprise)
			ign = append(ign, sample.Ignorance)
			sur = append(sur, sample.Surprise)
		}
		series = append(series, s)
		is, ss := metrics.Summarize(ign), metrics.Summarize(sur)
		f.set(label+" epoch mean ignorance", is.Mean)
		f.set(label+" epoch mean surprise", ss.Mean)
		f.note("%s epochs: mean ignorance %.3f, mean surprise %.1f (min %.1f, max %.1f)",
			label, is.Mean, ss.Mean, ss.Min, ss.Max)
	}

	f.table("Fig 9: (ignorance, energy surprise) scatter per epoch size", series...)
	f.note("expected shape (paper): long epochs push samples far right (high ignorance)")
	f.note("with uniformly negative, large-magnitude surprise; short epochs cluster near")
	f.note("the origin where surprise is small and no longer uniformly negative.")
	return f, nil
}

// runFig9Hardware repeats the experiment on the multiprocessor model
// itself: the per-epoch ignorance/surprise probes read the chips'
// actual shadow registers against the true global state.
func runFig9Hardware(m *ising.Model, chips int, duration float64, seed uint64) *figure {
	f := &figure{}
	var series []*metrics.Series
	for _, epoch := range []float64{1, 3.3, 10, 25} {
		res := multichip.MustSystem(m, multichip.Config{
			Chips: chips, Seed: seed, EpochNS: epoch, Probes: true,
		}).RunConcurrent(duration)
		s := &metrics.Series{Name: fmt.Sprintf("epoch %.1f ns", epoch)}
		var ign, sur []float64
		for _, sample := range res.Surprises {
			s.Add(sample.Ignorance, sample.Surprise)
			ign = append(ign, sample.Ignorance)
			sur = append(sur, sample.Surprise)
		}
		series = append(series, s)
		is, ss := metrics.Summarize(ign), metrics.Summarize(sur)
		f.note("epoch %.1f ns: mean ignorance %.4f, mean surprise %.1f", epoch, is.Mean, ss.Mean)
	}
	f.table("Fig 9 (hardware probes): (ignorance, surprise) per epoch size", series...)
	f.note("same phase structure as the SA-solver version, measured on the BRIM")
	f.note("multiprocessor's shadow registers directly.")
	return f
}
