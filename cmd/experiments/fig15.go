package main

import (
	"flag"
	"fmt"

	"mbrim/internal/metrics"
	"mbrim/internal/multichip"
)

func init() {
	register("fig15", "induced spin flips vs bit changes; savings from coordinated PRNGs", runFig15)
}

// runFig15 reproduces Fig 15. Left panel: induced flips and bit
// changes per epoch over a run at a fixed epoch size, with the share
// of bit changes attributable to induced flips. Right panel: that
// share versus epoch size. The share is the traffic a coordinated
// PRNG eliminates (Sec 5.4.2); the figure closes with a measured
// coordinated-vs-uncoordinated traffic comparison.
func runFig15(args []string) (*figure, error) {
	fs := flag.NewFlagSet("fig15", flag.ContinueOnError)
	n := fs.Int("n", 512, "K-graph size")
	chips := fs.Int("chips", 4, "number of chips")
	duration := fs.Float64("duration", 200, "annealing time, ns")
	epoch := fs.Float64("epoch", 3.3, "fixed epoch for the time series, ns")
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
	_, m := kgraph(*n, *seed)

	res := multichip.MustSystem(m, multichip.Config{
		Chips: *chips, EpochNS: *epoch, Seed: *seed, Parallel: true, RecordEpochStats: true,
		Tracer: tracer,
	}).RunConcurrent(*duration)

	inducedSeries := &metrics.Series{Name: fmt.Sprintf("induced flips per epoch (epoch %.1f ns)", *epoch)}
	changes := &metrics.Series{Name: "bit changes per epoch"}
	share := &metrics.Series{Name: "induced share of bit changes (%)"}
	for _, st := range res.EpochStats {
		t := float64(st.Epoch) * *epoch
		inducedSeries.Add(t, float64(st.InducedFlips))
		changes.Add(t, float64(st.BitChanges))
		if st.BitChanges > 0 {
			share.Add(t, 100*float64(st.InducedBitChanges)/float64(st.BitChanges))
		}
	}

	shareVsEpoch := &metrics.Series{Name: "avg induced share vs epoch size (%)"}
	for _, e := range []float64{0.5, 1, 2, 3.3, 5, 8, 12, 20} {
		r := multichip.MustSystem(m, multichip.Config{
			Chips: *chips, EpochNS: e, Seed: *seed, Parallel: true,
		}).RunConcurrent(*duration)
		if r.BitChanges > 0 {
			shareVsEpoch.Add(e, 100*float64(r.InducedBitChanges)/float64(r.BitChanges))
		}
	}

	f := &figure{}
	f.table("Fig 15: induced flips and bit changes", inducedSeries, changes, share, shareVsEpoch)

	// Measured end-to-end saving from coordination.
	plain := multichip.MustSystem(m, multichip.Config{
		Chips: *chips, EpochNS: *epoch, Seed: *seed, Parallel: true,
	}).RunConcurrent(*duration)
	coord := multichip.MustSystem(m, multichip.Config{
		Chips: *chips, EpochNS: *epoch, Seed: *seed, Coordinated: true,
	}).RunConcurrent(*duration)
	saving := 0.0
	if plain.TrafficBytes > 0 {
		saving = 100 * (1 - coord.TrafficBytes/plain.TrafficBytes)
	}
	f.set("traffic saving %", saving)
	f.set("uncoordinated energy", plain.Energy)
	f.set("coordinated energy", coord.Energy)
	f.note("measured traffic: uncoordinated %.0f B, coordinated %.0f B (saving %.1f%%).",
		plain.TrafficBytes, coord.TrafficBytes, saving)
	f.note("expected shape (paper): 30-38%% of bit changes are induced flips across epoch")
	f.note("sizes, so coordinating PRNGs cuts communication by that share (~1.5x speedup")
	f.note("in a bandwidth-bound system).")
	return f, nil
}
