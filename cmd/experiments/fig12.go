package main

import (
	"flag"
	"fmt"

	"mbrim/internal/core"
	"mbrim/internal/metrics"
	"mbrim/internal/multichip"
	"mbrim/internal/sbm"
)

func init() {
	register("fig12", "multiprocessor quality vs time: mBRIM 3D/HB/LB, concurrent and batch, vs SBM and SA", runFig12)
}

// runFig12 reproduces Fig 12: a large K-graph on a 4-chip mBRIM under
// three bandwidth tiers and two operating modes, against dSBM and SA.
//
// Bandwidth scaling: the paper's HB tier (3×250 GB/s per chip) is
// provisioned for 4 chips of 8192 spins. Communication demand scales
// with system size, so for a scaled-down benchmark the channel rate is
// scaled by n/16384 to preserve the paper's demand-to-supply ratio —
// otherwise a small system never congests and every tier degenerates
// into mBRIM_3D.
func runFig12(args []string) (*figure, error) {
	fs := flag.NewFlagSet("fig12", flag.ContinueOnError)
	n := fs.Int("n", 1024, "K-graph size (paper: 16384)")
	chips := fs.Int("chips", 4, "number of chips")
	duration := fs.Float64("duration", 300, "annealing time per job, ns")
	epoch := fs.Float64("epoch", 3.3, "epoch size, ns (concurrent)")
	batchEpoch := fs.Float64("batchepoch", 16, "epoch size, ns (batch)")
	runs := fs.Int("runs", 4, "jobs in batch mode / SBM+SA restarts")
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
	bwScale := float64(*n) / 16384

	type tier struct {
		name string
		rate float64 // channel bytes/ns
	}
	tiers := []tier{
		{"mBRIM_3D", 0},
		{"mBRIM_HB", core.HBChannelBytesPerNS * bwScale},
		{"mBRIM_LB", core.LBChannelBytesPerNS * bwScale},
	}

	f := &figure{}
	var series []*metrics.Series
	addTrace := func(name string, pts []metrics.Point) {
		s := &metrics.Series{Name: name}
		for _, p := range pts {
			s.Add(p.X, g.CutFromEnergy(p.Y))
		}
		series = append(series, s)
	}

	for _, tr := range tiers {
		cfg := multichip.Config{
			Chips: *chips, EpochNS: *epoch, Seed: *seed, Parallel: true,
			ChannelBytesPerNS: tr.rate, SampleEveryNS: *duration / 30,
			Tracer: tracer,
		}
		conc := multichip.MustSystem(m, cfg).RunConcurrent(*duration)
		addTrace(tr.name+" concurrent (elapsed ns)", conc.Trace)
		f.set(tr.name+" concurrent elapsed ns", conc.ElapsedNS)
		f.note("%s concurrent: final cut %.0f, elapsed %.0f ns (stall %.0f ns, traffic %.0f B)",
			tr.name, g.CutFromEnergy(conc.Energy), conc.ElapsedNS, conc.StallNS, conc.TrafficBytes)

		// Batch mode anneals one slice of each job per epoch, so a job
		// needs chips× the elapsed time for the same per-spin annealing
		// — but it delivers `runs` results at once. Fairness: run for
		// chips×duration and plot the *amortized per-job* elapsed time,
		// which is the throughput comparison the paper makes (Sec 6.3).
		bcfg := cfg
		bcfg.EpochNS = *batchEpoch
		batch := multichip.MustSystem(m, bcfg).RunBatch(*runs, *duration*float64(*chips))
		bs := &metrics.Series{Name: tr.name + " batch (per-job elapsed ns)"}
		for _, p := range batch.Trace {
			bs.Add(p.X/float64(*runs), g.CutFromEnergy(p.Y))
		}
		series = append(series, bs)
		f.set(tr.name+" batch ns per job", batch.ElapsedNS/float64(*runs))
		f.note("%s batch: best cut %.0f, elapsed %.0f ns = %.0f ns/job (stall %.0f ns, traffic %.0f B)",
			tr.name, g.CutFromEnergy(batch.BestEnergy), batch.ElapsedNS,
			batch.ElapsedNS/float64(*runs), batch.StallNS, batch.TrafficBytes)
	}

	// Software baselines on measured wall time.
	dsb := sbmLadder(g.CutValue, m, sbm.Discrete, []int{50, 150, 500, 1500}, *runs, *seed)
	series = append(series, ladderSeries("dSBM best (measured ns)", dsb,
		func(p softwareLadderPoint) float64 { return p.BestCut }))
	// The paper's actual comparator is a *multi-chip* SBM [49]: bSB
	// partitioned over chips that exchange their positions after every
	// step, 4 bytes per remote position per chip, so 4·n·(chips−1) bytes
	// a step. No position is ever stale, so the run is sbm.Solve's.
	msb := &metrics.Series{Name: fmt.Sprintf("mSBM %d-chip best (measured ns)", *chips)}
	for _, steps := range []int{50, 150, 500, 1500} {
		best := 0.0
		var wall float64
		for r := 0; r < *runs; r++ {
			res := sbm.Solve(m, sbm.Config{Variant: sbm.Ballistic, Steps: steps, Seed: *seed + uint64(r)})
			wall += float64(res.Wall.Nanoseconds())
			if cut := g.CutValue(res.Spins); cut > best {
				best = cut
			}
		}
		msb.Add(wall, best)
	}
	f.note("mSBM [49] exchanges 4·n·(chips−1) = %d B per step", 4**n*(*chips-1))
	series = append(series, msb)
	saPts := saLadder(g.CutValue, m, []int{10, 30, 100, 300}, *runs, *seed)
	series = append(series, ladderSeries("SA best (measured ns)", saPts,
		func(p softwareLadderPoint) float64 { return p.BestCut }))

	f.table(fmt.Sprintf("Fig 12: K%d cut vs time, %d-chip mBRIM vs dSBM vs SA", *n, *chips), series...)
	f.note("bandwidth tiers scaled by n/16384 = %.4f to preserve the paper's congestion ratio.", bwScale)
	f.note("expected shape (paper): mBRIM_3D concurrent is best and fastest (2200x vs SBM);")
	f.note("HB/LB stall and finish later; batch mode recovers most of the stall (2.8x/7x)")
	f.note("at slightly lower quality (paper: still above SBM's best; here mBRIM trails")
	f.note("dSBM's cut, a gap that summary's mBRIM/dSBM cut ratio measures).")
	return f, nil
}
