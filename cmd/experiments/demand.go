package main

import (
	"flag"
	"fmt"

	"mbrim/internal/brim"
	"mbrim/internal/interconnect"
	"mbrim/internal/metrics"
)

func init() {
	register("demand", "Sec 5.3: raw communication demand over the annealing schedule", runDemand)
}

// runDemand measures the flip-rate profile of a single BRIM chip at
// flip-event resolution and converts it to the broadcast bandwidth a
// multiprocessor of the given size would need if every flip were
// communicated — the f_s·N·log(N) analysis of Sec 5.3, including the
// observation that peak demand lands at the start of the schedule.
func runDemand(args []string) (*figure, error) {
	fs := flag.NewFlagSet("demand", flag.ContinueOnError)
	n := fs.Int("n", 512, "chip size in spins (paper: 8000)")
	chips := fs.Int("chips", 16, "multiprocessor size for the bandwidth projection")
	duration := fs.Float64("duration", 200, "annealing time, ns")
	bucket := fs.Float64("bucket", 5, "histogram bucket, ns")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	_, m := kgraph(*n, *seed)

	buckets := int(*duration / *bucket)
	counts := make([]int64, buckets+1)
	ma := brim.New(m, brim.Config{Seed: *seed})
	ma.OnFlip(func(node int, newSpin int8, induced bool) {
		b := int(ma.Time() / *bucket)
		if b > buckets {
			b = buckets
		}
		counts[b]++
	})
	ma.SetHorizon(*duration)
	ma.Run(*duration)

	totalSpins := *n * *chips
	perFlip := interconnect.FlipUpdateBytes(totalSpins, *chips-1)

	rate := &metrics.Series{Name: "flips per ns (one chip)"}
	demand := &metrics.Series{Name: fmt.Sprintf("projected broadcast demand, %d chips (B/ns)", *chips)}
	peak, peakT := 0.0, 0.0
	for b := 0; b < buckets; b++ {
		t := (float64(b) + 0.5) * *bucket
		fr := float64(counts[b]) / *bucket
		rate.Add(t, fr)
		// Every chip flips at a similar rate; each flip must reach the
		// other chips.
		d := fr * float64(*chips) * perFlip
		demand.Add(t, d)
		if d > peak {
			peak, peakT = d, t
		}
	}

	f := &figure{}
	f.set("peak demand at ns", peakT)
	f.set("duration ns", *duration)
	f.table("Communication demand over the schedule (Sec 5.3)", rate, demand)
	f.note("one %d-spin chip flipped %d times in %.0f ns; projected peak broadcast demand", *n, ma.Flips(), *duration)
	f.note("for a %d-chip system of %d spins: %.1f B/ns (%.2f GB/s-equivalent).",
		*chips, totalSpins, peak, peak)
	f.note("expected shape (paper): demand is highest at the start of the schedule and")
	f.note("decays as the system freezes — the paper projects ~50 Tb/s peak for sixteen")
	f.note("8000-spin chips flipping every ~10 ns, i.e. bandwidth is the binding resource.")
	return f, nil
}
