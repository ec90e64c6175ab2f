package diag_test

import (
	"math"
	"testing"

	"mbrim/internal/diag"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
)

// The Reducer every managed run carries prices an event at a fold: it
// writes to no registry, and the plateau is a scan at Snapshot, not a
// window kept up per sample.

// hotEvents is one epoch of a two-chip run's stream, in the kinds that
// arrive once per epoch or more: an energy sample, both pairs'
// disagreement and the fabric transfer.
func hotEvents(epoch int) []obs.Event {
	return []obs.Event{
		{Kind: obs.EnergySample, Epoch: epoch, ModelNS: float64(10 * epoch), Value: -float64(epoch % 7)},
		{Kind: obs.PairStat, Epoch: epoch, Chip: 0, Peer: 2, Count: 3, Value: 0.25},
		{Kind: obs.PairStat, Epoch: epoch, Chip: 1, Peer: 1, Count: 2, Value: 0.125},
		{Kind: obs.FabricTransfer, Epoch: epoch, Value: 64, StallNS: 2},
	}
}

// TestReducerEmitAllocatesNothing: after the run's first event of each
// kind, an EnergySample, a PairStat and a FabricTransfer allocate
// nothing. The trajectory the samples append to grows by doubling,
// which lands far below one allocation an event over the 1 000
// measured.
func TestReducerEmitAllocatesNothing(t *testing.T) {
	r := diag.New(diag.Config{})
	for _, e := range hotEvents(1) {
		r.Emit(e)
	}
	for _, e := range hotEvents(2) {
		epoch := 2
		if a := testing.AllocsPerRun(1000, func() {
			epoch++
			e.Epoch, e.ModelNS = epoch, float64(10*epoch)
			r.Emit(e)
		}); a != 0 {
			t.Errorf("a %s event allocates %v times", e.Kind, a)
		}
	}
}

// plateauScan is the plateau verdict as a scan of every sample, the
// reference the Reducer's Snapshot must reproduce: the lowest
// energy at or before the window start, when some sample lies there,
// against the best so far, over the Reducer's 1 000 ns window at a
// relative 1e-3.
func plateauScan(ts, es []float64, best float64) bool {
	const window, eps = 1000, 1e-3
	n := len(ts)
	if n < 2 {
		return false
	}
	winStart := ts[n-1] - window
	baseline := math.Inf(1)
	covered := false
	for i, t := range ts {
		if t <= winStart {
			covered = true
			if es[i] < baseline {
				baseline = es[i]
			}
		}
	}
	if !covered {
		return false
	}
	improvement := baseline - best
	scale := math.Max(math.Abs(baseline), 1e-12)
	return improvement/scale < eps
}

// TestPlateauMatchesScan: over randomised trajectories Snapshot's
// Plateaued reads, sample for sample, what the scan of every sample says —
// on times that tie, that restart at zero as a best-of-Runs machine's
// clock does, that are NaN, and on energies that tie, plateau and touch
// both zeros.
func TestPlateauMatchesScan(t *testing.T) {
	src := rng.New(5)
	for trace := 0; trace < 300; trace++ {
		const window = 1000
		r := diag.New(diag.Config{})
		var ts, es []float64
		best, tm, e := 0.0, 0.0, 0.0
		for k := 0; k < 1+src.Intn(200); k++ {
			switch u := src.Float64(); {
			case u < 0.03:
				tm = 0 // a restarted clock
			case u < 0.04:
				tm = math.NaN()
			case u < 0.3: // a tie
			default:
				if math.IsNaN(tm) {
					tm = 0
				}
				tm += src.Float64() * 2 * window
			}
			switch u := src.Float64(); {
			case u < 0.05:
				e = math.Copysign(0, src.Float64()-0.5)
			case u < 0.5: // a flat stretch
			default:
				e -= src.Float64() * 3
				if src.Intn(4) == 0 {
					e = -e / 2
				}
			}
			r.Emit(obs.Event{Kind: obs.EnergySample, ModelNS: tm, Value: e})
			if len(es) == 0 || e < best {
				best = e
			}
			ts, es = append(ts, tm), append(es, e)
			if got, want := r.Snapshot().Plateaued, plateauScan(ts, es, best); got != want {
				t.Fatalf("trace %d sample %d (t=%v e=%v): Snapshot plateaued %v, the scan says %v", trace, k, tm, e, got, want)
			}
		}
	}
}

// BenchmarkReducerEmit prices the fold of a two-chip epoch's energy,
// pair and fabric events.
func BenchmarkReducerEmit(b *testing.B) {
	r := diag.New(diag.Config{})
	evs := hotEvents(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k := range evs {
			evs[k].Epoch, evs[k].ModelNS = i, float64(10*i)
			r.Emit(evs[k])
		}
	}
}
