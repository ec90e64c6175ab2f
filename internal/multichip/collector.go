package multichip

import (
	"mbrim/internal/metrics"
	"mbrim/internal/obs"
)

// runCollector materializes the optional result series (EpochStats,
// Surprises, Trace) by consuming the run's own obs event stream —
// the emission sites are the single source of bookkeeping. A nil
// destination pointer disables that series. Events arrive from the
// epoch barrier on one goroutine, so no locking is needed.
type runCollector struct {
	epochStats *[]EpochStat
	surprises  *[]SurpriseSample
	trace      *[]metrics.Point

	pending EpochStat
}

// active reports whether any series was requested.
func (rc *runCollector) active() bool {
	return rc.epochStats != nil || rc.surprises != nil || rc.trace != nil
}

// Emit folds one event into the requested series. ChipStep events
// accumulate into a pending stat that each EpochSync closes (one stat
// per sync: per-epoch in concurrent and batch modes, per-chip-turn in
// sequential mode); the following FabricTransfer back-fills the stall.
func (rc *runCollector) Emit(e obs.Event) {
	switch e.Kind {
	case obs.ChipStep:
		if rc.epochStats != nil {
			rc.pending.Epoch = e.Epoch
			rc.pending.Flips += e.Count
			rc.pending.InducedFlips += e.Induced
		}
	case obs.EpochSync:
		if rc.epochStats != nil {
			rc.pending.Epoch = e.Epoch
			rc.pending.BitChanges = e.Count
			rc.pending.InducedBitChanges = e.Induced
			*rc.epochStats = append(*rc.epochStats, rc.pending)
			rc.pending = EpochStat{}
		}
	case obs.FabricTransfer:
		if rc.epochStats != nil {
			if stats := *rc.epochStats; len(stats) > 0 && stats[len(stats)-1].Epoch == e.Epoch {
				stats[len(stats)-1].StallNS = e.StallNS
			}
		}
	case obs.Probe:
		if rc.surprises != nil {
			*rc.surprises = append(*rc.surprises, SurpriseSample{
				Epoch:     e.Epoch,
				Chip:      e.Chip,
				Ignorance: e.Aux,
				Surprise:  e.Value,
			})
		}
	case obs.EnergySample:
		if rc.trace != nil {
			*rc.trace = append(*rc.trace, metrics.Point{X: e.ModelNS, Y: e.Value})
		}
	}
}

// runTracer composes the user-configured tracer with the internal
// collector. It returns nil when neither is present — the disabled
// path costs one branch per emission site.
func (s *System) runTracer(rc *runCollector) obs.Tracer {
	if rc != nil && rc.active() {
		return obs.Fanout(s.cfg.Tracer, rc)
	}
	return obs.Fanout(s.cfg.Tracer)
}

// emitChipEpoch emits the per-chip epoch events (ChipStep plus
// InducedKick when kicks were applied) at a barrier, in chip order,
// so the stream is identical whether the chips ran sequentially or on
// goroutines.
func (s *System) emitChipEpoch(tr obs.Tracer, epoch int, modelNS float64) {
	for ci, sl := range s.slices {
		c := &sl.chip
		tr.Emit(obs.Event{
			Kind: obs.ChipStep, Epoch: epoch, Chip: ci, ModelNS: modelNS,
			Count: c.epochFlips, Induced: c.epochInducedFlips,
		})
		if c.epochKicks > 0 {
			tr.Emit(obs.Event{
				Kind: obs.InducedKick, Epoch: epoch, Chip: ci, ModelNS: modelNS,
				Count: c.epochKicks,
			})
		}
	}
}

// recordRunMetrics adds a finished run's totals to the configured
// registry; a nil registry makes every call a no-op. The unlabeled
// series are cross-mode totals; mode-labeled multichip.runs series
// break the run count down by operating mode for the Prometheus
// exposition.
func (s *System) recordRunMetrics(mode string, flips, inducedFlips, bitChanges, inducedBitChanges int64,
	stallNS, trafficBytes float64, epochs int) {
	m := s.cfg.Metrics
	if m == nil {
		return
	}
	m.Counter("multichip.runs").Inc()
	m.CounterWith("multichip.runs", obs.Labels{"mode": mode}).Inc()
	m.Counter("multichip.flips").Add(flips)
	m.Counter("multichip.induced_flips").Add(inducedFlips)
	m.Counter("multichip.bit_changes").Add(bitChanges)
	m.Counter("multichip.induced_bit_changes").Add(inducedBitChanges)
	m.Counter("multichip.epochs").Add(int64(epochs))
	m.Gauge("multichip.stall_ns").Add(stallNS)
	m.Gauge("multichip.traffic_bytes").Add(trafficBytes)
}
