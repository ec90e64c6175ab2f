package multichip

import (
	"mbrim/internal/obs"
)

// This file holds the span-tracing and partition-quality helpers the
// run modes share. Everything here is observational: no helper touches
// machine state, PRNG streams or the fabric ledger, so a seeded run is
// bit-identical with Config.Spans / Config.PairStats on or off. All
// emission happens at epoch barriers on the orchestration goroutine —
// the same determinism contract the flat event stream follows — with
// the single exception of chip.epochWallNS, which workers measure but
// barriers emit.

// emitChipSpans records each chip's just-finished epoch integration as
// a "chip_step" interval [startNS, startNS+epochNS] under the open
// epoch span, carrying the worker-measured wall time and the epoch's
// flip count. The returned handles (s.spChips) parent the per-chip
// "rk4_retry" intervals drainStepRetries may add.
func (s *System) emitChipSpans(startNS, epochNS float64) {
	sp := s.cfg.Spans
	if sp == nil {
		return
	}
	if cap(s.spChips) < len(s.slices) {
		s.spChips = make([]obs.Span, len(s.slices))
	}
	s.spChips = s.spChips[:len(s.slices)]
	for ci, sl := range s.slices {
		s.spChips[ci] = sp.Complete("chip_step", s.spEpoch, ci,
			startNS, epochNS, sl.chip.epochWallNS, &obs.Event{Count: sl.chip.epochFlips})
	}
}

// spanPoint records barrier-resolved recovery work (retransmit bursts,
// resync bitmaps, repartitions) as an interval of durNS model time at
// the current barrier position, under the open epoch span. No-op when
// spans are off or no epoch is open (e.g. a direct unit-test call).
func (s *System) spanPoint(label string, chip int, durNS float64, count int64, stallNS float64) {
	sp := s.cfg.Spans
	if sp == nil {
		return
	}
	sp.Complete(label, s.spEpoch, chip, s.spPosNS, durNS, 0,
		&obs.Event{Count: count, StallNS: stallNS})
}

// emitPairStats measures, for every ordered pair of live chips
// (observer a, owner b), how many of b's owned spins a's shadow copy
// currently has wrong, and emits one PairStat event per pair: Chip is
// the observer, Peer the owner (1-based), Count the stale spins, Value
// the stale fraction of b's slice. This is the Burns & Huang
// partition-quality measure: called before boundary sync it reports
// the ignorance each chip annealed against during the epoch; called
// after (sequential mode) it reports the residual incoherence, which a
// healthy zero-ignorance baseline keeps at zero. Dead observers are
// skipped (their shadows drive nothing); dead owners are kept — peers'
// beliefs about a lost chip drifting is exactly the damage signal.
func (s *System) emitPairStats(tr obs.Tracer, epoch int, modelNS float64) {
	if tr == nil || len(s.slices) < 2 {
		return
	}
	for a, sa := range s.slices {
		if s.dead(a) {
			continue
		}
		ca := &sa.chip
		for b, sb := range s.slices {
			if a == b {
				continue
			}
			cb := &sb.chip
			cur := cb.machine.Spins()
			stale := 0
			for li, g := range cb.owned {
				if ca.shadow[g] != cur[li] {
					stale++
				}
			}
			tr.Emit(obs.Event{Kind: obs.PairStat, Epoch: epoch, Chip: a, Peer: b + 1,
				ModelNS: modelNS, Count: int64(stale),
				Value: float64(stale) / float64(len(cb.owned))})
		}
	}
}
