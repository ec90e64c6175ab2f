package multichip

import (
	"context"

	"mbrim/internal/obs"
)

// RunSequential anneals one job with the chips taking turns: in every
// round each chip runs one epoch *alone* while the others hold, and
// its state changes are synchronized before the next chip starts. No
// chip ever works against a stale view — the "running the solvers
// sequentially (without any ignorance)" baseline of Sec 5.4.1 — but
// nothing overlaps, so the elapsed time is chips× the annealing each
// chip receives. The paper's empirical claim is that concurrent
// operation with short epochs matches or beats this mode's quality
// while being chips× faster; RunSequential exists so that claim can be
// tested rather than assumed.
//
// durationNS is the annealing time each chip receives (matching
// RunConcurrent's semantics so qualities are comparable at equal
// per-chip annealing). It panics on integrator divergence; callers
// that need lifecycle control use RunSequentialCtx.
func (s *System) RunSequential(durationNS float64) *Result {
	res, _, err := s.RunSequentialCtx(context.Background(), durationNS, nil)
	if err != nil {
		panic(err)
	}
	return res
}

// RunSequentialCtx is RunSequential with lifecycle control, with the
// same contract as RunConcurrentCtx: cancellation returns the partial
// result plus a resumable Checkpoint alongside ctx.Err() (checked at
// round barriers, where every chip has had its turn); divergence
// aborts with the typed error and no checkpoint.
func (s *System) RunSequentialCtx(ctx context.Context, durationNS float64, resume *Checkpoint) (*Result, *Checkpoint, error) {
	f, err := s.startRun(ctx, ModeSequential, durationNS, durationNS, 0, resume)
	if err != nil {
		return nil, nil, err
	}
	cfg, pos, tr := &s.cfg, &f.pos, f.tr
	// One "epoch" interval per round; each chip's exclusive turn
	// (integrate + sync) nests inside it as a "chip_turn".
	body := func(no int, epoch float64) (float64, error) {
		model := pos.ModelNS
		for ci, sl := range s.slices {
			c := &sl.chip
			if s.dead(ci) {
				// A lost chip's turn is skipped outright; the scheduler
				// knows it is gone, so no wall time is spent on it.
				c.resetEpochCounters()
				continue
			}
			var turnSpan obs.Span
			if sp := cfg.Spans; sp != nil {
				turnSpan = sp.Start("chip_turn", s.spEpoch, ci, pos.ElapsedNS)
				if len(s.spChips) != len(s.slices) {
					s.spChips = make([]obs.Span, len(s.slices))
				}
				s.spChips[ci] = turnSpan
				s.spPosNS = pos.ElapsedNS + epoch
			}
			// A transiently stalled chip still occupies its turn on the
			// wall clock — the hold is physical — but integrates
			// nothing; its kick PRNG keeps clocking.
			if err := sl.step(model, epoch, durationNS, cfg.Coordinated, s.held(ci)); err != nil {
				return 0, f.diverged(no, ci, model, err)
			}
			if tr != nil {
				tr.Emit(obs.Event{Kind: obs.ChipStep, Epoch: no, Chip: ci,
					ModelNS: model + epoch, Count: c.epochFlips, Induced: c.epochInducedFlips})
				if c.epochKicks > 0 {
					tr.Emit(obs.Event{Kind: obs.InducedKick, Epoch: no, Chip: ci,
						ModelNS: model + epoch, Count: c.epochKicks})
				}
			}
			// Immediate synchronization: the next chip sees this one's
			// fresh state. Traffic is charged exactly as in concurrent
			// mode; the difference is purely that no work overlaps.
			var syncSpan obs.Span
			if sp := cfg.Spans; sp != nil {
				syncSpan = sp.Start("sync", turnSpan, ci, pos.ElapsedNS+epoch)
			}
			changes, inducedChanges := s.syncEpoch(no, tr)
			pos.BitChanges += changes
			pos.InducedBitChanges += inducedChanges
			emitIf(tr, obs.Event{Kind: obs.EpochSync, Epoch: no, Chip: ci,
				ModelNS: model + epoch, Count: changes, Induced: inducedChanges})
			syncSpan.End(pos.ElapsedNS+epoch, &obs.Event{Count: changes})
			// Every chip's epoch occupies the wall clock: no overlap.
			pos.ElapsedNS += epoch
			turnSpan.End(pos.ElapsedNS, nil)
		}
		if cfg.PairStats {
			// Post-sync residual: a healthy zero-ignorance baseline
			// reports zero disagreement here every round.
			s.emitPairStats(tr, no, model+epoch)
		}
		s.spPosNS = pos.ElapsedNS
		if s.frt != nil {
			s.watchdog(no, tr)
		}
		pos.ModelNS += epoch
		// The turns already advanced elapsed time; only the stall is left.
		return 0, nil
	}
	late := func(no int) { s.drainStepRetries(tr, no, pos.ModelNS) }
	ck, err := f.loop(epochMode{next: f.clippedEpoch, body: body, late: late, energy: s.globalEnergy})
	if err != nil && ck == nil {
		return nil, nil, err
	}
	return s.collect(f), ck, err
}
