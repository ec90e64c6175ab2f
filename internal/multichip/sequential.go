package multichip

import (
	"context"
	"fmt"
	"math"

	"mbrim/internal/metrics"
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
	if durationNS <= 0 {
		panic(fmt.Sprintf("multichip: duration=%v", durationNS))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := s.cfg
	res := &Result{}
	elapsed := 0.0
	model := 0.0
	nextSample := 0.0
	if resume != nil {
		if err := s.applyCheckpoint(resume, ModeSequential, durationNS, 0); err != nil {
			return nil, nil, err
		}
		res.Epochs = resume.EpochsDone
		res.BitChanges = resume.BitChanges
		res.InducedBitChanges = resume.InducedBitChanges
		res.Trace = append([]metrics.Point(nil), resume.Trace...)
		res.EpochStats = append([]EpochStat(nil), resume.EpochStats...)
		model = resume.ModelNS
		elapsed = resume.ElapsedNS
		nextSample = resume.NextSampleNS
	} else {
		s.setHorizon(durationNS)
	}
	rc := &runCollector{}
	if cfg.RecordEpochStats {
		rc.epochStats = &res.EpochStats
	}
	if cfg.SampleEveryNS > 0 {
		rc.trace = &res.Trace
	}
	tr := s.runTracer(rc)
	lastBytes := s.fabric.TotalBytes()
	done := ctx.Done()
	for model < durationNS-1e-9 {
		select {
		case <-done:
			ck := &Checkpoint{Mode: ModeSequential, DurationNS: durationNS}
			s.capturePosition(ck, res, model, elapsed, nextSample)
			s.captureInto(ck)
			s.collect(ModeSequential, res, model, elapsed)
			return res, ck, ctx.Err()
		default:
		}
		epoch := math.Min(cfg.EpochNS, durationNS-model)
		if sp := cfg.Spans; sp != nil {
			// One "epoch" interval per round; each chip's exclusive turn
			// (integrate + sync) nests inside it as a "chip_turn".
			s.spEpoch = sp.Start("epoch", cfg.SpanRoot, -1, elapsed)
			s.spPosNS = elapsed
		}
		if s.frt != nil {
			s.beginFaultEpoch(res.Epochs+1, durationNS-model, tr)
		}
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
				turnSpan = sp.Start("chip_turn", s.spEpoch, ci, elapsed)
				if len(s.spChips) != len(s.slices) {
					s.spChips = make([]obs.Span, len(s.slices))
				}
				s.spChips[ci] = turnSpan
				s.spPosNS = elapsed + epoch
			}
			// A transiently stalled chip still occupies its turn on the
			// wall clock — the hold is physical — but integrates
			// nothing; its kick PRNG keeps clocking.
			if err := sl.step(model, epoch, durationNS, cfg.Coordinated, s.held(ci)); err != nil {
				emitIf(tr, obs.Event{Kind: obs.Numerical, Label: "divergence",
					Epoch: res.Epochs + 1, Chip: ci, ModelNS: model})
				return nil, nil, fmt.Errorf("multichip: chip %d: %w", ci, err)
			}
			if tr != nil {
				tr.Emit(obs.Event{Kind: obs.ChipStep, Epoch: res.Epochs + 1, Chip: ci,
					ModelNS: model + epoch, Count: c.epochFlips, Induced: c.epochInducedFlips})
				if c.epochKicks > 0 {
					tr.Emit(obs.Event{Kind: obs.InducedKick, Epoch: res.Epochs + 1, Chip: ci,
						ModelNS: model + epoch, Count: c.epochKicks})
				}
			}
			// Immediate synchronization: the next chip sees this one's
			// fresh state. Traffic is charged exactly as in concurrent
			// mode; the difference is purely that no work overlaps.
			var syncSpan obs.Span
			if sp := cfg.Spans; sp != nil {
				syncSpan = sp.Start("sync", turnSpan, ci, elapsed+epoch)
			}
			changes, inducedChanges := s.syncEpoch(res.Epochs+1, tr)
			res.BitChanges += changes
			res.InducedBitChanges += inducedChanges
			if tr != nil {
				tr.Emit(obs.Event{Kind: obs.EpochSync, Epoch: res.Epochs + 1, Chip: ci,
					ModelNS: model + epoch, Count: changes, Induced: inducedChanges})
			}
			syncSpan.End(elapsed+epoch, &obs.Event{Count: changes})
			// Every chip's epoch occupies the wall clock: no overlap.
			elapsed += epoch
			turnSpan.End(elapsed, nil)
		}
		if cfg.PairStats {
			// Post-sync residual: a healthy zero-ignorance baseline
			// reports zero disagreement here every round.
			s.emitPairStats(tr, res.Epochs+1, model+epoch)
		}
		s.spPosNS = elapsed
		if s.frt != nil {
			s.watchdog(res.Epochs+1, tr)
		}
		stall := s.fabric.EndEpochSpanned(epoch, cfg.Spans, s.spEpoch, elapsed)
		if s.frt != nil {
			stall += s.frt.takeEpochStall(s.fabric)
		}
		elapsed += stall
		model += epoch
		res.Epochs++
		s.spEpoch.End(elapsed, &obs.Event{StallNS: stall})
		s.spEpoch = obs.Span{}
		s.drainStepRetries(tr, res.Epochs, model)
		if tr != nil {
			total := s.fabric.TotalBytes()
			tr.Emit(obs.Event{Kind: obs.FabricTransfer, Epoch: res.Epochs, ModelNS: model,
				Value: total - lastBytes, StallNS: stall})
			lastBytes = total
		}
		s.cfg.Metrics.Histogram("multichip.epoch_stall_ns").Observe(stall)
		if cfg.SampleEveryNS > 0 && elapsed >= nextSample {
			tr.Emit(obs.Event{Kind: obs.EnergySample, Epoch: res.Epochs, ModelNS: elapsed,
				Value: s.model.Energy(s.GlobalSpins())})
			nextSample = elapsed + cfg.SampleEveryNS
		}
	}
	s.collect(ModeSequential, res, model, elapsed)
	return res, nil, nil
}
