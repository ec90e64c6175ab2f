package multichip

import (
	"context"
	"fmt"
	"math"

	"mbrim/internal/obs"
)

// This file holds what every run mode does around a chip step, once:
// the resume preamble, the result-series collector, the epoch loop with
// its cancellation cut, the epoch span, the fault layer's barrier
// bookkeeping, the fabric's stall settle and its report, and the energy
// sampler. A run mode (system.go, sequential.go, batch.go) is an
// epochMode: who steps when, what crosses the fabric, and how model and
// elapsed time advance. Those differ between modes down to the last
// float bit, so the frame takes them from the mode and never recomputes
// them.

// runFrame is one run in progress: the system, the call's parameters,
// the position ledger and the run's event sink.
type runFrame struct {
	s          *System
	ctx        context.Context
	mode       string
	durationNS float64
	jobs       int
	pos        Position
	// tr fans the run's events out to Config.Tracer and to the collector
	// that materializes the ledger's series; nil when neither listens.
	tr obs.Tracer
}

// epochMode is what a run mode supplies to the frame.
type epochMode struct {
	// next returns the coming epoch's length, the model time the run has
	// left before it (the horizon a repartition hands its rebuilt
	// machines), and whether there is a coming epoch at all.
	next func() (epochNS, remainingNS float64, more bool)
	// body steps the chips through epoch no and synchronizes them,
	// advancing the ledger's model time and counters. It returns the time
	// the chips spent working side by side: the fabric settles at
	// ElapsedNS+overlapNS and elapsed time then advances by the overlap
	// plus the stall. A mode whose chips take turns advances ElapsedNS
	// turn by turn itself and returns zero.
	body func(no int, epochNS float64) (overlapNS float64, err error)
	// late, if set, emits what the mode reports after the epoch interval
	// has closed and before the fabric transfer; a mode without it has
	// its transfer reported inside the interval.
	late func(no int)
	// energy is the value of an energy sample.
	energy func() float64
}

// startRun is the preamble of every run: validate the call, then either
// load the resume checkpoint (machine state and position) or give fresh
// machines their horizon, and wire the series collector to the ledger.
func (s *System) startRun(ctx context.Context, mode string, durationNS, horizonNS float64, jobs int, resume *Checkpoint) (*runFrame, error) {
	if durationNS <= 0 {
		panic(fmt.Sprintf("multichip: duration=%v", durationNS))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	f := &runFrame{s: s, ctx: ctx, mode: mode, durationNS: durationNS, jobs: jobs}
	if resume != nil {
		if err := s.applyCheckpoint(resume, mode, durationNS, jobs); err != nil {
			return nil, err
		}
		f.pos = resume.Position.Clone()
	} else {
		s.setHorizon(horizonNS)
	}
	rc := &runCollector{}
	if s.cfg.RecordEpochStats {
		rc.epochStats = &f.pos.EpochStats
	}
	if s.cfg.Probes {
		rc.surprises = &f.pos.Surprises
	}
	if s.cfg.SampleEveryNS > 0 {
		rc.trace = &f.pos.Trace
	}
	f.tr = s.runTracer(rc)
	return f, nil
}

// clippedEpoch is the next of the modes that accumulate model time and
// clip the last epoch to the horizon.
func (f *runFrame) clippedEpoch() (epochNS, remainingNS float64, more bool) {
	left := f.durationNS - f.pos.ModelNS
	return math.Min(f.s.cfg.EpochNS, left), left, f.pos.ModelNS < f.durationNS-1e-9
}

// loop runs epochs until the mode has none left. Cancellation is honored
// at the barrier between epochs, the one consistent cut: it returns the
// checkpoint alongside ctx.Err(). A body error (integrator divergence)
// aborts with no checkpoint — mid-epoch is not a consistent state.
func (f *runFrame) loop(m epochMode) (*Checkpoint, error) {
	s, pos, tr := f.s, &f.pos, f.tr
	cfg := &s.cfg
	lastBytes := s.fabric.TotalBytes()
	done := f.ctx.Done()
	for {
		epochNS, remainingNS, more := m.next()
		if !more {
			return nil, nil
		}
		select {
		case <-done:
			ck := &Checkpoint{Mode: f.mode, DurationNS: f.durationNS, Jobs: f.jobs, Position: pos.Clone()}
			s.captureInto(ck)
			return ck, f.ctx.Err()
		default:
		}
		no := pos.EpochsDone + 1
		if sp := cfg.Spans; sp != nil {
			// The epoch interval opens on the elapsed (model + stall)
			// timeline, where epochs tile without overlap; recovery work
			// resolved before integration anchors at its start.
			s.spEpoch = sp.Start("epoch", cfg.SpanRoot, -1, pos.ElapsedNS)
			s.spPosNS = pos.ElapsedNS
		}
		if s.frt != nil {
			// Chip loss (with optional repartition) and this epoch's
			// stall draws, resolved at the barrier in chip order.
			flips, inducedFlips := s.beginFaultEpoch(no, remainingNS, tr)
			if f.mode != ModeBatch {
				// The single-job modes total their machines' flips at the
				// end; the machines a repartition retired leave theirs here.
				pos.Flips += flips
				pos.InducedFlips += inducedFlips
			}
		}
		overlapNS, err := m.body(no, epochNS)
		if err != nil {
			return nil, err
		}
		pos.EpochsDone = no
		stall := s.fabric.EndEpochSpanned(epochNS, cfg.Spans, s.spEpoch, pos.ElapsedNS+overlapNS)
		if s.frt != nil {
			// Recovery stall (retransmit backoff, repartition
			// reprogramming) holds the machine just like congestion.
			stall += s.frt.takeEpochStall(s.fabric)
		}
		pos.ElapsedNS += overlapNS + stall
		if m.late != nil {
			s.endEpochSpan(pos.ElapsedNS, stall)
			m.late(no)
		}
		if tr != nil {
			total := s.fabric.TotalBytes()
			tr.Emit(obs.Event{Kind: obs.FabricTransfer, Epoch: no, ModelNS: pos.ModelNS,
				Value: total - lastBytes, StallNS: stall})
			lastBytes = total
		}
		if m.late == nil {
			s.endEpochSpan(pos.ElapsedNS, stall)
		}
		cfg.Metrics.Histogram("multichip.epoch_stall_ns").Observe(stall)
		if cfg.SampleEveryNS > 0 && pos.ElapsedNS >= pos.NextSampleNS {
			tr.Emit(obs.Event{Kind: obs.EnergySample, Epoch: no, ModelNS: pos.ElapsedNS, Value: m.energy()})
			pos.NextSampleNS = pos.ElapsedNS + cfg.SampleEveryNS
		}
	}
}

// diverged reports a chip's integrator failure in epoch no, which began
// at model time fromNS, and wraps it for the caller.
func (f *runFrame) diverged(no, chip int, fromNS float64, err error) error {
	emitIf(f.tr, obs.Event{Kind: obs.Numerical, Label: "divergence", Epoch: no, Chip: chip, ModelNS: fromNS})
	return fmt.Errorf("multichip: chip %d: %w", chip, err)
}
