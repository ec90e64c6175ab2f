package multichip

import (
	"context"
	"fmt"
	"math"
	"time"

	"mbrim/internal/fault"
	"mbrim/internal/interconnect"
	"mbrim/internal/ising"
	"mbrim/internal/metrics"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
)

// BatchResult reports a batch-mode run.
type BatchResult struct {
	// Jobs holds the final global state of every job; Energies their
	// energies; Best indexes the winner.
	Jobs     [][]int8
	Energies []float64
	Best     int
	// BestEnergy is Energies[Best].
	BestEnergy float64
	// Time ledger, as in Result.
	ModelNS, StallNS, ElapsedNS float64
	// Activity counters, as in Result. BitChanges here counts the
	// cumulative per-epoch state changes actually communicated — the
	// quantity whose ratio to Flips is Fig 13.
	Flips, InducedFlips, BitChanges, InducedBitChanges int64
	TrafficBytes, PeakDemandBytesPerNS                 float64
	Epochs                                             int
	// Trace holds (elapsed ns, best-job energy) samples.
	Trace []metrics.Point
	// EpochStats holds per-epoch activity if requested.
	EpochStats []EpochStat
	// FaultStats ledgers injected faults and recovery work when the
	// fault layer was enabled (zero otherwise).
	FaultStats fault.Stats
	// LiveChips is the number of chips still operating at run end.
	LiveChips int
}

// RunBatch runs `jobs` staggered annealing jobs of the same problem
// from different initial states (Sec 5.5). Each epoch, every chip
// works on a different job: it loads the job's state, anneals its own
// slice, and broadcasts the resulting bit changes. durationNS is the
// annealing time each job receives.
//
// With Coordinated set, receivers reproduce the worker's induced
// kicks from their synchronized PRNG replica, so kick-caused changes
// are not transmitted — the Sec 5.4.2 saving applied to batch mode.
// It panics on integrator divergence; callers that need lifecycle
// control use RunBatchCtx.
func (s *System) RunBatch(jobs int, durationNS float64) *BatchResult {
	res, _, err := s.RunBatchCtx(context.Background(), jobs, durationNS, nil)
	if err != nil {
		panic(err)
	}
	return res
}

// RunBatchCtx is RunBatch with lifecycle control, with the same
// contract as RunConcurrentCtx: cancellation returns the partial
// result plus a resumable Checkpoint alongside ctx.Err() (checked at
// epoch barriers); divergence aborts with the typed error and no
// checkpoint. The checkpoint carries every job's state and the
// rotation position, so a resumed run assigns job (chip+epoch) mod
// jobs exactly as the uninterrupted one would.
func (s *System) RunBatchCtx(ctx context.Context, jobs int, durationNS float64, resume *Checkpoint) (*BatchResult, *Checkpoint, error) {
	if jobs < 1 {
		panic(fmt.Sprintf("multichip: jobs=%d", jobs))
	}
	if durationNS <= 0 {
		panic(fmt.Sprintf("multichip: duration=%v", durationNS))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := s.cfg
	totalEpochs := int(math.Ceil(durationNS / cfg.EpochNS))
	horizon := float64(totalEpochs) * cfg.EpochNS

	res := &BatchResult{Best: -1}
	elapsed := 0.0
	nextSample := 0.0
	bestSoFar := math.Inf(1)
	startEpoch := 0
	var states [][]int8
	if resume != nil {
		if err := s.applyCheckpoint(resume, ModeBatch, durationNS, jobs); err != nil {
			return nil, nil, err
		}
		states = make([][]int8, jobs)
		for j := range states {
			states[j] = append([]int8(nil), resume.JobStates[j]...)
		}
		startEpoch = resume.EpochsDone
		res.Epochs = resume.EpochsDone
		res.Flips = resume.Flips
		res.InducedFlips = resume.InducedFlips
		res.BitChanges = resume.BitChanges
		res.InducedBitChanges = resume.InducedBitChanges
		res.Trace = append([]metrics.Point(nil), resume.Trace...)
		res.EpochStats = append([]EpochStat(nil), resume.EpochStats...)
		elapsed = resume.ElapsedNS
		nextSample = resume.NextSampleNS
		bestSoFar = math.Float64frombits(resume.BestSoFarBits)
	} else {
		s.setHorizon(horizon)
		// Independent initial states per job, derived from the system
		// seed.
		jobRNG := rng.New(cfg.Seed).Fork(0xBA7C)
		states = make([][]int8, jobs)
		for j := range states {
			states[j] = ising.RandomSpins(s.n, jobRNG)
		}
	}
	res.Jobs = states

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

	// Within an epoch each chip works a different job (when jobs >=
	// chips), so the per-chip work is independent and can run on
	// goroutines; per-chip results are merged after the barrier so the
	// outcome is bit-identical either way. Fault fates are resolved
	// inside the worker (the injector is stateless), but all shared
	// accounting — fabric charges, stats, events, delayed-writeback
	// queuing — happens in the merge loop in chip order.
	type chipEpoch struct {
		flips, induced     int64
		changes, inducedCh int
		planned            bool // fault layer consulted for this send
		plan               fault.MessagePlan
		attempts           int             // retransmits spent (Detect)
		lost               bool            // writeback never delivered
		delayedJob         int             // destination of a delayed writeback
		delayedUps         []PendingUpdate // payload of a delayed writeback
	}
	perChip := make([]chipEpoch, len(s.slices))
	parallelOK := jobs >= len(s.slices)

	for e := startEpoch; e < totalEpochs; e++ {
		select {
		case <-done:
			ck := &Checkpoint{Mode: ModeBatch, DurationNS: durationNS, Jobs: jobs}
			ck.EpochsDone = res.Epochs
			ck.ModelNS = float64(res.Epochs) * cfg.EpochNS
			ck.ElapsedNS = elapsed
			ck.NextSampleNS = nextSample
			ck.BestSoFarBits = math.Float64bits(bestSoFar)
			ck.Flips = res.Flips
			ck.InducedFlips = res.InducedFlips
			ck.BitChanges = res.BitChanges
			ck.InducedBitChanges = res.InducedBitChanges
			ck.Trace = append([]metrics.Point(nil), res.Trace...)
			ck.EpochStats = append([]EpochStat(nil), res.EpochStats...)
			ck.JobStates = make([][]int8, jobs)
			for j := range states {
				ck.JobStates[j] = append([]int8(nil), states[j]...)
			}
			s.captureInto(ck)
			s.finalizeBatch(res, states, float64(res.Epochs)*cfg.EpochNS, elapsed)
			return res, ck, ctx.Err()
		default:
		}
		if sp := cfg.Spans; sp != nil {
			s.spEpoch = sp.Start("epoch", cfg.SpanRoot, -1, elapsed)
			s.spPosNS = elapsed
		}
		if s.frt != nil {
			s.beginFaultEpoch(e+1, float64(totalEpochs-e)*cfg.EpochNS, tr)
			if len(perChip) != len(s.slices) {
				// Repartition rebuilt the chip set.
				perChip = make([]chipEpoch, len(s.slices))
				parallelOK = jobs >= len(s.slices)
			}
			// Last epoch's delayed writebacks land before any chip
			// loads a job — late but in-order delivery.
			for _, wb := range s.frt.pendingBatch {
				writeBack(states[wb.Job], wb.Updates)
			}
			s.frt.pendingBatch = s.frt.pendingBatch[:0]
		}
		var st EpochStat
		st.Epoch = e + 1
		work := func(ci int, sl *Slice) error {
			c := &sl.chip
			if cfg.Spans != nil {
				defer func(w0 time.Time) { c.epochWallNS = time.Since(w0).Nanoseconds() }(time.Now())
			}
			perChip[ci] = chipEpoch{}
			if s.dead(ci) || s.held(ci) {
				// Dead or transiently stalled: this chip's job receives
				// no annealing this epoch and writes nothing back.
				return nil
			}
			job := (ci + e) % jobs
			before := make([]int8, len(c.owned))
			for li, g := range c.owned {
				before[li] = states[job][g]
			}
			c.loadJobState(states[job])

			// Anneal the slice exactly as in concurrent mode, except that
			// kick draws cover owned spins only: Coordinated's saving is
			// applied to the writeback's traffic charge at the merge.
			if err := sl.step(float64(e)*cfg.EpochNS, cfg.EpochNS, horizon, false, false); err != nil {
				return err
			}

			// Write back and count the broadcast.
			ups := sl.diff(before)
			pe := chipEpoch{flips: c.epochFlips, induced: c.epochInducedFlips,
				changes: len(ups), inducedCh: int(inducedCount(ups))}
			if s.frt != nil && len(ups) > 0 {
				// The whole epoch writeback is one message; resolve its
				// fate here (pure draws), account at the barrier.
				delivered, delayed, attempts, plan, payload := s.frt.resolveBatchSend(e+1, ci, ups)
				pe.planned, pe.plan, pe.attempts = true, plan, attempts
				switch {
				case !delivered:
					pe.lost = true // the epoch's work evaporates
				case delayed:
					pe.delayedJob = job
					pe.delayedUps = payload
				default:
					writeBack(states[job], payload)
				}
			} else {
				writeBack(states[job], ups)
			}
			perChip[ci] = pe
			return nil
		}
		var badChip int
		var chipErr error
		if parallelOK {
			badChip, chipErr = s.forEachSlice(work)
		} else {
			// jobs < chips: two chips may share a job state; keep the
			// simulation sequential to stay deterministic.
			badChip = -1
			for ci, sl := range s.slices {
				if err := work(ci, sl); err != nil {
					badChip, chipErr = ci, err
					break
				}
			}
		}
		if chipErr != nil {
			emitIf(tr, obs.Event{Kind: obs.Numerical, Label: "divergence",
				Epoch: e + 1, Chip: badChip, ModelNS: float64(e) * cfg.EpochNS})
			return nil, nil, fmt.Errorf("multichip: chip %d: %w", badChip, chipErr)
		}
		// Chip intervals land before the merge accounting so the barrier
		// position can advance to the sync point for recovery spans.
		s.emitChipSpans(elapsed, cfg.EpochNS)
		s.spPosNS = elapsed + cfg.EpochNS
		for ci, sl := range s.slices {
			pe := perChip[ci]
			st.Flips += pe.flips
			st.InducedFlips += pe.induced
			st.BitChanges += int64(pe.changes)
			st.InducedBitChanges += int64(pe.inducedCh)
			transmitted := pe.changes
			if cfg.Coordinated {
				transmitted -= pe.inducedCh
			}
			bytes := 0.0
			if transmitted > 0 {
				bytes = interconnect.DeltaSyncBytes(transmitted, len(sl.chip.owned), len(s.slices)-1)
				s.fabric.Record(ci, bytes, "sync")
			}
			if pe.planned {
				s.accountBatchSend(e+1, ci, pe.plan, pe.attempts, pe.lost,
					pe.delayedUps != nil, bytes, int64(pe.changes), tr)
				if pe.delayedUps != nil {
					s.frt.pendingBatch = append(s.frt.pendingBatch,
						PendingWriteback{Job: pe.delayedJob, Updates: pe.delayedUps})
				}
			}
		}
		if sp := cfg.Spans; sp != nil {
			sp.Complete("sync", s.spEpoch, -1, elapsed+cfg.EpochNS, 0, 0,
				&obs.Event{Count: st.BitChanges})
		}
		stall := s.fabric.EndEpochSpanned(cfg.EpochNS, cfg.Spans, s.spEpoch, elapsed+cfg.EpochNS)
		if s.frt != nil {
			stall += s.frt.takeEpochStall(s.fabric)
		}
		st.StallNS = stall
		elapsed += cfg.EpochNS + stall
		res.Epochs++
		s.spEpoch.End(elapsed, &obs.Event{StallNS: stall})
		s.spEpoch = obs.Span{}
		res.Flips += st.Flips
		res.InducedFlips += st.InducedFlips
		res.BitChanges += st.BitChanges
		res.InducedBitChanges += st.InducedBitChanges
		s.drainStepRetries(tr, e+1, float64(e+1)*cfg.EpochNS)
		if tr != nil {
			model := float64(e+1) * cfg.EpochNS
			s.emitChipEpoch(tr, e+1, model)
			tr.Emit(obs.Event{Kind: obs.EpochSync, Epoch: e + 1, ModelNS: model,
				Count: st.BitChanges, Induced: st.InducedBitChanges})
			total := s.fabric.TotalBytes()
			tr.Emit(obs.Event{Kind: obs.FabricTransfer, Epoch: e + 1, ModelNS: model,
				Value: total - lastBytes, StallNS: stall})
			lastBytes = total
		}
		s.cfg.Metrics.Histogram("multichip.epoch_stall_ns").Observe(stall)
		if cfg.SampleEveryNS > 0 && elapsed >= nextSample {
			for _, state := range states {
				if en := s.model.Energy(state); en < bestSoFar {
					bestSoFar = en
				}
			}
			tr.Emit(obs.Event{Kind: obs.EnergySample, Epoch: e + 1, ModelNS: elapsed,
				Value: bestSoFar})
			nextSample = elapsed + cfg.SampleEveryNS
		}
	}

	s.finalizeBatch(res, states, float64(totalEpochs)*cfg.EpochNS, elapsed)
	return res, nil, nil
}

// writeBack applies a chip's epoch writeback to its job's global state.
func writeBack(state []int8, ups []PendingUpdate) {
	for _, u := range ups {
		state[u.G] = u.V
	}
}

// finalizeBatch fills the common batch-result fields: the time and
// traffic ledger, per-job energies and the winner. It serves both the
// normal completion path and the cancellation path (where the ledger
// covers the epochs actually performed).
func (s *System) finalizeBatch(res *BatchResult, states [][]int8, modelNS, elapsed float64) {
	res.ModelNS = modelNS
	res.StallNS = s.fabric.StallNS()
	res.ElapsedNS = elapsed
	res.TrafficBytes = s.fabric.TotalBytes()
	res.PeakDemandBytesPerNS = s.fabric.PeakDemand()
	res.LiveChips = s.liveChips()
	if s.frt != nil {
		res.FaultStats = s.frt.stats
	}
	s.recordRunMetrics(ModeBatch, res.Flips, res.InducedFlips, res.BitChanges, res.InducedBitChanges,
		res.StallNS, res.TrafficBytes, res.Epochs)
	res.Energies = make([]float64, len(states))
	res.BestEnergy = math.Inf(1)
	res.Best = -1
	for j, state := range states {
		res.Energies[j] = s.model.Energy(state)
		if res.Energies[j] < res.BestEnergy {
			res.BestEnergy = res.Energies[j]
			res.Best = j
		}
	}
}
