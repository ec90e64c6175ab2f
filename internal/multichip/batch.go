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
	cfg := &s.cfg
	// Batch mode never clips its last epoch: every job gets whole epochs,
	// and model time is the epoch count times the epoch length.
	totalEpochs := int(math.Ceil(durationNS / cfg.EpochNS))
	horizon := float64(totalEpochs) * cfg.EpochNS
	f, err := s.startRun(ctx, ModeBatch, durationNS, horizon, jobs, resume)
	if err != nil {
		return nil, nil, err
	}
	pos, tr := &f.pos, f.tr
	var states [][]int8
	if resume != nil {
		states = cloneStates(resume.JobStates)
	} else {
		// Independent initial states per job, derived from the system
		// seed.
		jobRNG := rng.New(cfg.Seed).Fork(0xBA7C)
		states = make([][]int8, jobs)
		for j := range states {
			states[j] = ising.RandomSpins(s.n, jobRNG)
		}
		pos.BestSoFarBits = math.Float64bits(math.Inf(1))
	}
	pos.ModelNS = float64(pos.EpochsDone) * cfg.EpochNS

	// Within an epoch each chip works a different job (when jobs >=
	// chips), so the per-chip work is independent and can run on
	// goroutines; per-chip results are merged after the barrier so the
	// outcome is bit-identical either way. A writeback's fate is resolved
	// inside the worker (the injector is stateless), but all shared
	// accounting — fabric charges, stats, events, delayed-writeback
	// queuing — happens in the merge loop in chip order.
	type chipEpoch struct {
		flips, induced     int64
		changes, inducedCh int
		job                int
		sent               bool // the writeback went through the fault layer
		fate               messageFate
	}
	perChip := make([]chipEpoch, len(s.slices))
	var st EpochStat // this epoch's activity, merged over chips

	next := func() (float64, float64, bool) {
		return cfg.EpochNS, float64(totalEpochs-pos.EpochsDone) * cfg.EpochNS, pos.EpochsDone < totalEpochs
	}
	body := func(no int, _ float64) (float64, error) {
		e := no - 1
		if len(perChip) != len(s.slices) {
			// Repartition rebuilt the chip set.
			perChip = make([]chipEpoch, len(s.slices))
		}
		if s.frt != nil {
			// Last epoch's delayed writebacks land before any chip
			// loads a job — late but in-order delivery.
			for _, wb := range s.frt.pendingBatch {
				writeBack(states[wb.Job], wb.Updates)
			}
			s.frt.pendingBatch = s.frt.pendingBatch[:0]
		}
		work := func(ci int, sl *Slice) error {
			c := &sl.chip
			if cfg.Spans != nil {
				defer func(w0 time.Time) { c.epochWallNS = time.Since(w0).Nanoseconds() }(time.Now())
			}
			perChip[ci] = chipEpoch{}
			if s.dead(ci) || s.held(ci) {
				// Dead or transiently stalled: this chip's job receives
				// no annealing this epoch and writes nothing back, and the
				// barrier reports no flips for it.
				c.resetEpochCounters()
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
				changes: len(ups), inducedCh: int(inducedCount(ups)), job: job}
			payload := ups
			if s.frt != nil && len(ups) > 0 {
				// The whole epoch writeback is one message.
				pe.sent, pe.fate = true, s.frt.resolve(no, ci, ups)
				payload = pe.fate.payload
			}
			if !pe.sent || (pe.fate.delivered && !pe.fate.delayed) {
				// Otherwise the epoch's work evaporates, or lands late.
				writeBack(states[job], payload)
			}
			perChip[ci] = pe
			return nil
		}
		var badChip int
		var chipErr error
		if jobs >= len(s.slices) {
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
			return 0, f.diverged(no, badChip, float64(e)*cfg.EpochNS, chipErr)
		}
		// Chip intervals land before the merge accounting so the barrier
		// position can advance to the sync point for recovery spans.
		s.emitChipSpans(pos.ElapsedNS, cfg.EpochNS)
		s.spPosNS = pos.ElapsedNS + cfg.EpochNS
		st = EpochStat{}
		for ci, sl := range s.slices {
			pe := &perChip[ci]
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
				s.fabric.Record(ci, bytes)
			}
			if pe.sent {
				s.send(no, ci, &pe.fate, bytes, int64(pe.changes), true, tr)
				if pe.fate.delayed {
					s.frt.pendingBatch = append(s.frt.pendingBatch,
						PendingWriteback{Job: pe.job, Updates: pe.fate.payload})
				}
			}
		}
		if sp := cfg.Spans; sp != nil {
			sp.Complete("sync", s.spEpoch, -1, pos.ElapsedNS+cfg.EpochNS, 0, 0,
				&obs.Event{Count: st.BitChanges})
		}
		pos.ModelNS = float64(no) * cfg.EpochNS
		return cfg.EpochNS, nil
	}
	late := func(no int) {
		pos.Flips += st.Flips
		pos.InducedFlips += st.InducedFlips
		pos.BitChanges += st.BitChanges
		pos.InducedBitChanges += st.InducedBitChanges
		s.drainStepRetries(tr, no, pos.ModelNS)
		if tr != nil {
			s.emitChipEpoch(tr, no, pos.ModelNS)
			tr.Emit(obs.Event{Kind: obs.EpochSync, Epoch: no, ModelNS: pos.ModelNS,
				Count: st.BitChanges, Induced: st.InducedBitChanges})
		}
	}
	// A sample is the best energy any job has shown at a sample point.
	energy := func() float64 {
		best := math.Float64frombits(pos.BestSoFarBits)
		for _, state := range states {
			if en := s.energy(state); en < best {
				best = en
			}
		}
		pos.BestSoFarBits = math.Float64bits(best)
		return best
	}
	ck, err := f.loop(epochMode{next: next, body: body, late: late, energy: energy})
	if err != nil && ck == nil {
		return nil, nil, err
	}
	if ck != nil {
		ck.JobStates = cloneStates(states)
	}
	return s.finalizeBatch(pos, states), ck, err
}

// cloneStates deep-copies the per-job global states.
func cloneStates(states [][]int8) [][]int8 {
	out := make([][]int8, len(states))
	for j, st := range states {
		out[j] = append([]int8(nil), st...)
	}
	return out
}

// writeBack applies a chip's epoch writeback to its job's global state.
func writeBack(state []int8, ups []PendingUpdate) {
	for _, u := range ups {
		state[u.G] = u.V
	}
}

// finalizeBatch assembles the batch result from the ledger and the job
// states — the time and traffic ledger, per-job energies and the winner
// — at completion or at the cancellation cut alike (where the ledger
// covers the epochs actually performed).
func (s *System) finalizeBatch(pos *Position, states [][]int8) *BatchResult {
	res := &BatchResult{
		Jobs:                 states,
		ModelNS:              pos.ModelNS,
		StallNS:              s.fabric.StallNS(),
		ElapsedNS:            pos.ElapsedNS,
		Flips:                pos.Flips,
		InducedFlips:         pos.InducedFlips,
		BitChanges:           pos.BitChanges,
		InducedBitChanges:    pos.InducedBitChanges,
		TrafficBytes:         s.fabric.TotalBytes(),
		PeakDemandBytesPerNS: s.fabric.PeakDemand(),
		Epochs:               pos.EpochsDone,
		Trace:                pos.Trace,
		EpochStats:           pos.EpochStats,
		LiveChips:            s.liveChips(),
		Energies:             make([]float64, len(states)),
		BestEnergy:           math.Inf(1),
		Best:                 -1,
	}
	if s.frt != nil {
		res.FaultStats = s.frt.stats
	}
	s.recordRunMetrics(ModeBatch, res.Flips, res.InducedFlips, res.BitChanges, res.InducedBitChanges,
		res.StallNS, res.TrafficBytes, res.Epochs)
	for j, state := range states {
		res.Energies[j] = s.energy(state)
		if res.Energies[j] < res.BestEnergy {
			res.BestEnergy = res.Energies[j]
			res.Best = j
		}
	}
	return res
}
