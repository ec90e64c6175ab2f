package multichip

import (
	"sort"

	"mbrim/internal/fault"
	"mbrim/internal/interconnect"
	"mbrim/internal/obs"
)

// This file threads the fault-injection layer (internal/fault) through
// the multiprocessor runtime: message faults on the epoch-boundary
// broadcasts, transient chip stalls, permanent chip loss, and the
// recovery policies — CRC detect + bounded retransmit, the
// shadow-staleness watchdog, and graceful degradation by repartition.
// Everything here is inert (s.frt == nil) unless Config.Faults is
// enabled, keeping fault-free runs bit-identical to the seed
// simulation.

// faultRuntime is the per-run mutable state of the fault layer. All
// mutation happens at epoch barriers on one goroutine; the injector
// itself is stateless and may be consulted from chip goroutines.
type faultRuntime struct {
	inj  *fault.Injector
	dead []bool // per-chip permanent-loss flags (current chip indexing)
	// holds marks chips whose integration freezes this epoch; computed
	// at the epoch barrier in chip order so event emission and
	// schedules are deterministic under host parallelism.
	holds []bool
	// pending are delayed boundary broadcasts awaiting delivery at the
	// next epoch (concurrent/sequential modes). From uses the chip
	// indexing current at send time; repartition clears the queue, so
	// the index never dangles.
	pending []PendingMessage
	// pendingBatch are delayed batch-mode writebacks keyed by job.
	pendingBatch []PendingWriteback
	// epochStallNS is recovery stall accumulated this epoch (retransmit
	// backoff, repartition reprogramming), drained by takeEpochStall.
	epochStallNS float64
	stats        fault.Stats
}

func newFaultRuntime(inj *fault.Injector) *faultRuntime {
	return &faultRuntime{inj: inj}
}

// emit forwards an event when tracing is live.
func emitIf(tr obs.Tracer, e obs.Event) {
	if tr != nil {
		tr.Emit(e)
	}
}

// takeEpochStall drains the recovery stall accumulated this epoch,
// charging it to the fabric's stall ledger so Result.StallNS stays the
// one honest total.
func (frt *faultRuntime) takeEpochStall(f *interconnect.Fabric) float64 {
	ns := frt.epochStallNS
	frt.epochStallNS = 0
	if ns > 0 {
		f.AddStall(ns)
	}
	return ns
}

// dead reports whether chip ci is permanently lost.
func (s *System) dead(ci int) bool { return s.frt != nil && s.frt.dead[ci] }

// held reports whether chip ci's integrator is frozen this epoch.
func (s *System) held(ci int) bool { return s.frt != nil && s.frt.holds[ci] }

// liveFanout counts the live receivers of chip ci's broadcasts.
func (s *System) liveFanout(ci int) int {
	n := 0
	for di := range s.slices {
		if di != ci && !s.frt.dead[di] {
			n++
		}
	}
	return n
}

// liveChips counts chips still operating.
func (s *System) liveChips() int {
	n := 0
	for ci := range s.slices {
		if !s.dead(ci) {
			n++
		}
	}
	return n
}

// beginFaultEpoch runs the epoch-start fault bookkeeping at the
// barrier, in chip order: permanent chip loss (with optional
// repartition recovery, which rebuilds s.slices), then this epoch's
// transient stall draws. remainingNS is the model time left in the
// run — the horizon handed to repartitioned machines.
func (s *System) beginFaultEpoch(epochNo int, remainingNS float64, tr obs.Tracer) {
	frt := s.frt
	if frt.dead == nil || len(frt.dead) != len(s.slices) {
		frt.dead = make([]bool, len(s.slices))
	}
	if victim, lost := frt.inj.LostChip(epochNo); lost && !frt.dead[victim] {
		frt.dead[victim] = true
		frt.stats.ChipLosses++
		emitIf(tr, obs.Event{Kind: obs.Fault, Label: "chip-loss", Epoch: epochNo,
			Chip: victim, Count: int64(len(s.slices[victim].chip.owned))})
		s.cfg.Metrics.Counter("fault.chip_losses").Inc()
		if frt.inj.Config().Recovery.Repartition && s.liveChips() >= 1 && len(s.slices) > 1 {
			s.repartition(victim, epochNo, remainingNS, tr)
		}
	}
	if len(frt.holds) != len(s.slices) {
		frt.holds = make([]bool, len(s.slices))
	}
	for ci := range s.slices {
		frt.holds[ci] = false
		if frt.dead[ci] {
			continue
		}
		if frt.inj.ChipStalled(epochNo, ci) {
			frt.holds[ci] = true
			frt.stats.Stalls++
			emitIf(tr, obs.Event{Kind: obs.Fault, Label: "stall", Epoch: epochNo, Chip: ci})
			s.cfg.Metrics.Counter("fault.stalls").Inc()
		}
	}
}

// repartition is the graceful-degradation recovery: the dead chip's
// slice is redistributed round-robin onto the survivors, which are
// reprogrammed (via the same chip-construction machinery the
// reconfigurable module array uses) and warm-started from the current
// global truth. The cost is charged honestly: each survivor broadcasts
// a bitmap of its newly acquired spins (kind "resync") and the system
// stalls RepartitionNSPerSpin per moved spin while coupler rows are
// rewritten.
func (s *System) repartition(victim, epochNo int, remainingNS float64, tr obs.Tracer) {
	frt := s.frt
	global := s.GlobalSpins() // includes the dead chip's frozen slice
	moved := s.slices[victim].chip.owned
	var survivors []int
	for ci := range s.slices {
		if !frt.dead[ci] {
			survivors = append(survivors, ci)
		}
	}
	if len(survivors) == 0 {
		return
	}
	parts := make([][]int, len(survivors))
	added := make([]int, len(survivors))
	for i, ci := range survivors {
		parts[i] = append([]int(nil), s.slices[ci].chip.owned...)
	}
	for i, g := range moved {
		parts[i%len(parts)] = append(parts[i%len(parts)], g)
		added[i%len(parts)]++
	}
	newSlices := make([]*Slice, len(survivors))
	for i, part := range parts {
		sort.Ints(part)
		// Survivors keep their original brim seed and kick stream under
		// their new index.
		old := survivors[i]
		ns := s.newSlice(i, part, s.cfg.Seed+uint64(old), global, s.slices[old].induce)
		ns.chip.machine.SetHorizon(remainingNS)
		newSlices[i] = ns
	}
	s.slices = newSlices
	frt.dead = make([]bool, len(newSlices))
	frt.holds = make([]bool, len(newSlices))
	// In-flight delayed broadcasts describe the old configuration; the
	// full warm-start from global truth supersedes them.
	frt.pending = nil

	resyncBytes := 0.0
	for i := range newSlices {
		if added[i] == 0 || len(newSlices) == 1 {
			continue
		}
		b := float64(added[i]) / 8 * float64(len(newSlices)-1)
		s.fabric.Record(i, b, "resync")
		resyncBytes += b
	}
	stallNS := frt.inj.Config().Recovery.RepartitionNSPerSpin * float64(len(moved))
	frt.epochStallNS += stallNS
	frt.stats.Repartitions++
	frt.stats.ResyncBytes += resyncBytes
	frt.stats.RecoveryStallNS += stallNS
	emitIf(tr, obs.Event{Kind: obs.Recovery, Label: "repartition", Epoch: epochNo,
		Chip: victim, Count: int64(len(moved)), Value: resyncBytes, StallNS: stallNS})
	s.spanPoint("recovery_repartition", victim, stallNS, int64(len(moved)), stallNS)
	s.cfg.Metrics.Counter("fault.repartitions").Inc()
}

// deliverPending applies last epoch's delayed broadcasts, in send
// order, before the current boundary's fresh updates are computed —
// late but in-order delivery.
func (s *System) deliverPending() {
	frt := s.frt
	for _, msg := range frt.pending {
		s.applyBroadcast(msg.From, msg.Updates)
	}
	frt.pending = frt.pending[:0]
}

// applyBroadcast delivers chip from's payload to every other live chip.
func (s *System) applyBroadcast(from int, ups []PendingUpdate) {
	for di, d := range s.slices {
		if di != from && !s.dead(di) {
			d.deliver(ups)
		}
	}
}

// faultSend pushes one boundary broadcast through the fault layer:
// charge the send, resolve drop/corrupt (with CRC detect + bounded
// retransmit when enabled), then deliver — immediately, one epoch
// late, corrupted, or not at all. The caller counts the bit changes as
// transmitted whatever their fate, matching the fault-free accounting.
func (s *System) faultSend(epochNo, ci int, ups []PendingUpdate, tr obs.Tracer) {
	frt := s.frt
	cfg := frt.inj.Config()
	sl := s.slices[ci]
	fanout := s.liveFanout(ci)
	bytes := interconnect.DeltaSyncBytes(len(ups), len(sl.chip.owned), fanout)
	s.fabric.Record(ci, bytes, "sync")

	plan := frt.inj.Message(epochNo, ci, 0)
	if plan.Drop {
		frt.stats.Drops++
		emitIf(tr, obs.Event{Kind: obs.Fault, Label: "drop", Epoch: epochNo, Chip: ci,
			Count: int64(len(ups))})
		s.cfg.Metrics.Counter("fault.drops").Inc()
	} else if plan.Corrupt {
		frt.stats.Corruptions++
		emitIf(tr, obs.Event{Kind: obs.Fault, Label: "corrupt", Epoch: epochNo, Chip: ci,
			Count: int64(len(ups))})
		s.cfg.Metrics.Counter("fault.corruptions").Inc()
	}

	delivered := true
	corrupt := plan.Corrupt
	salt := plan.Salt
	if plan.Faulted() && cfg.Recovery.Detect {
		// CRC caught the damage; retransmit with backoff, bounded.
		corrupt = false
		delivered = false
		attempts := 0
		for a := 1; a <= cfg.Recovery.MaxRetransmits; a++ {
			attempts++
			s.fabric.Record(ci, bytes, "retransmit")
			frt.stats.Retransmits++
			frt.stats.RetransmitBytes += bytes
			frt.stats.RecoveryStallNS += cfg.Recovery.RetransmitBackoffNS
			frt.epochStallNS += cfg.Recovery.RetransmitBackoffNS
			if !frt.inj.Message(epochNo, ci, a).Faulted() {
				delivered = true
				break
			}
		}
		emitIf(tr, obs.Event{Kind: obs.Recovery, Label: "retransmit", Epoch: epochNo,
			Chip: ci, Count: int64(attempts), Value: bytes * float64(attempts),
			StallNS: cfg.Recovery.RetransmitBackoffNS * float64(attempts)})
		backoff := cfg.Recovery.RetransmitBackoffNS * float64(attempts)
		s.spanPoint("recovery_retransmit", ci, backoff, int64(attempts), backoff)
		s.cfg.Metrics.Counter("fault.retransmits").Add(int64(attempts))
		if !delivered {
			// Retries exhausted: the sender KNOWS delivery failed, so
			// it keeps its belief ledger stale and the changes ride the
			// next boundary sync naturally.
			return
		}
	} else if plan.Drop {
		// Undetected loss: the sender believes it delivered. Commit the
		// belief ledger but never touch the shadows — silent staleness.
		delivered = false
	}

	// The sender now believes the payload landed (true for clean and
	// corrupted deliveries, silently false for undetected drops).
	sl.commit(ups)
	if !delivered {
		return
	}

	payload := ups
	if corrupt {
		payload = corrupted(ups, salt)
	}
	if plan.Delay {
		frt.stats.Delays++
		emitIf(tr, obs.Event{Kind: obs.Fault, Label: "delay", Epoch: epochNo, Chip: ci,
			Count: int64(len(ups))})
		s.cfg.Metrics.Counter("fault.delays").Inc()
		frt.pending = append(frt.pending, PendingMessage{From: ci, Updates: payload})
		return
	}
	s.applyBroadcast(ci, payload)
}

// corrupted returns a copy of the payload with one salt-chosen update's
// value inverted — the undetected bit error.
func corrupted(ups []PendingUpdate, salt uint64) []PendingUpdate {
	out := append([]PendingUpdate(nil), ups...)
	i := int(salt % uint64(len(out)))
	out[i].V = -out[i].V
	return out
}

// watchdog is the shadow-staleness recovery: after the boundary sync,
// any live chip whose receiver shadows diverge from its true readout
// by more than the threshold broadcasts a full bitmap of its slice,
// repairing every shadow and the belief ledger at full-bitmap cost.
// All receivers of a broadcast apply identical payloads, so one
// representative receiver measures the divergence exactly.
func (s *System) watchdog(epochNo int, tr obs.Tracer) {
	frt := s.frt
	th := frt.inj.Config().Recovery.WatchdogThreshold
	if th <= 0 || len(s.slices) < 2 {
		return
	}
	for ci, sl := range s.slices {
		if frt.dead[ci] {
			continue
		}
		c := &sl.chip
		recv := -1
		for di := range s.slices {
			if di != ci && !frt.dead[di] {
				recv = di
				break
			}
		}
		if recv == -1 {
			continue
		}
		cur := c.machine.Spins()
		sh := s.slices[recv].chip.shadow
		stale := 0
		for li, g := range c.owned {
			if sh[g] != cur[li] {
				stale++
			}
		}
		div := float64(stale) / float64(len(c.owned))
		s.cfg.Metrics.Histogram("fault.divergence").Observe(div)
		if div <= th {
			continue
		}
		fanout := s.liveFanout(ci)
		bytes := float64(len(c.owned)) / 8 * float64(fanout)
		s.fabric.Record(ci, bytes, "resync")
		for di, d := range s.slices {
			if di == ci || frt.dead[di] {
				continue
			}
			for li, g := range c.owned {
				d.chip.applyShadowUpdate(g, cur[li])
			}
		}
		copy(sl.belief, cur)
		// Drop any delayed broadcast from this chip still in flight: the
		// bitmap supersedes it, and late delivery would re-stale the
		// freshly repaired shadows.
		kept := frt.pending[:0]
		for _, msg := range frt.pending {
			if msg.From != ci {
				kept = append(kept, msg)
			}
		}
		frt.pending = kept
		frt.stats.Resyncs++
		frt.stats.ResyncBytes += bytes
		emitIf(tr, obs.Event{Kind: obs.Recovery, Label: "resync", Epoch: epochNo,
			Chip: ci, Count: int64(len(c.owned)), Value: bytes, Aux: div})
		s.spanPoint("recovery_resync", ci, 0, int64(len(c.owned)), 0)
		s.cfg.Metrics.Counter("fault.resyncs").Inc()
	}
}

// accountBatchSend does the shared-state half of a batch-mode fault
// resolution at the barrier merge, in chip order: fabric retransmit
// charges, stall, stats, and events. bytes is the clean send's fabric
// cost (already recorded under "sync"); count is the writeback size.
func (s *System) accountBatchSend(epochNo, ci int, plan fault.MessagePlan, attempts int, lost, delayed bool, bytes float64, count int64, tr obs.Tracer) {
	frt := s.frt
	cfg := frt.inj.Config()
	if plan.Drop {
		frt.stats.Drops++
		emitIf(tr, obs.Event{Kind: obs.Fault, Label: "drop", Epoch: epochNo, Chip: ci, Count: count})
		s.cfg.Metrics.Counter("fault.drops").Inc()
	} else if plan.Corrupt {
		frt.stats.Corruptions++
		emitIf(tr, obs.Event{Kind: obs.Fault, Label: "corrupt", Epoch: epochNo, Chip: ci, Count: count})
		s.cfg.Metrics.Counter("fault.corruptions").Inc()
	}
	if attempts > 0 {
		for a := 0; a < attempts; a++ {
			s.fabric.Record(ci, bytes, "retransmit")
		}
		frt.stats.Retransmits += int64(attempts)
		frt.stats.RetransmitBytes += bytes * float64(attempts)
		backoff := cfg.Recovery.RetransmitBackoffNS * float64(attempts)
		frt.stats.RecoveryStallNS += backoff
		frt.epochStallNS += backoff
		emitIf(tr, obs.Event{Kind: obs.Recovery, Label: "retransmit", Epoch: epochNo,
			Chip: ci, Count: int64(attempts), Value: bytes * float64(attempts), StallNS: backoff})
		s.spanPoint("recovery_retransmit", ci, backoff, int64(attempts), backoff)
		s.cfg.Metrics.Counter("fault.retransmits").Add(int64(attempts))
	}
	if delayed && !lost {
		frt.stats.Delays++
		emitIf(tr, obs.Event{Kind: obs.Fault, Label: "delay", Epoch: epochNo, Chip: ci, Count: count})
		s.cfg.Metrics.Counter("fault.delays").Inc()
	}
}

// resolveBatchSend decides the fate of one batch-mode writeback
// broadcast without touching shared state, so chip goroutines can call
// it; the barrier merge does the accounting. It returns whether the
// payload lands, whether it lands a full epoch late, how many
// retransmit attempts were spent, and the (possibly corrupted)
// payload to apply.
func (frt *faultRuntime) resolveBatchSend(epochNo, ci int, ups []PendingUpdate) (delivered, delayed bool, attempts int, plan fault.MessagePlan, payload []PendingUpdate) {
	cfg := frt.inj.Config()
	plan = frt.inj.Message(epochNo, ci, 0)
	payload = ups
	delivered = true
	corrupt := plan.Corrupt
	if plan.Faulted() && cfg.Recovery.Detect {
		corrupt = false
		delivered = false
		for a := 1; a <= cfg.Recovery.MaxRetransmits; a++ {
			attempts++
			if !frt.inj.Message(epochNo, ci, a).Faulted() {
				delivered = true
				break
			}
		}
	} else if plan.Drop {
		delivered = false
	}
	if delivered && corrupt {
		payload = corrupted(ups, plan.Salt)
	}
	delayed = delivered && plan.Delay
	return delivered, delayed, attempts, plan, payload
}
