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
// run — the horizon handed to repartitioned machines. It returns the
// flip totals of the machines a repartition retired (zero otherwise).
func (s *System) beginFaultEpoch(epochNo int, remainingNS float64, tr obs.Tracer) (flips, inducedFlips int64) {
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
			flips, inducedFlips = s.repartition(victim, epochNo, remainingNS, tr)
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
	return flips, inducedFlips
}

// repartition is the graceful-degradation recovery: the dead chip's
// slice is redistributed round-robin onto the survivors, which are
// reprogrammed (via the same chip-construction machinery the
// reconfigurable module array uses) and warm-started from the current
// global truth. The cost is charged honestly: each survivor broadcasts
// a bitmap of its newly acquired spins (counted as resync bytes) and the
// system stalls interconnect.ReprogramNSPerSpin per moved spin while
// coupler rows are rewritten. It returns the flip totals of the
// machines it retires, which the fresh ones do not carry.
func (s *System) repartition(victim, epochNo int, remainingNS float64, tr obs.Tracer) (flips, inducedFlips int64) {
	frt := s.frt
	global := s.GlobalSpins() // includes the dead chip's frozen slice
	moved := s.slices[victim].chip.owned
	var survivors []int
	for ci, sl := range s.slices {
		if !frt.dead[ci] {
			survivors = append(survivors, ci)
		}
		flips += sl.chip.machine.Flips()
		inducedFlips += sl.chip.machine.InducedFlips()
	}
	if len(survivors) == 0 {
		return 0, 0
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
		b := float64(float64(added[i]) / 8 * float64(len(newSlices)-1))
		s.fabric.Record(i, b)
		resyncBytes += b
	}
	stallNS := float64(interconnect.ReprogramNSPerSpin * float64(len(moved)))
	frt.epochStallNS += stallNS
	frt.stats.Repartitions++
	frt.stats.ResyncBytes += resyncBytes
	frt.stats.RecoveryStallNS += stallNS
	emitIf(tr, obs.Event{Kind: obs.Recovery, Label: "repartition", Epoch: epochNo,
		Chip: victim, Count: int64(len(moved)), Value: resyncBytes, StallNS: stallNS})
	s.spanPoint("recovery_repartition", victim, stallNS, int64(len(moved)), stallNS)
	s.cfg.Metrics.Counter("fault.repartitions").Inc()
	return flips, inducedFlips
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

// messageFate is the resolved fate of one boundary message — a
// concurrent or sequential chip's broadcast, a batch chip's job
// writeback: what the injector planned for it, how many retransmits CRC
// detection spent on it, and what finally happens to the payload.
type messageFate struct {
	plan     fault.MessagePlan
	attempts int
	// delivered: the payload lands, this barrier or (delayed) the next.
	// believed: the sender holds it delivered — true for clean and
	// corrupted deliveries and, silently wrong, for undetected drops;
	// false only when detection exhausted its retransmits, so the sender
	// knows, keeps its belief ledger stale, and the changes ride the next
	// boundary sync naturally.
	delivered, believed, delayed bool
	// payload is what lands: ups, or a copy with one update inverted.
	payload []PendingUpdate
}

// resolve decides the fate of chip ci's epoch-epochNo message: drop or
// corrupt, CRC detect with bounded retransmit, delay. It only hashes
// (the injector is stateless) and touches no shared state, so chip
// goroutines may call it; send does the accounting at the barrier.
func (frt *faultRuntime) resolve(epochNo, ci int, ups []PendingUpdate) messageFate {
	rec := frt.inj.Config().Recovery
	f := messageFate{plan: frt.inj.Message(epochNo, ci, 0), delivered: true, believed: true, payload: ups}
	corrupt := f.plan.Corrupt
	if f.plan.Faulted() && rec.Detect {
		// CRC caught the damage; retransmit with backoff, bounded.
		corrupt = false
		f.delivered = false
		for a := 1; a <= rec.MaxRetransmits; a++ {
			f.attempts++
			if !frt.inj.Message(epochNo, ci, a).Faulted() {
				f.delivered = true
				break
			}
		}
		f.believed = f.delivered
	} else if f.plan.Drop {
		// Undetected loss: nothing lands and nobody knows.
		f.delivered = false
	}
	if f.delivered && corrupt {
		f.payload = corrupted(ups, f.plan.Salt)
	}
	f.delayed = f.delivered && f.plan.Delay
	return f
}

// send does the shared-state half of a resolved message at the barrier,
// in chip order: the retransmit burst's fabric charges and stall, the
// stats ledger, events and counters. bytes is the clean send's fabric
// cost (the caller has recorded it under "sync"); count is the message
// size in updates. The caller counts the bit changes as transmitted
// whatever their fate, matching the fault-free accounting. lump charges
// the burst's bytes and backoff to the float ledgers as one product
// (batch mode) instead of once per attempt (concurrent and sequential);
// the two round differently for a non-dyadic backoff.
func (s *System) send(epochNo, ci int, f *messageFate, bytes float64, count int64, lump bool, tr obs.Tracer) {
	frt := s.frt
	if f.plan.Drop {
		frt.stats.Drops++
		emitIf(tr, obs.Event{Kind: obs.Fault, Label: "drop", Epoch: epochNo, Chip: ci, Count: count})
		s.cfg.Metrics.Counter("fault.drops").Inc()
	} else if f.plan.Corrupt {
		frt.stats.Corruptions++
		emitIf(tr, obs.Event{Kind: obs.Fault, Label: "corrupt", Epoch: epochNo, Chip: ci, Count: count})
		s.cfg.Metrics.Counter("fault.corruptions").Inc()
	}
	if f.attempts > 0 {
		n := float64(f.attempts)
		backoffNS := frt.inj.Config().Recovery.RetransmitBackoffNS
		for a := 0; a < f.attempts; a++ {
			s.fabric.Record(ci, bytes)
			if !lump {
				frt.chargeRetransmit(bytes, backoffNS)
			}
		}
		if lump {
			frt.chargeRetransmit(float64(bytes*n), float64(backoffNS*n))
		}
		frt.stats.Retransmits += int64(f.attempts)
		emitIf(tr, obs.Event{Kind: obs.Recovery, Label: "retransmit", Epoch: epochNo,
			Chip: ci, Count: int64(f.attempts), Value: bytes * n, StallNS: backoffNS * n})
		s.spanPoint("recovery_retransmit", ci, backoffNS*n, int64(f.attempts), backoffNS*n)
		s.cfg.Metrics.Counter("fault.retransmits").Add(int64(f.attempts))
	}
	if f.delayed {
		frt.stats.Delays++
		emitIf(tr, obs.Event{Kind: obs.Fault, Label: "delay", Epoch: epochNo, Chip: ci, Count: count})
		s.cfg.Metrics.Counter("fault.delays").Inc()
	}
}

// chargeRetransmit adds retransmitted bytes and their backoff stall to
// the float ledgers.
func (frt *faultRuntime) chargeRetransmit(bytes, stallNS float64) {
	frt.stats.RetransmitBytes += bytes
	frt.stats.RecoveryStallNS += stallNS
	frt.epochStallNS += stallNS
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
		bytes := float64(float64(len(c.owned)) / 8 * float64(fanout))
		s.fabric.Record(ci, bytes)
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
