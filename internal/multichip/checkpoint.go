package multichip

import (
	"fmt"
	"math"

	"mbrim/internal/brim"
	"mbrim/internal/fault"
	"mbrim/internal/interconnect"
	"mbrim/internal/metrics"
	"mbrim/internal/rng"
)

// This file implements deterministic checkpoint/resume for all three
// run modes. A Checkpoint is captured only at an epoch barrier — the
// one point where every chip's integrator sits between steps, the
// fabric's open-epoch buckets are empty, and the delayed-message
// queues are quiescent — so the snapshot is a consistent cut of the
// whole machine. Resuming from it is bit-identical to a run that was
// never interrupted: the snapshot carries the exact PRNG stream
// positions (chip machines, induced-kick sources), every voltage and
// shadow register, the batch-rotation position (EpochsDone), and the
// in-flight fault state including delayed broadcasts.

// Run-mode names recorded in Checkpoint.Mode.
const (
	ModeConcurrent = "concurrent"
	ModeSequential = "sequential"
	ModeBatch      = "batch"
)

// PendingUpdate is one serializable item of a boundary-broadcast
// payload: the owner's local index Li / global index G now holds V;
// Induced records whether the change was last caused by a kick.
type PendingUpdate struct {
	Li      int  `json:"li"`
	G       int  `json:"g"`
	V       int8 `json:"v"`
	Induced bool `json:"induced,omitempty"`
}

// PendingMessage is one delayed boundary broadcast still in flight
// (a fault-injected delay awaiting next-epoch delivery).
type PendingMessage struct {
	From    int             `json:"from"`
	Updates []PendingUpdate `json:"updates"`
}

// PendingWriteback is one delayed batch-mode job writeback in flight.
type PendingWriteback struct {
	Job     int             `json:"job"`
	Updates []PendingUpdate `json:"updates"`
}

// FaultState snapshots the fault runtime's mutable state. The injector
// itself is stateless (fates are hashed from seed, epoch and chip), so
// resuming needs only the accumulated damage: dead chips, in-flight
// delayed messages, and the stats ledger.
type FaultState struct {
	Dead         []bool             `json:"dead"`
	Pending      []PendingMessage   `json:"pending,omitempty"`
	PendingBatch []PendingWriteback `json:"pendingBatch,omitempty"`
	Stats        fault.Stats        `json:"stats"`
}

// ChipState snapshots one chip: its partition slice, the full BRIM
// machine state (which carries the construction seed — after a
// repartition, survivors keep their original seeds, not positional
// ones), the shadow registers, and the kick-attribution bits.
type ChipState struct {
	Owned           []int       `json:"owned"`
	Machine         *brim.State `json:"machine"`
	Shadow          []int8      `json:"shadow"`
	LastFlipInduced []bool      `json:"lastFlipInduced"`
}

// Position is a run's ledger at an epoch barrier: where the epoch loop
// stands and what the run has accumulated so far. Every hosting keeps
// exactly one — the in-process run modes inside their epoch frame, the
// cluster coordinator beside its wire state — and Checkpoint embeds it,
// so capturing or restoring a run's position is one Clone.
type Position struct {
	// EpochsDone doubles as the batch-rotation position: epoch e
	// assigns job (chip+e) mod jobs.
	EpochsDone   int     `json:"epochsDone"`
	ModelNS      float64 `json:"modelNS"`
	ElapsedNS    float64 `json:"elapsedNS"`
	NextSampleNS float64 `json:"nextSampleNS"`
	// BestSoFarBits is batch mode's running best sampled energy as
	// IEEE-754 bits — it starts at +Inf, which JSON cannot carry.
	BestSoFarBits uint64 `json:"bestSoFarBits,omitempty"`
	// Partial run counters. Batch mode accumulates every epoch's flips
	// here; the single-job modes read their machines' totals at the end
	// and keep here only those of the machines a repartition retired.
	BitChanges        int64 `json:"bitChanges"`
	InducedBitChanges int64 `json:"inducedBitChanges"`
	Flips             int64 `json:"flips,omitempty"`
	InducedFlips      int64 `json:"inducedFlips,omitempty"`
	// Partial result series.
	Trace      []metrics.Point  `json:"trace,omitempty"`
	EpochStats []EpochStat      `json:"epochStats,omitempty"`
	Surprises  []SurpriseSample `json:"surprises,omitempty"`
}

// Clone copies the position, series included, so the copy and the
// running ledger never share a backing array. An empty series clones to
// nil, as a run that never sampled holds it.
func (p *Position) Clone() Position {
	c := *p
	c.Trace = append([]metrics.Point(nil), p.Trace...)
	c.EpochStats = append([]EpochStat(nil), p.EpochStats...)
	c.Surprises = append([]SurpriseSample(nil), p.Surprises...)
	return c
}

// Checkpoint is a complete, resumable snapshot of a run in progress,
// captured at an epoch barrier. It is an in-memory structure; the
// versioned serialized form lives in internal/checkpoint.
type Checkpoint struct {
	// Mode and the run parameters the checkpoint was taken under; a
	// resume validates them against the new call.
	Mode       string  `json:"mode"`
	DurationNS float64 `json:"durationNS"`
	Jobs       int     `json:"jobs,omitempty"`
	// Loop position and partial results.
	Position
	// Machine state.
	Chips          []ChipState         `json:"chips"`
	ReceiverBelief [][]int8            `json:"receiverBelief"`
	InduceRNG      [][4]uint64         `json:"induceRNG"`
	Fabric         *interconnect.State `json:"fabric"`
	Fault          *FaultState         `json:"fault,omitempty"`
	// JobStates is batch mode's per-job global state.
	JobStates [][]int8 `json:"jobStates,omitempty"`
}

// SetSlices fills the checkpoint's per-chip machine state (Chips,
// ReceiverBelief, InduceRNG) from one barrier snapshot per chip, in
// chip order. The states' own position ledgers are not consulted: the
// checkpoint's loop position belongs to whoever scheduled the slices.
func (ck *Checkpoint) SetSlices(states []*SliceState) {
	ck.Chips = make([]ChipState, len(states))
	ck.ReceiverBelief = make([][]int8, len(states))
	ck.InduceRNG = make([][4]uint64, len(states))
	for i, st := range states {
		ck.Chips[i] = st.State
		ck.ReceiverBelief[i] = st.Belief
		ck.InduceRNG[i] = st.InduceRNG
	}
}

// SliceStates is SetSlices' inverse: one snapshot per chip, positioned
// at the checkpoint's barrier. A concurrent-mode checkpoint split this
// way resumes on isolated slices exactly as it would in a System.
func (ck *Checkpoint) SliceStates() ([]*SliceState, error) {
	if len(ck.ReceiverBelief) != len(ck.Chips) || len(ck.InduceRNG) != len(ck.Chips) {
		return nil, fmt.Errorf("multichip: checkpoint belief/RNG tables do not match its %d chips", len(ck.Chips))
	}
	states := make([]*SliceState, len(ck.Chips))
	for i, cs := range ck.Chips {
		states[i] = &SliceState{Chip: i, DurationNS: ck.DurationNS, ModelNS: ck.ModelNS, Epochs: ck.EpochsDone,
			State: cs, Belief: ck.ReceiverBelief[i], InduceRNG: ck.InduceRNG[i]}
	}
	return states, nil
}

// PendingMessages returns the delayed boundary broadcasts currently in
// flight — fault-injected delays awaiting next-epoch delivery. Without
// this accessor a checkpoint would silently drop delayed messages and
// the resumed run would diverge from an uninterrupted one. Empty when
// the fault layer is off or nothing is delayed. Payloads are immutable
// once queued, so the copy shares them with the runtime.
func (s *System) PendingMessages() []PendingMessage {
	if s.frt == nil {
		return nil
	}
	return append([]PendingMessage(nil), s.frt.pending...)
}

// PendingWritebacks returns batch mode's delayed job writebacks in
// flight, for the same reason as PendingMessages.
func (s *System) PendingWritebacks() []PendingWriteback {
	if s.frt == nil {
		return nil
	}
	return append([]PendingWriteback(nil), s.frt.pendingBatch...)
}

// captureInto fills ck's machine-state fields (chips, beliefs, RNG
// positions, fabric, fault state) from the system at an epoch barrier.
// The caller has already filled the Position, which belongs to whoever
// runs the epoch loop.
func (s *System) captureInto(ck *Checkpoint) {
	states := make([]*SliceState, len(s.slices))
	for i, sl := range s.slices {
		states[i] = sl.Snapshot()
	}
	ck.SetSlices(states)
	ck.Fabric = s.fabric.Snapshot()
	if s.frt != nil {
		ck.Fault = &FaultState{
			Dead:         append([]bool(nil), s.frt.dead...),
			Pending:      s.PendingMessages(),
			PendingBatch: s.PendingWritebacks(),
			Stats:        s.frt.stats,
		}
	}
}

// CheckRun validates what a checkpoint says of its run against the call
// resuming it: mode, duration, job count, position and counters, and
// that it carries fabric state. Every hosting of a run calls it before
// its own checks, so a checkpoint one refuses, all refuse.
func (ck *Checkpoint) CheckRun(mode string, durationNS float64, jobs int) error {
	switch {
	case ck == nil:
		return fmt.Errorf("multichip: nil checkpoint")
	case ck.Mode != mode:
		return fmt.Errorf("multichip: checkpoint was taken in %s mode, resuming %s", ck.Mode, mode)
	case ck.DurationNS != durationNS:
		return fmt.Errorf("multichip: checkpoint duration %v ns, resuming %v ns", ck.DurationNS, durationNS)
	case ck.Jobs != jobs:
		return fmt.Errorf("multichip: checkpoint has %d jobs, resuming %d", ck.Jobs, jobs)
	case ck.EpochsDone < 0 || !isFiniteRange(ck.ModelNS, 0, durationNS) ||
		!isFiniteRange(ck.ElapsedNS, 0, math.MaxFloat64) ||
		!isFiniteRange(ck.NextSampleNS, 0, math.MaxFloat64):
		return fmt.Errorf("multichip: checkpoint position epochs=%d model=%v elapsed=%v next sample=%v",
			ck.EpochsDone, ck.ModelNS, ck.ElapsedNS, ck.NextSampleNS)
	case ck.BitChanges < 0 || ck.InducedBitChanges < 0 || ck.Flips < 0 || ck.InducedFlips < 0:
		return fmt.Errorf("multichip: negative checkpoint counters")
	case ck.Fabric == nil:
		return fmt.Errorf("multichip: checkpoint is missing fabric state")
	}
	return nil
}

// applyCheckpoint validates ck against this freshly constructed system
// and the resuming call's parameters, then loads it: the chip set is
// rebuilt to the checkpoint's partition (which may be narrower than
// the configuration after a repartition recovery) and every machine,
// shadow, belief, RNG, fabric counter and fault queue is restored
// exactly. Checkpoints may come from untrusted bytes, so every reach
// into an array is validated first; failures are errors, never panics.
func (s *System) applyCheckpoint(ck *Checkpoint, mode string, durationNS float64, jobs int) error {
	if err := ck.CheckRun(mode, durationNS, jobs); err != nil {
		return err
	}
	if len(ck.Chips) == 0 || len(ck.Chips) > s.cfg.Chips {
		return fmt.Errorf("multichip: checkpoint has %d chips for a %d-chip system", len(ck.Chips), s.cfg.Chips)
	}
	states, err := ck.SliceStates()
	if err != nil {
		return err
	}
	if (ck.Fault != nil) != (s.frt != nil) {
		return fmt.Errorf("multichip: checkpoint fault state does not match the fault configuration")
	}

	// The partition must cover every spin exactly once, and each chip
	// must carry the machine state the rebuild below reads; the rest of
	// a chip's state is validated by its slice's restore.
	parts := make([][]int, len(ck.Chips))
	for pi, cs := range ck.Chips {
		parts[pi] = cs.Owned
		if cs.Machine == nil || len(cs.Machine.Spins) != len(cs.Owned) {
			return fmt.Errorf("multichip: checkpoint chip %d machine state is missing or mis-sized", pi)
		}
	}
	if err := validatePartition(parts, s.n, true); err != nil {
		return fmt.Errorf("multichip: checkpoint partition: %w", err)
	}
	if mode == ModeBatch {
		if len(ck.JobStates) != jobs {
			return fmt.Errorf("multichip: checkpoint has %d job states for %d jobs", len(ck.JobStates), jobs)
		}
		for j, st := range ck.JobStates {
			if len(st) != s.n {
				return fmt.Errorf("multichip: checkpoint job %d state is mis-sized", j)
			}
			if err := validateSpins(st); err != nil {
				return fmt.Errorf("multichip: checkpoint job %d state: %w", j, err)
			}
		}
		totalEpochs := int(math.Ceil(durationNS / s.cfg.EpochNS))
		if ck.EpochsDone > totalEpochs {
			return fmt.Errorf("multichip: checkpoint at epoch %d of %d", ck.EpochsDone, totalEpochs)
		}
	}
	if ck.Fault != nil {
		fs := ck.Fault
		if len(fs.Dead) != len(ck.Chips) {
			return fmt.Errorf("multichip: checkpoint fault dead-table is mis-sized")
		}
		for _, msg := range fs.Pending {
			if msg.From < 0 || msg.From >= len(ck.Chips) {
				return fmt.Errorf("multichip: checkpoint pending message from chip %d", msg.From)
			}
			owned := ck.Chips[msg.From].Owned
			for _, u := range msg.Updates {
				if u.Li < 0 || u.Li >= len(owned) || owned[u.Li] != u.G || (u.V != -1 && u.V != 1) {
					return fmt.Errorf("multichip: checkpoint pending message has invalid update")
				}
			}
		}
		for _, wb := range fs.PendingBatch {
			if wb.Job < 0 || wb.Job >= jobs {
				return fmt.Errorf("multichip: checkpoint pending writeback for job %d", wb.Job)
			}
			for _, u := range wb.Updates {
				if u.G < 0 || u.G >= s.n || (u.V != -1 && u.V != 1) {
					return fmt.Errorf("multichip: checkpoint pending writeback has invalid update")
				}
			}
		}
	}

	// Rebuild the slices to the checkpoint's partition, each with the
	// brim seed its snapshot carries (after a repartition, survivors
	// keep their original seeds, not positional ones). The global
	// warm-start is immediately overwritten by each slice's restore;
	// assembling it from the snapshots just keeps construction from
	// inventing state.
	global := make([]int8, s.n)
	for _, cs := range ck.Chips {
		for li, g := range cs.Owned {
			global[g] = cs.Machine.Spins[li]
		}
	}
	slices := make([]*Slice, len(states))
	for i, st := range states {
		sl := s.newSlice(i, st.State.Owned, st.State.Machine.Seed, global, rng.New(0))
		if err := sl.restore(st); err != nil {
			return fmt.Errorf("multichip: checkpoint chip %d: %w", i, err)
		}
		slices[i] = sl
	}
	s.slices = slices
	if err := s.fabric.Restore(ck.Fabric); err != nil {
		return fmt.Errorf("multichip: %w", err)
	}
	if s.frt != nil {
		fs := ck.Fault
		s.frt.dead = append([]bool(nil), fs.Dead...)
		s.frt.holds = make([]bool, len(slices))
		s.frt.pending = append([]PendingMessage(nil), fs.Pending...)
		s.frt.pendingBatch = append([]PendingWriteback(nil), fs.PendingBatch...)
		s.frt.epochStallNS = 0
		s.frt.stats = fs.Stats
	}
	return nil
}

// isFiniteRange reports whether v is finite and within [lo, hi].
func isFiniteRange(v, lo, hi float64) bool {
	return !math.IsNaN(v) && v >= lo && v <= hi
}

// validateSpins rejects spin vectors the dynamics cannot have
// produced (anything but ±1).
func validateSpins(s []int8) error {
	for i, v := range s {
		if v != -1 && v != 1 {
			return fmt.Errorf("spin[%d]=%d", i, v)
		}
	}
	return nil
}
