package multichip

import (
	"fmt"
	"math"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/rng"
)

// This file holds the per-chip unit of the multiprocessor, once. A
// Slice is one chip (a BRIM machine over its owned spins plus shadow
// registers for everything else), the belief ledger of what the other
// chips think those owned spins hold, and the chip's induced-kick PRNG.
// Everything a chip does inside and at the edge of an epoch is a Slice
// method: derivation from (model, Config, chip index), the
// flip-interval integrate/kick loop (step), the boundary diff against
// belief (diff, commit), shadow delivery (deliver), and snapshot and
// restore.
//
// Hostings differ only in who calls those methods and when. A System
// holds all k slices in one process; its run modes schedule step / diff
// / deliver directly and charge a modeled fabric and the modeled fault
// layer. internal/cluster holds one slice per worker process and drives
// it over the wire through RunEpoch, ApplySync, Snapshot and Restore,
// which wrap the same methods with a position ledger and validation of
// network input. Because both build slices through derive and step them
// through step, k isolated slices driven in lockstep — RunEpoch on
// each, then cross-delivery of the reported updates in ascending chip
// order — follow exactly the trajectory System.RunConcurrentCtx does.

// layout is what the slices of one system share, read-only once
// derived: the validated configuration, the coupling view chips are
// extracted from and energies are read through, and the global
// coupling normalization.
type layout struct {
	model *ising.Model
	cfg   Config
	n     int
	lat   lattice.Coupling
	scale float64
}

// energy is model.Energy(spins), bit for bit, at what the coupling view
// makes it cost: O(nnz) over CSR, popcounts over ±1 planes, the dense
// walk otherwise. Every energy a run reports — samples, probes,
// results, batch job energies — is read here.
func (l *layout) energy(spins []int8) float64 {
	return lattice.Energy(l.lat, spins, l.model.MuH())
}

// derivation is a system before any chip is built: the layout plus the
// head of the seed chain — partition, initial global spins, and the
// kick master every chip's induced-flip source descends from. rng.Fork
// and Clone leave their parent undisturbed, so building chip ci alone
// draws the same streams chip ci gets when all k are built.
type derivation struct {
	*layout
	parts   [][]int
	initial []int8
	kick    *rng.Source
}

// Partition validates cfg against an n-spin model and returns it with
// defaults applied, together with the spin partition (contiguous blocks
// unless cfg.Partition says otherwise). It is the head of the one
// derivation every hosting shares: NewSystem and NewSlice continue from
// it, and a coordinator that hosts no chip itself stops here and agrees
// with its workers on epoch length, channels and ownership by
// construction. Invalid user configuration is an error, never a panic.
func Partition(n int, cfg Config) (Config, [][]int, error) {
	c, err := cfg.withDefaults(n)
	if err != nil {
		return c, nil, err
	}
	parts := c.Partition
	if parts == nil {
		parts = graph.BlockPartition(n, c.Chips)
	} else {
		if len(parts) != c.Chips {
			return c, nil, fmt.Errorf("multichip: Partition has %d parts for %d chips", len(parts), c.Chips)
		}
		if err := validatePartition(parts, n, false); err != nil {
			return c, nil, fmt.Errorf("multichip: Partition: %w", err)
		}
	}
	return c, parts, nil
}

// derive validates cfg against m and runs the seed chain.
func derive(m *ising.Model, cfg Config) (derivation, error) {
	n := m.N()
	c, parts, err := Partition(n, cfg)
	if err != nil {
		return derivation{}, err
	}
	scale := m.MaxRowNorm2()
	if scale == 0 {
		scale = 1
	}
	master := rng.New(c.Seed)
	initial := ising.RandomSpins(n, master)
	return derivation{
		layout:  &layout{model: m, cfg: c, n: n, lat: m.View(lattice.Auto), scale: scale},
		parts:   parts,
		initial: initial,
		kick:    master.Fork(0xC0),
	}, nil
}

// validatePartition checks that parts assigns every spin 0..n-1 to
// exactly one non-empty part. ascending additionally requires each part
// to list its spins in strictly increasing order, the form every
// snapshot carries.
func validatePartition(parts [][]int, n int, ascending bool) error {
	seen := make([]bool, n)
	for pi, part := range parts {
		if len(part) == 0 {
			return fmt.Errorf("part %d is empty", pi)
		}
		prev := -1
		for _, g := range part {
			if g < 0 || g >= n || seen[g] || (ascending && g <= prev) {
				return fmt.Errorf("part %d: spin %d is out of range, repeated or out of order", pi, g)
			}
			seen[g] = true
			prev = g
		}
	}
	for g, ok := range seen {
		if !ok {
			return fmt.Errorf("spin %d is not covered", g)
		}
	}
	return nil
}

// slice builds chip ci as the derivation defines it: brim seed = Seed +
// chip index, kick source = a clone of the kick master when coordinated
// (one stream, replicated on every chip) or an independent fork of it.
func (d *derivation) slice(ci int) *Slice {
	induce := d.kick.Fork(uint64(ci) + 1)
	if d.cfg.Coordinated {
		induce = d.kick.Clone()
	}
	return d.newSlice(ci, d.parts[ci], d.cfg.Seed+uint64(ci), d.initial, induce)
}

// newSlice builds slice ci owning the given spins: its chip, seeded
// with seed and warm-started from the global state, a belief ledger in
// agreement with that state, and induce as its kick source. Checkpoint
// restore and repartition recovery build slices whose partition and
// seeds differ from the derivation's through here.
func (l *layout) newSlice(ci int, owned []int, seed uint64, global []int8, induce *rng.Source) *Slice {
	s := &Slice{layout: l, induce: induce}
	s.chip.init(l, ci, owned, seed, global)
	s.belief = s.chip.ownedSpins()
	return s
}

// Slice is one chip of a multiprocessor system with its share of the
// synchronization state. It is not safe for concurrent use; distinct
// slices of one system may be stepped concurrently.
type Slice struct {
	*layout
	chip chip
	// induce drives the chip's kick draws.
	induce *rng.Source
	// belief[li] is what every other chip currently believes owned spin
	// li holds. Boundary sync sends only disagreements; coordinated
	// kicks update it for free.
	belief []int8

	// Position ledger of a slice hosted in isolation (NewSlice),
	// advanced by RunEpoch. A System schedules step against its own run
	// clock and leaves these zero.
	durationNS float64
	modelNS    float64
	epochs     int
}

// EpochReport is what one slice tells the coordinator at an epoch
// barrier: the boundary broadcast (owned spins that changed since the
// last barrier), the owned readout, and the counters the coordinator
// ledgers.
type EpochReport struct {
	// Epoch is the 1-based epoch just completed; EpochNS its model
	// duration; ModelNS the slice's position after it.
	Epoch   int
	EpochNS float64
	ModelNS float64
	// Updates is the boundary broadcast in owned order.
	Updates []PendingUpdate
	// Spins is the owned readout after the epoch, in owned order — the
	// coordinator's global mirror (energy sampling, final assembly)
	// comes from these, so no separate readout RPC exists.
	Spins []int8
	// Flips / InducedFlips are the machine's CUMULATIVE counters (what
	// Result reads at run end); StepRetries is this epoch's.
	Flips        int64
	InducedFlips int64
	StepRetries  int64
}

// SliceState is a slice's resumable snapshot at an epoch barrier,
// after the barrier's cross-chip updates were applied (ApplySync). It
// is the hand-off unit of cluster recovery: a coordinator collects one
// per slice and either re-creates a lost worker's slice from it or
// assembles all of them into a full multichip Checkpoint
// (Checkpoint.SetSlices).
type SliceState struct {
	Chip       int       `json:"chip"`
	DurationNS float64   `json:"durationNS"`
	ModelNS    float64   `json:"modelNS"`
	Epochs     int       `json:"epochs"`
	State      ChipState `json:"state"`
	Belief     []int8    `json:"belief"`
	InduceRNG  [4]uint64 `json:"induceRNG"`
}

// NewSlice builds chip ci of the cfg.Chips-chip system over m without
// building the other chips. durationNS is the full run horizon (needed
// up front: induced-flip schedules are driven by run progress). The
// modeled fault layer belongs to the in-process simulator; a cluster
// solve meets real faults instead, so enabling Config.Faults here is an
// error.
func NewSlice(m *ising.Model, cfg Config, ci int, durationNS float64) (*Slice, error) {
	d, err := derive(m, cfg)
	if err != nil {
		return nil, err
	}
	if d.cfg.Faults.Enabled() {
		return nil, fmt.Errorf("multichip: slices host real distributed runs; the modeled fault layer (Config.Faults) is not supported")
	}
	if ci < 0 || ci >= d.cfg.Chips {
		return nil, fmt.Errorf("multichip: slice index %d of %d chips", ci, d.cfg.Chips)
	}
	if durationNS <= 0 || math.IsNaN(durationNS) {
		return nil, fmt.Errorf("multichip: slice duration=%v", durationNS)
	}
	s := d.slice(ci)
	s.durationNS = durationNS
	s.chip.machine.SetHorizon(durationNS)
	return s, nil
}

// Chip returns the slice's chip index.
func (s *Slice) Chip() int { return s.chip.id }

// Owned returns the global spin indices this slice owns, ascending.
func (s *Slice) Owned() []int { return append([]int(nil), s.chip.owned...) }

// Epochs returns how many epochs the slice has completed.
func (s *Slice) Epochs() int { return s.epochs }

// ModelNS returns the slice's model-time position.
func (s *Slice) ModelNS() float64 { return s.modelNS }

// Done reports whether the slice has reached its run horizon.
func (s *Slice) Done() bool { return s.modelNS >= s.durationNS-1e-9 }

// step is the one chip-epoch: it integrates epochNS of model time from
// run position fromNS in chunks of min(EpochNS, 1) ns, with an
// induced-flip draw after each chunk at schedule progress
// position/horizonNS. Chips only read each other through shadows, which
// change at barriers, so distinct slices may step concurrently. hold freezes the integrator
// for the epoch (a transiently stalled chip) while the digital kick
// PRNG keeps clocking, so coordinated replicas stay aligned across the
// fleet. coordinated is Config.Coordinated except in batch mode, where
// chips hold different jobs and there is no shared state for a
// replicated kick stream to act on.
func (s *Slice) step(fromNS, epochNS, horizonNS float64, coordinated, hold bool) error {
	c := &s.chip
	c.resetEpochCounters()
	interval := math.Min(s.cfg.EpochNS, 1)
	for t := 0.0; t < epochNS-1e-9; {
		chunk := math.Min(interval, epochNS-t)
		if !hold {
			if err := c.machine.Run(chunk); err != nil {
				return err
			}
		}
		t += chunk
		s.drawInduced((fromNS+t)/horizonNS, coordinated)
	}
	return nil
}

// drawInduced performs one induced-flip draw at the given schedule
// progress. A coordinated draw decides for every global spin (the same
// stream on every chip): owned spins get a kick, remote spins get their
// shadow toggled for free. An uncoordinated draw covers only owned
// spins; the changes ride the next boundary sync.
func (s *Slice) drawInduced(progress float64, coordinated bool) {
	prob := s.cfg.InducedFlip.At(progress)
	c := &s.chip
	if coordinated {
		for g := 0; g < s.n; g++ {
			if !s.induce.Bool(prob) {
				continue
			}
			if li := int(c.local[g]); li >= 0 {
				c.machine.Induce(li)
				c.epochKicks++
				// Receivers toggled their shadows too; their belief
				// tracks the kick without traffic.
				s.belief[li] = -s.belief[li]
			} else {
				c.applyShadowToggle(g)
			}
		}
		return
	}
	for li := range c.owned {
		if s.induce.Bool(prob) {
			c.machine.Induce(li)
			c.epochKicks++
		}
	}
}

// diff lists, in owned order, the owned spins whose readout differs
// from ref (owned-indexed) — against the belief ledger, the boundary
// broadcast.
func (s *Slice) diff(ref []int8) []PendingUpdate {
	c := &s.chip
	cur := c.machine.Spins()
	var ups []PendingUpdate
	for li, g := range c.owned {
		if cur[li] != ref[li] {
			ups = append(ups, PendingUpdate{Li: li, G: g, V: cur[li], Induced: c.lastFlipInduced[li]})
		}
	}
	return ups
}

// commit advances the belief ledger past a broadcast the sender holds
// to be delivered.
func (s *Slice) commit(ups []PendingUpdate) {
	for _, u := range ups {
		s.belief[u.Li] = u.V
	}
}

// deliver applies another chip's broadcast to the shadow registers and
// bias currents.
func (s *Slice) deliver(ups []PendingUpdate) {
	for _, u := range ups {
		s.chip.applyShadowUpdate(u.G, u.V)
	}
}

// inducedCount counts the updates whose last cause was an induced kick.
func inducedCount(ups []PendingUpdate) (n int64) {
	for _, u := range ups {
		if u.Induced {
			n++
		}
	}
	return n
}

// RunEpoch steps one epoch, then reports the boundary broadcast against
// the belief ledger and advances the ledger (the cluster wire is
// logically reliable — the coordinator retries until delivery, so sends
// are never lost). The caller must have delivered the previous
// barrier's cross-chip updates (ApplySync) first.
func (s *Slice) RunEpoch() (*EpochReport, error) {
	if s.Done() {
		return nil, fmt.Errorf("multichip: slice %d past its %v ns horizon", s.chip.id, s.durationNS)
	}
	epoch := math.Min(s.cfg.EpochNS, s.durationNS-s.modelNS)
	if err := s.step(s.modelNS, epoch, s.durationNS, s.cfg.Coordinated, false); err != nil {
		return nil, err
	}
	s.modelNS += epoch
	s.epochs++

	c := &s.chip
	rep := &EpochReport{
		Epoch:        s.epochs,
		EpochNS:      epoch,
		ModelNS:      s.modelNS,
		Updates:      s.diff(s.belief),
		Spins:        c.ownedSpins(),
		Flips:        c.machine.Flips(),
		InducedFlips: c.machine.InducedFlips(),
		// Draining the guardrail-retry ledger at every barrier keeps it
		// zero in snapshots.
		StepRetries: c.machine.TakeEpochRetries(),
	}
	s.commit(rep.Updates)
	return rep, nil
}

// ApplySync delivers a barrier's cross-chip updates — the other
// slices' EpochReport.Updates, concatenated by the coordinator in
// ascending chip order. Updates arrive over the network, so the batch
// is validated before any of it is applied; malformed items are errors,
// never panics.
func (s *Slice) ApplySync(ups []PendingUpdate) error {
	for _, u := range ups {
		if u.G < 0 || u.G >= s.n || (u.V != -1 && u.V != 1) {
			return fmt.Errorf("multichip: slice %d: invalid sync update g=%d v=%d", s.chip.id, u.G, u.V)
		}
		if s.chip.local[u.G] >= 0 {
			return fmt.Errorf("multichip: slice %d: sync update for owned spin %d", s.chip.id, u.G)
		}
	}
	s.deliver(ups)
	return nil
}

// Snapshot captures the slice at an epoch barrier, after the barrier's
// updates were delivered.
func (s *Slice) Snapshot() *SliceState {
	c := &s.chip
	return &SliceState{
		Chip:       s.chip.id,
		DurationNS: s.durationNS,
		ModelNS:    s.modelNS,
		Epochs:     s.epochs,
		State: ChipState{
			Owned:           append([]int(nil), c.owned...),
			Machine:         c.machine.Snapshot(),
			Shadow:          append([]int8(nil), c.shadow...),
			LastFlipInduced: append([]bool(nil), c.lastFlipInduced...),
		},
		Belief:    append([]int8(nil), s.belief...),
		InduceRNG: s.induce.State(),
	}
}

// Restore loads a snapshot onto a freshly built identical slice hosted
// in isolation, position ledger included. Snapshots cross the network,
// so every reach is validated; failures are errors, never panics.
func (s *Slice) Restore(st *SliceState) error {
	if st == nil {
		return fmt.Errorf("multichip: nil slice state")
	}
	if st.Chip != s.chip.id {
		return fmt.Errorf("multichip: state for slice %d restored onto slice %d", st.Chip, s.chip.id)
	}
	if st.DurationNS != s.durationNS {
		return fmt.Errorf("multichip: state horizon %v ns, slice horizon %v ns", st.DurationNS, s.durationNS)
	}
	if st.Epochs < 0 || !isFiniteRange(st.ModelNS, 0, s.durationNS) {
		return fmt.Errorf("multichip: state position epochs=%d model=%v", st.Epochs, st.ModelNS)
	}
	if err := s.restore(st); err != nil {
		return err
	}
	s.modelNS = st.ModelNS
	s.epochs = st.Epochs
	return nil
}

// restore loads a snapshot's chip, belief and kick-PRNG state — all of
// it but the position ledger, which belongs to whoever schedules the
// slice. The machine's Restore refuses a snapshot whose construction
// seed differs, which catches a state handed to the wrong chip.
func (s *Slice) restore(st *SliceState) error {
	c := &s.chip
	if len(st.State.Owned) != len(c.owned) {
		return fmt.Errorf("multichip: state owns %d spins, slice %d owns %d", len(st.State.Owned), s.chip.id, len(c.owned))
	}
	for i, g := range st.State.Owned {
		if g != c.owned[i] {
			return fmt.Errorf("multichip: state partition differs at owned[%d]: %d vs %d", i, g, c.owned[i])
		}
	}
	if st.State.Machine == nil || len(st.State.Machine.Spins) != len(c.owned) {
		return fmt.Errorf("multichip: slice %d state machine is missing or mis-sized", s.chip.id)
	}
	if len(st.State.Shadow) != s.n || len(st.State.LastFlipInduced) != len(c.owned) || len(st.Belief) != len(c.owned) {
		return fmt.Errorf("multichip: slice %d state shadow/attribution/belief tables are mis-sized", s.chip.id)
	}
	if err := validateSpins(st.State.Shadow); err != nil {
		return fmt.Errorf("multichip: slice %d state shadow: %w", s.chip.id, err)
	}
	if err := validateSpins(st.Belief); err != nil {
		return fmt.Errorf("multichip: slice %d state belief: %w", s.chip.id, err)
	}
	// Restore replaces voltages, readout, external bias, holds,
	// timekeeping and the PRNG position verbatim; the external bias must
	// NOT be recomputed from shadows (a fresh accumulation order would
	// not be bit-identical to the incrementally maintained one).
	if err := c.machine.Restore(st.State.Machine); err != nil {
		return fmt.Errorf("multichip: slice %d: %w", s.chip.id, err)
	}
	copy(c.shadow, st.State.Shadow)
	copy(c.lastFlipInduced, st.State.LastFlipInduced)
	copy(s.belief, st.Belief)
	s.induce.SetState(st.InduceRNG)
	return nil
}
