// Fleet diagnostics: folding a federated cluster run's stream — the
// coordinator's own spans ("co") plus the worker streams its federation
// collector pulls and forwards ("w0", "w1", …) — into the per-worker
// attribution the rest of the Reducer cannot see: who the straggler
// is, how much barrier time each worker alone is responsible for, and
// how each epoch's wall splits between compute (the slowest worker's
// chip_step) and synchronization (everything the barrier adds on top).
//
// The fold is keyed on span parentage, not epoch numbers, because span
// events carry no Epoch field: the coordinator opens one "epoch"
// interval per barrier-to-barrier round and workers parent their
// chip_step intervals under it, so an epoch accumulator is keyed by the
// coordinator's epoch span ID. Worker events arrive late — the
// collector pulls once per checkpoint round — so accumulators stay
// open until evicted; aggregation is additive and order-independent,
// which keeps the snapshot deterministic for a complete event set no
// matter how pulls interleaved.
package diag

import (
	"strconv"

	"mbrim/internal/obs"
)

// fleetMaxOpenEpochs bounds the per-epoch accumulator map. When
// exceeded, the oldest epochs are committed into the running aggregate
// and dropped; worker events for a committed epoch that arrive later
// (only possible after an extreme pull lag) are counted as late.
const fleetMaxOpenEpochs = 8192

// fleet is the Reducer's fold of a federated run. The Reducer makes one
// at the first coordinator- or worker-stamped event and holds its own
// lock around every call; the fleet size is not announced anywhere in
// the stream, so the worker table grows to the highest ordinal heard
// from (a spare that never hosts a slice is not counted).
type fleet struct {
	traceID uint64
	epochs  map[uint64]*fleetEpoch
	order   []uint64 // insertion order of open epoch span IDs
	workers []fleetWorker

	committedEpochs int
	syncNS          float64
	computeNS       float64
	stallNS         float64
	recoveryStallNS float64
	replayedEpochs  int64
	lateEvents      int64
}

// fleetEpoch accumulates one coordinator epoch interval.
type fleetEpoch struct {
	wallNS  int64         // coordinator barrier-to-barrier wall
	stallNS float64       // fabric stall charged at the barrier
	steps   map[int]int64 // worker ordinal → max chip_step wall
	closed  bool          // coordinator SpanEnd seen
}

// fleetWorker is one worker's running totals.
type fleetWorker struct {
	epochs      int
	stepWallNS  int64
	maxStepNS   int64
	stragglerNS int64 // barrier time attributable to this worker alone
	flips       int64
	deaths      int
}

// observeFleet folds one origin-stamped event of a federated run.
// Caller holds r.mu.
func (r *Reducer) observeFleet(e obs.Event) {
	if r.fleet == nil {
		r.fleet = &fleet{epochs: map[uint64]*fleetEpoch{}}
	}
	r.fleet.observe(e)
}

// worker returns worker wi's totals, growing the table to reach it.
func (f *fleet) worker(wi int) *fleetWorker {
	for len(f.workers) <= wi {
		f.workers = append(f.workers, fleetWorker{})
	}
	return &f.workers[wi]
}

// observe folds one event. Only span and fault/recovery events matter;
// everything else is ignored.
func (f *fleet) observe(e obs.Event) {
	if f.traceID == 0 {
		f.traceID = e.Trace
	}
	switch e.Kind {
	case obs.SpanStart:
		if e.Origin == "co" && e.Label == "epoch" {
			f.openEpoch(e.Span)
		}
	case obs.SpanEnd:
		switch e.Label {
		case "epoch":
			if ep := f.epochs[e.Span]; ep != nil {
				ep.wallNS = e.WallDurNS
				ep.stallNS = e.StallNS
				ep.closed = true
			}
		case "chip_step":
			f.observeStep(e)
		}
	case obs.Fault:
		if e.Label == "worker-loss" && e.Chip >= 0 {
			f.worker(e.Chip).deaths++
		}
	case obs.Recovery:
		f.recoveryStallNS += e.StallNS
		f.replayedEpochs += e.Count
	}
}

func (f *fleet) openEpoch(span uint64) {
	if _, ok := f.epochs[span]; ok {
		return
	}
	f.epochs[span] = &fleetEpoch{steps: map[int]int64{}}
	f.order = append(f.order, span)
	for len(f.order) > fleetMaxOpenEpochs {
		oldest := f.order[0]
		f.order = f.order[1:]
		if ep := f.epochs[oldest]; ep != nil {
			f.commit(ep)
			delete(f.epochs, oldest)
		}
	}
}

// observeStep folds one worker chip_step interval. The worker ordinal
// rides in Origin ("w3"); the owning epoch in Parent. A worker hosting
// several slices handles their step RPCs concurrently, so its per-epoch
// compute is the max of its slice walls, not the sum.
func (f *fleet) observeStep(e obs.Event) {
	wi, ok := WorkerOrigin(e.Origin)
	if !ok {
		return
	}
	w := f.worker(wi)
	w.flips += e.Count
	ep := f.epochs[e.Parent]
	if ep == nil {
		f.lateEvents++
		return
	}
	if prev, seen := ep.steps[wi]; !seen {
		w.epochs++
		ep.steps[wi] = e.WallDurNS
	} else if e.WallDurNS > prev {
		ep.steps[wi] = e.WallDurNS
	}
	if e.WallDurNS > w.maxStepNS {
		w.maxStepNS = e.WallDurNS
	}
	w.stepWallNS += e.WallDurNS
}

// commit folds a finished epoch accumulator into the running aggregate:
// the slowest worker's wall is the epoch's compute, the
// barrier-to-barrier remainder is synchronization, and the gap between
// the slowest and second-slowest worker is barrier wait the straggler
// alone caused.
func (f *fleet) commit(ep *fleetEpoch) {
	if len(ep.steps) == 0 {
		return
	}
	f.committedEpochs++
	f.stallNS += ep.stallNS
	slowest, max1, max2 := -1, int64(-1), int64(-1)
	for wi, wall := range ep.steps {
		if wall > max1 {
			max2 = max1
			max1, slowest = wall, wi
		} else if wall > max2 {
			max2 = wall
		}
	}
	f.computeNS += float64(max1)
	if ep.closed && ep.wallNS > max1 {
		f.syncNS += float64(ep.wallNS - max1)
	}
	if slowest >= 0 && max2 >= 0 {
		f.workers[slowest].stragglerNS += max1 - max2
	}
}

// snapshot returns the current fleet view, folding still-open epochs
// without committing them.
func (f *fleet) snapshot() FleetSnapshot {
	// Start from the committed aggregate, then overlay open epochs on a
	// scratch copy so a snapshot never commits anything itself.
	scratch := &fleet{
		workers:         append([]fleetWorker(nil), f.workers...),
		syncNS:          f.syncNS,
		computeNS:       f.computeNS,
		stallNS:         f.stallNS,
		committedEpochs: f.committedEpochs,
	}
	for _, span := range f.order {
		if ep := f.epochs[span]; ep != nil {
			scratch.commit(ep)
		}
	}

	s := FleetSnapshot{
		Workers:         len(f.workers),
		Epochs:          scratch.committedEpochs,
		ComputeNS:       scratch.computeNS,
		SyncNS:          scratch.syncNS,
		FabricStallNS:   scratch.stallNS,
		RecoveryStallNS: f.recoveryStallNS,
		ReplayedEpochs:  f.replayedEpochs,
		LateEvents:      f.lateEvents,
		Straggler:       -1,
	}
	if total := s.ComputeNS + s.SyncNS; total > 0 {
		s.SyncFraction = s.SyncNS / total
	}
	var worst int64
	for wi, w := range scratch.workers {
		wd := FleetWorkerDiag{
			Worker:      wi,
			Epochs:      w.epochs,
			StepWallNS:  w.stepWallNS,
			MaxStepNS:   w.maxStepNS,
			StragglerNS: w.stragglerNS,
			Flips:       w.flips,
			Deaths:      w.deaths,
		}
		if w.epochs > 0 {
			wd.MeanStepNS = float64(w.stepWallNS) / float64(w.epochs)
		}
		if w.stragglerNS > worst {
			worst = w.stragglerNS
			s.Straggler = wi
		}
		s.PerWorker = append(s.PerWorker, wd)
	}
	return s
}

// entrantOrigin parses a portfolio entrant's origin stamp ("e0", "e1",
// …) and WorkerOrigin a cluster worker's ("w0", "w12"): the two
// families of indexed origins. Every other stamp — the cluster
// coordinator's "co", none at all — is neither, and its events belong
// to the run's own top-level view.
func entrantOrigin(origin string) (int, bool) { return indexedOrigin(origin, 'e') }

// WorkerOrigin: see entrantOrigin.
func WorkerOrigin(origin string) (int, bool) { return indexedOrigin(origin, 'w') }

func indexedOrigin(origin string, family byte) (int, bool) {
	if len(origin) < 2 || origin[0] != family {
		return 0, false
	}
	n, err := strconv.Atoi(origin[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// FleetSnapshot is the fleet section of a federated cluster run's
// Snapshot.
type FleetSnapshot struct {
	// Workers counts worker ordinals up to the highest heard from.
	Workers int `json:"workers"`
	// Epochs is how many coordinator epoch intervals carried at least
	// one federated worker step.
	Epochs int `json:"epochs"`
	// ComputeNS sums each epoch's slowest worker wall; SyncNS the
	// barrier-to-barrier remainder on top of it. SyncFraction is
	// SyncNS/(ComputeNS+SyncNS) — the paper's sync-vs-compute ratio
	// measured on the live fleet rather than the model clock.
	ComputeNS    float64 `json:"computeNS"`
	SyncNS       float64 `json:"syncNS"`
	SyncFraction float64 `json:"syncFraction"`
	// FabricStallNS is modeled fabric stall charged at the folded
	// barriers; RecoveryStallNS modeled hand-off stall from recoveries.
	FabricStallNS   float64 `json:"fabricStallNS"`
	RecoveryStallNS float64 `json:"recoveryStallNS,omitempty"`
	ReplayedEpochs  int64   `json:"replayedEpochs,omitempty"`
	// Straggler is the ordinal of the worker with the most solo barrier
	// wait, -1 when no worker ever made the fleet wait.
	Straggler int               `json:"straggler"`
	PerWorker []FleetWorkerDiag `json:"perWorker,omitempty"`
	// LateEvents counts worker steps that arrived after their epoch was
	// evicted. (Worker ring events evicted before a pull never reach the
	// stream; the collector counts them in the process-wide
	// fleet_dropped_events counter.)
	LateEvents int64 `json:"lateEvents,omitempty"`
}

// FleetWorkerDiag is one worker's attribution.
type FleetWorkerDiag struct {
	Worker int `json:"worker"`
	// Epochs counts epoch intervals this worker contributed a step to.
	Epochs     int   `json:"epochs"`
	StepWallNS int64 `json:"stepWallNS"`
	MaxStepNS  int64 `json:"maxStepNS"`
	// MeanStepNS is StepWallNS/Epochs — per-worker epoch latency.
	MeanStepNS float64 `json:"meanStepNS,omitempty"`
	// StragglerNS is barrier wait this worker alone caused: the gap to
	// the second-slowest worker in epochs where it was slowest.
	StragglerNS int64 `json:"stragglerNS"`
	Flips       int64 `json:"flips"`
	Deaths      int   `json:"deaths,omitempty"`
}
