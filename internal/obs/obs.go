// Package obs is the repository's observability layer: a lightweight,
// zero-dependency (stdlib-only) tracing and metrics surface threaded
// through every solver engine.
//
// # Event taxonomy
//
// A run emits a stream of typed, timestamped Events. The taxonomy
// mirrors the quantities the paper's evaluation is built from:
//
//   - RunStart / RunEnd bracket one solve: engine, seed, problem size,
//     then the uniform ledger (best energy, model ns vs wall ns, flip
//     totals). Emitted by the core orchestration layer.
//   - ChipStep: one chip finished integrating one epoch — per-epoch
//     flip and induced-flip counts (the time axis of Figs 13/15).
//   - InducedKick: the annealing kicks a chip applied during an epoch
//     (Sec 5.4.2's coordinated-flip accounting).
//   - EpochSync: a boundary belief synchronization — the bit changes
//     actually communicated over the fabric, and the induced subset.
//   - FabricTransfer: the fabric's epoch settlement — bytes moved and
//     congestion stall (the Fig 12 time-to-solution components).
//   - Probe: an ignorance / energy-surprise measurement (Fig 9).
//   - EnergySample: an (elapsed time, energy) trajectory sample.
//   - Fault: an injected fabric or chip fault (Label discriminates:
//     "drop", "corrupt", "delay", "stall", "chip-loss").
//   - Recovery: recovery-policy activity (Label discriminates:
//     "retransmit", "resync", "repartition"), with the traffic and
//     stall it cost.
//   - Numerical: integrator-guardrail activity — halved-step retries
//     spent during an epoch, or the divergence abort itself (Label
//     discriminates: "step-retry", "divergence").
//   - SpanStart / SpanEnd: hierarchical interval markers (solve →
//     epoch → chip step → sync/recovery), produced by a Spanner when
//     span tracing is explicitly enabled. Span carries the interval
//     ID, Parent links it to the enclosing interval.
//   - PairStat: a partition-quality measurement for one directed chip
//     pair — how much of the owner's state the observer's shadow copy
//     has wrong (the Burns & Huang disagreement measure). Emitted only
//     when diagnostics are explicitly enabled.
//
// # Sinks
//
// A Tracer is any consumer of the stream. The package ships a JSONL
// sink (one JSON object per line, for archiving and offline analysis),
// a fixed-capacity in-memory Ring (for tests and live inspection), and
// Fanout to drive several sinks at once. Engine result series
// (per-epoch stats, probe samples, energy traces) are themselves
// assembled by internal consumers of this stream rather than by
// parallel bookkeeping.
//
// # Overhead
//
// Tracing is off by default: a nil Tracer in an engine config skips
// every emission site behind a single branch, and all sites sit at
// epoch/sweep boundaries, never inside integration inner loops. The
// no-op path adds no measurable cost to the hot benchmarks. Sinks and
// the metrics Registry are goroutine-safe, so Parallel chip goroutines
// may record concurrently.
package obs

import "time"

// Kind names an event type. Kinds marshal as readable strings so JSONL
// traces are self-describing.
type Kind string

// The event taxonomy. See the package comment for semantics.
const (
	RunStart       Kind = "run_start"
	ChipStep       Kind = "chip_step"
	InducedKick    Kind = "induced_kick"
	EpochSync      Kind = "epoch_sync"
	FabricTransfer Kind = "fabric_transfer"
	Probe          Kind = "probe"
	EnergySample   Kind = "energy_sample"
	Fault          Kind = "fault"
	Recovery       Kind = "recovery"
	Numerical      Kind = "numerical"
	RunEnd         Kind = "run_end"
	SpanStart      Kind = "span_start"
	SpanEnd        Kind = "span_end"
	PairStat       Kind = "pair_stat"
	EntrantStart   Kind = "entrant_start"
	EntrantEnd     Kind = "entrant_end"
	PortfolioWin   Kind = "portfolio_win"
)

// Event is one trace record. It is a flat value type so emission never
// allocates; which fields are meaningful depends on Kind:
//
//	RunStart:       Label (engine), Seed, Count (problem spins),
//	                Value (planned duration ns, 0 for software engines)
//	ChipStep:       Epoch, Chip, Count (flips), Induced (induced
//	                flips), ModelNS (model time at epoch end)
//	InducedKick:    Epoch, Chip, Count (kicks applied this epoch)
//	EpochSync:      Epoch, Count (bit changes), Induced (induced bit
//	                changes), ModelNS
//	FabricTransfer: Epoch, Value (bytes this epoch), StallNS, ModelNS
//	Probe:          Epoch, Chip, Value (energy surprise), Aux (degree
//	                of ignorance)
//	EnergySample:   ModelNS (elapsed ns; sweep/step ordinal for
//	                software engines), Value (energy), Epoch/Chip when
//	                scoped
//	Fault:          Label (fault class), Epoch, Chip, Count (updates
//	                affected, when applicable)
//	Recovery:       Label (policy), Epoch, Chip, Count (attempts or
//	                spins moved), Value (bytes charged), StallNS
//	                (recovery stall charged), Aux (divergence fraction
//	                for "resync")
//	Numerical:      integrator guardrail activity (Label
//	                discriminates: "step-retry" with Count halved-step
//	                retries a chip spent during the epoch;
//	                "divergence" when the run aborts), Epoch, Chip,
//	                ModelNS
//	RunEnd:         Label (engine), Value (best energy), ModelNS,
//	                StallNS, Count (flips), Induced, WallDurNS
//	SpanStart:      Label (span name), Span (interval ID), Parent
//	                (enclosing interval ID, 0 for the root), ModelNS
//	                (model-time position at open), Chip and Peer
//	                (chip+1) for chip-scoped intervals
//	SpanEnd:        Span, Label, ModelNS (model-time position at
//	                close), Value (model-time duration), WallDurNS
//	                (measured wall duration), Count/StallNS/Aux when
//	                the interval carries work totals
//	PairStat:       Epoch, Chip (observer), Peer (owner chip + 1),
//	                Count (stale shadow spins), Value (disagreement
//	                fraction over the owner's slice), ModelNS
//	EntrantStart:   a portfolio race entrant launches — Label (entrant
//	                engine kind), Chip (entrant index), Seed (entrant's
//	                effective seed)
//	EntrantEnd:     an entrant finishes or is cancelled — Label (kind),
//	                Chip (index), Value (best energy), Count (1 when
//	                the entrant was interrupted, 0 when it completed),
//	                WallDurNS (entrant wall time)
//	PortfolioWin:   the race's win attribution — Label (winning engine
//	                kind), Chip (winner index), Value (winning energy),
//	                Count (1 when the race ended first-to-target)
//
// Peer is always a 1-based chip identity (chip index + 1), so that
// chip 0 survives the omitempty JSON encoding; 0 means "no peer".
//
// Trace and Origin carry distributed context: Trace is a run-scoped
// trace identifier shared by every process contributing to one
// distributed solve, and Origin names the emitting node ("co" for the
// coordinator, "w0", "w1", … for workers). Both are zero for
// single-process runs and are stamped by a StampTracer (worker side)
// or the federation collector (coordinator side) rather than by
// emission sites.
//
// WallNS is the wall-clock timestamp stamped by the sink at emission,
// and WallDurNS on span events is a measured duration; those two are
// the only fields excluded from determinism guarantees.
type Event struct {
	Kind      Kind    `json:"kind"`
	WallNS    int64   `json:"wallNS,omitempty"`
	ModelNS   float64 `json:"modelNS,omitempty"`
	Epoch     int     `json:"epoch,omitempty"`
	Chip      int     `json:"chip,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
	Count     int64   `json:"count,omitempty"`
	Induced   int64   `json:"induced,omitempty"`
	Value     float64 `json:"value,omitempty"`
	Aux       float64 `json:"aux,omitempty"`
	StallNS   float64 `json:"stallNS,omitempty"`
	WallDurNS int64   `json:"wallDurNS,omitempty"`
	Span      uint64  `json:"span,omitempty"`
	Parent    uint64  `json:"parent,omitempty"`
	Peer      int     `json:"peer,omitempty"`
	Label     string  `json:"label,omitempty"`
	Trace     uint64  `json:"trace,omitempty"`
	Origin    string  `json:"origin,omitempty"`
}

// Tracer consumes a run's event stream. Implementations must be safe
// for concurrent Emit calls. Engine configs hold a Tracer that is nil
// by default: every emission site guards with a nil check, which is
// the entire cost of the disabled path.
type Tracer interface {
	Emit(Event)
}

// Fanout composes tracers into one that forwards every event to each,
// in order. Nil entries are skipped; zero live tracers yield nil (the
// disabled path), one yields it unwrapped.
func Fanout(ts ...Tracer) Tracer {
	live := liveTracers(ts)
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiTracer(live)
}

func liveTracers(ts []Tracer) []Tracer {
	live := make([]Tracer, 0, len(ts))
	for _, t := range ts {
		if t != nil {
			live = append(live, t)
		}
	}
	return live
}

type multiTracer []Tracer

func (m multiTracer) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}

// StampWall is Fanout with one wall stamp at its head: an event the
// producer left unstamped gets WallNS set to the current time once,
// before it is forwarded. The sinks stamp an unstamped event themselves,
// each with its own clock reading on its own copy; sinks that must agree
// on an event's WallNS — a run's replay ring and its live tail — sit
// behind one StampWall instead. Zero live tracers yield nil.
func StampWall(ts ...Tracer) Tracer {
	live := liveTracers(ts)
	if len(live) == 0 {
		return nil
	}
	return wallStamper(live)
}

type wallStamper []Tracer

func (w wallStamper) Emit(e Event) {
	if e.WallNS == 0 {
		e.WallNS = time.Now().UnixNano()
	}
	for _, t := range w {
		t.Emit(e)
	}
}

// StampTracer wraps tr so every event passing through carries the
// distributed trace context: Trace is set to traceID when the event
// has none, and Origin to origin when the event has none. It is the
// export half of cross-process span propagation — a cluster worker
// stamps its slice streams with the coordinator-assigned trace ID so
// the federation collector can tell runs apart on a shared node, and
// the coordinator stamps its own stream "co". A nil tr yields nil (the
// disabled path).
func StampTracer(tr Tracer, traceID uint64, origin string) Tracer {
	if tr == nil {
		return nil
	}
	return &stampTracer{tr: tr, trace: traceID, origin: origin}
}

type stampTracer struct {
	tr     Tracer
	trace  uint64
	origin string
}

func (s *stampTracer) Emit(e Event) {
	if e.Trace == 0 {
		e.Trace = s.trace
	}
	if e.Origin == "" {
		e.Origin = s.origin
	}
	s.tr.Emit(e)
}
