package obs

import (
	"sync/atomic"
	"time"
)

// Spanner turns a Tracer into a hierarchical interval recorder: Start
// opens an interval (emitting SpanStart), the returned Span's End
// closes it (emitting SpanEnd with the measured wall duration and the
// model-time duration). Interval IDs are allocated from a per-Spanner
// counter, and Parent links encode the nesting — solve → epoch → chip
// step → sync/recovery — so a trace can be reassembled into a tree or
// exported to the Chrome trace-event format (WriteChromeTrace).
//
// A nil *Spanner is the disabled path: every method is a no-op and
// allocates nothing, so instrumentation sites cost a single nil check
// (pinned by TestSpanDisabledZeroAlloc).
//
// # Determinism
//
// Span IDs are handed out in call order. Engines keep the event stream
// deterministic by opening and closing spans only on the orchestration
// goroutine at epoch barriers, in chip order — intervals whose wall
// time is measured inside worker goroutines are recorded with Complete
// at the next barrier instead. As everywhere in this package, WallNS
// and WallDurNS are the only nondeterministic fields.
type Spanner struct {
	tr   Tracer
	next atomic.Uint64
}

// NewSpanner builds a Spanner emitting into tr. A nil tr yields a nil
// Spanner, i.e. the disabled path.
func NewSpanner(tr Tracer) *Spanner {
	if tr == nil {
		return nil
	}
	return &Spanner{tr: tr}
}

// NewSpannerAt builds a Spanner whose interval IDs start at base+1.
// Distributed runs use it to partition the span ID space across
// processes — the coordinator hands each remote slice a disjoint base,
// so streams merged by the federation collector never collide and
// parent links resolve across process boundaries. A nil tr yields a
// nil Spanner.
func NewSpannerAt(tr Tracer, base uint64) *Spanner {
	sp := NewSpanner(tr)
	if sp != nil {
		sp.next.Store(base)
	}
	return sp
}

// RemoteSpan builds a closed handle for an interval that lives in
// another process: End on it is a no-op, only the ID matters for
// parenting. It is the import half of cross-process span propagation —
// a cluster worker wraps the coordinator's span ID from the wire so
// its local intervals record the coordinator's interval as Parent.
func RemoteSpan(id uint64) Span {
	return Span{id: id}
}

// Span is one open interval. The zero Span is a valid "no interval"
// value: its ID reads 0 and End on it is a no-op, so children of an
// absent parent simply record Parent 0 (the root).
type Span struct {
	sp        *Spanner
	id        uint64
	parent    uint64
	label     string
	chip      int
	modelNS   float64
	wallStart int64
}

// ID returns the interval's identifier (0 for the zero Span).
func (s Span) ID() uint64 { return s.id }

// StartNS returns the interval's model-time start position.
func (s Span) StartNS() float64 { return s.modelNS }

// Start opens an interval named label under parent (pass the zero Span
// for a root interval), positioned at modelNS of model time. chip
// scopes the interval to a chip track; pass -1 for system-level
// intervals (solve, epoch, sync).
func (sp *Spanner) Start(label string, parent Span, chip int, modelNS float64) Span {
	if sp == nil {
		return Span{}
	}
	id := sp.next.Add(1)
	e := Event{Kind: SpanStart, Label: label, Span: id, Parent: parent.id, ModelNS: modelNS}
	if chip >= 0 {
		e.Chip = chip
		e.Peer = chip + 1 // distinguishes "chip 0" from "system" on wire
	}
	sp.tr.Emit(e)
	return Span{sp: sp, id: id, parent: parent.id, label: label, chip: chip,
		modelNS: modelNS, wallStart: time.Now().UnixNano()}
}

// End closes the interval at model-time position modelNS, emitting
// SpanEnd with Value = the model-time duration and WallDurNS = the
// measured wall duration. extra, if non-nil, contributes work totals
// (Count, StallNS, Aux) to the close event. No-op on the zero Span.
func (s Span) End(modelNS float64, extra *Event) {
	if s.sp == nil {
		return
	}
	e := Event{Kind: SpanEnd, Label: s.label, Span: s.id, Parent: s.parent,
		ModelNS: modelNS, Value: modelNS - s.modelNS,
		WallDurNS: time.Now().UnixNano() - s.wallStart}
	if s.chip >= 0 {
		e.Chip = s.chip
		e.Peer = s.chip + 1
	}
	if extra != nil {
		e.Count, e.StallNS, e.Aux = extra.Count, extra.StallNS, extra.Aux
	}
	s.sp.tr.Emit(e)
}

// Complete records an already-measured interval as a SpanStart/SpanEnd
// pair and returns a closed handle usable as a parent for further
// Complete calls. Engines use it at epoch barriers for work whose wall
// time was measured inside a worker goroutine: the ID is allocated
// here, on the barrier goroutine, so IDs stay deterministic while
// wallDurNS carries the worker's measurement. The interval spans
// [modelNS, modelNS+modelDurNS] of model time.
func (sp *Spanner) Complete(label string, parent Span, chip int, modelNS, modelDurNS float64, wallDurNS int64, extra *Event) Span {
	if sp == nil {
		return Span{}
	}
	id := sp.next.Add(1)
	start := Event{Kind: SpanStart, Label: label, Span: id, Parent: parent.id, ModelNS: modelNS}
	end := Event{Kind: SpanEnd, Label: label, Span: id, Parent: parent.id,
		ModelNS: modelNS + modelDurNS, Value: modelDurNS, WallDurNS: wallDurNS}
	if chip >= 0 {
		start.Chip, start.Peer = chip, chip+1
		end.Chip, end.Peer = chip, chip+1
	}
	if extra != nil {
		end.Count, end.StallNS, end.Aux = extra.Count, extra.StallNS, extra.Aux
	}
	sp.tr.Emit(start)
	sp.tr.Emit(end)
	// sp is deliberately left nil in the handle: the interval is already
	// closed, so End on it must be a no-op; only the id matters for
	// parenting.
	return Span{id: id, parent: parent.id, label: label, chip: chip, modelNS: modelNS}
}
