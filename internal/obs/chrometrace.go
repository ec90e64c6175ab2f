package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteChromeTrace renders a captured event stream as a Chrome
// trace-event JSON document ({"traceEvents": [...]}) loadable by
// chrome://tracing and ui.perfetto.dev.
//
// The trace timeline is *model time*: one model nanosecond maps to one
// trace microsecond, which makes the export deterministic for a seeded
// run (wall durations ride along in each slice's args instead of
// driving the layout). Span events become complete ("X") slices —
// system-level intervals (solve, epoch, sync, fabric settle) on track
// 0 and chip-scoped intervals on one track per chip — and point events
// (faults, recoveries, kicks, pair stats) become instant ("i") events
// on their chip's track. Counter ("C") tracks chart the energy
// trajectory and per-epoch fabric stall.
//
// Spans still open at the end of the stream (e.g. a trace snapshotted
// mid-run, or truncated by a Ring eviction) are closed at the last
// model timestamp observed so the export always loads.
func WriteChromeTrace(w io.Writer, events []Event) error {
	type slice struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  *float64       `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		S    string         `json:"s,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	var out []slice
	type open struct {
		idx  int // index into out
		tsNS float64
	}
	// Span IDs are unique within a trace, not across them: a managed
	// federated run carries core's "solve" interval (no trace, ID 1) and
	// the coordinator's tree (its trace ID, IDs from 1) in one stream.
	type spanKey struct{ trace, span uint64 }
	opened := map[spanKey]open{}
	lastTS := 0.0
	tid := func(e Event) int {
		if e.Peer > 0 {
			return e.Peer // chip-scoped: track = chip+1
		}
		return 0
	}
	for _, e := range events {
		if e.ModelNS > lastTS {
			lastTS = e.ModelNS
		}
		switch e.Kind {
		case SpanStart:
			args := map[string]any{"span": e.Span}
			if e.Parent != 0 {
				args["parent"] = e.Parent
			}
			// Distributed context, present only on federated streams:
			// the shared trace ID (hex, as jq consumers compare it as a
			// string) and the emitting node.
			if e.Trace != 0 {
				args["trace"] = fmt.Sprintf("%016x", e.Trace)
			}
			if e.Origin != "" {
				args["origin"] = e.Origin
			}
			out = append(out, slice{Name: e.Label, Ph: "X", TS: e.ModelNS,
				PID: 1, TID: tid(e), Args: args})
			opened[spanKey{e.Trace, e.Span}] = open{idx: len(out) - 1, tsNS: e.ModelNS}
		case SpanEnd:
			o, ok := opened[spanKey{e.Trace, e.Span}]
			if !ok {
				continue // start evicted from the ring; drop the orphan end
			}
			delete(opened, spanKey{e.Trace, e.Span})
			d := e.ModelNS - o.tsNS
			if d < 0 {
				d = 0
			}
			out[o.idx].Dur = &d
			if e.WallDurNS != 0 {
				out[o.idx].Args["wallDurNS"] = e.WallDurNS
			}
			if e.Count != 0 {
				out[o.idx].Args["count"] = e.Count
			}
			if e.StallNS != 0 {
				out[o.idx].Args["stallNS"] = e.StallNS
			}
		case EnergySample:
			out = append(out, slice{Name: "energy", Ph: "C", TS: e.ModelNS, PID: 1,
				Args: map[string]any{"energy": e.Value}})
		case FabricTransfer:
			out = append(out, slice{Name: "fabric", Ph: "C", TS: e.ModelNS, PID: 1,
				Args: map[string]any{"bytes": e.Value, "stallNS": e.StallNS}})
		case Fault, Recovery:
			out = append(out, slice{Name: string(e.Kind) + ":" + e.Label, Ph: "i",
				TS: e.ModelNS, PID: 1, TID: e.Chip + 1, S: "t",
				Args: map[string]any{"epoch": e.Epoch, "count": e.Count}})
		case PairStat:
			out = append(out, slice{Name: fmt.Sprintf("stale %d←%d", e.Chip, e.Peer-1),
				Ph: "C", TS: e.ModelNS, PID: 1, TID: e.Chip + 1,
				Args: map[string]any{"fraction": e.Value}})
		}
	}
	// Close any still-open spans at the last observed timestamp (each
	// touches only its own slice, so map order cannot show).
	for _, o := range opened {
		d := lastTS - o.tsNS
		if d < 0 {
			d = 0
		}
		out[o.idx].Dur = &d
		out[o.idx].Args["open"] = true
	}

	doc := struct {
		TraceEvents []slice        `json:"traceEvents"`
		Meta        map[string]any `json:"otherData"`
	}{TraceEvents: out, Meta: map[string]any{
		"timeUnit": "1 trace us = 1 model ns",
	}}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
