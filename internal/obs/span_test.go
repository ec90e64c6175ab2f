package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSpanNestingAndIDs(t *testing.T) {
	r := NewRing(64)
	sp := NewSpanner(r)
	root := sp.Start("solve", Span{}, -1, 0)
	epoch := sp.Start("epoch", root, -1, 0)
	cstep := sp.Complete("chip_step", epoch, 2, 0, 3.3, 12345, &Event{Count: 7})
	epoch.End(3.3, nil)
	root.End(3.3, &Event{StallNS: 1.5})

	evs := r.Events()
	if len(evs) != 6 {
		t.Fatalf("got %d events, want 6", len(evs))
	}
	id := cstep.ID()
	if root.ID() != 1 || epoch.ID() != 2 || id != 3 {
		t.Fatalf("IDs = %d,%d,%d; want 1,2,3", root.ID(), epoch.ID(), id)
	}
	// The closed handle parents further intervals but cannot re-close.
	cstep.End(99, nil)
	if got := len(r.Events()); got != 6 {
		t.Fatalf("End on a Complete handle emitted (%d events)", got)
	}
	// solve start, epoch start, chip start+end, epoch end, solve end.
	wantKinds := []Kind{SpanStart, SpanStart, SpanStart, SpanEnd, SpanEnd, SpanEnd}
	for i, k := range wantKinds {
		if evs[i].Kind != k {
			t.Fatalf("event %d kind %q, want %q", i, evs[i].Kind, k)
		}
	}
	cs := evs[2]
	if cs.Label != "chip_step" || cs.Parent != epoch.ID() || cs.Chip != 2 || cs.Peer != 3 {
		t.Fatalf("chip_step start wrong: %+v", cs)
	}
	ce := evs[3]
	if ce.Span != id || ce.Value != 3.3 || ce.WallDurNS != 12345 || ce.Count != 7 {
		t.Fatalf("chip_step end wrong: %+v", ce)
	}
	se := evs[5]
	if se.Span != 1 || se.Parent != 0 || se.StallNS != 1.5 || se.Value != 3.3 {
		t.Fatalf("solve end wrong: %+v", se)
	}
}

// The disabled path — a nil *Spanner — must not allocate: this is the
// contract that lets every engine instrumentation site run
// unconditionally behind a single nil check.
func TestSpanDisabledZeroAlloc(t *testing.T) {
	var sp *Spanner
	extra := &Event{Count: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		s := sp.Start("epoch", Span{}, -1, 1.0)
		sp.Complete("chip_step", s, 0, 1.0, 2.0, 0, nil)
		s.End(3.0, nil)
		Span{}.End(4.0, extra)
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %v per op, want 0", allocs)
	}
}

func TestNewSpannerNilTracer(t *testing.T) {
	if sp := NewSpanner(nil); sp != nil {
		t.Fatal("NewSpanner(nil) should return nil (disabled path)")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := NewRing(64)
	sp := NewSpanner(r)
	root := sp.Start("solve", Span{}, -1, 0)
	ep := sp.Start("epoch", root, -1, 0)
	sp.Complete("chip_step", ep, 0, 0, 3.3, 99, nil)
	r.Emit(Event{Kind: EnergySample, ModelNS: 3.3, Value: -12})
	r.Emit(Event{Kind: PairStat, ModelNS: 3.3, Chip: 0, Peer: 2, Value: 0.25})
	r.Emit(Event{Kind: Recovery, Label: "retransmit", ModelNS: 3.3, Chip: 1, Count: 2})
	ep.End(4.0, nil)
	// root deliberately left open: the exporter must close it.

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	byName := map[string]map[string]any{}
	for _, te := range doc.TraceEvents {
		byName[te["name"].(string)] = te
	}
	for _, name := range []string{"solve", "epoch", "chip_step", "energy", "recovery:retransmit"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("trace missing %q in %s", name, buf.String())
		}
	}
	if byName["chip_step"]["tid"].(float64) != 1 {
		t.Fatalf("chip_step should sit on chip track 1: %v", byName["chip_step"])
	}
	if byName["solve"]["dur"] == nil || byName["solve"]["args"].(map[string]any)["open"] != true {
		t.Fatalf("open solve span not auto-closed: %v", byName["solve"])
	}
	if !strings.Contains(buf.String(), `"stale 0←1"`) {
		t.Fatalf("pair stat counter missing from trace: %s", buf.String())
	}
}

// The exporter layout is driven solely by model time, so two exports
// of the same (wall-stripped) stream are byte-identical — the property
// behind the CI trace golden check.
func TestChromeTraceDeterministic(t *testing.T) {
	mk := func() []byte {
		r := NewRing(16)
		sp := NewSpanner(r)
		root := sp.Start("solve", Span{}, -1, 0)
		sp.Complete("epoch", root, -1, 0, 3.3, 0, nil)
		root.End(3.3, nil)
		evs := r.Events()
		for i := range evs {
			evs[i].WallNS, evs[i].WallDurNS = 0, 0
		}
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, evs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := mk(), mk(); !bytes.Equal(a, b) {
		t.Fatalf("exports differ:\n%s\n%s", a, b)
	}
}

func TestRingEventsSince(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 6; i++ {
		r.Emit(Event{Kind: EnergySample, Value: float64(i)})
	}
	// Ring holds events 3..6 (ordinals), 1..2 evicted.
	evs, first := r.EventsSince(0)
	if len(evs) != 4 || first != 3 || evs[0].Value != 3 {
		t.Fatalf("EventsSince(0) = %d events, first %d", len(evs), first)
	}
	evs, first = r.EventsSince(4)
	if len(evs) != 2 || first != 5 || evs[0].Value != 5 || evs[1].Value != 6 {
		t.Fatalf("EventsSince(4) = %d events, first %d: %+v", len(evs), first, evs)
	}
	evs, first = r.EventsSince(6)
	if len(evs) != 0 || first != 7 {
		t.Fatalf("EventsSince(6) = %d events, first %d", len(evs), first)
	}
	// A seq below the retained window replays everything retained.
	evs, first = r.EventsSince(1)
	if len(evs) != 4 || first != 3 {
		t.Fatalf("EventsSince(1) = %d events, first %d", len(evs), first)
	}
}
