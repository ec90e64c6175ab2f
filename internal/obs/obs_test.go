package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	in := []Event{
		{Kind: RunStart, Label: "sa", Seed: 7, Count: 512, Value: 100},
		{Kind: EpochSync, Epoch: 3, ModelNS: 12.5, Count: 40, Induced: 9},
		{Kind: FabricTransfer, Epoch: 3, Value: 128, StallNS: 0.25},
		{Kind: RunEnd, Label: "sa", Value: -123.5, WallDurNS: 42},
	}
	for _, e := range in {
		tr.Emit(e)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(in) {
		t.Fatalf("got %d lines, want %d", got, len(in))
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].WallNS == 0 {
			t.Errorf("event %d: WallNS not stamped", i)
		}
		out[i].WallNS = 0
		if out[i] != in[i] {
			t.Errorf("event %d round-trip mismatch:\n got %+v\nwant %+v", i, out[i], in[i])
		}
	}
}

func TestRingEvictsOldest(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Emit(Event{Kind: ChipStep, Epoch: i})
	}
	if r.Total() != 5 {
		t.Fatalf("Total=%d, want 5", r.Total())
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	for i, want := range []int{3, 4, 5} {
		if evs[i].Epoch != want {
			t.Errorf("event %d: Epoch=%d, want %d", i, evs[i].Epoch, want)
		}
	}
}

func TestFanout(t *testing.T) {
	if Fanout() != nil {
		t.Error("empty Fanout should be nil")
	}
	if Fanout(nil, nil) != nil {
		t.Error("all-nil Fanout should be nil")
	}
	a, b := NewRing(8), NewRing(8)
	single := Fanout(nil, a)
	if single != a {
		t.Error("single-sink Fanout should unwrap")
	}
	multi := Fanout(a, nil, b)
	multi.Emit(Event{Kind: EnergySample, Value: 1})
	if a.Total() != 1 || b.Total() != 1 {
		t.Errorf("fanout delivered a=%d b=%d, want 1/1", a.Total(), b.Total())
	}
}

// TestStampWall: sinks behind one StampWall see one WallNS per event —
// behind a bare Fanout each stamps its own copy — and a producer's stamp
// is kept.
func TestStampWall(t *testing.T) {
	if StampWall() != nil || StampWall(nil) != nil {
		t.Error("StampWall of no live tracer should be nil")
	}
	a, b := NewRing(8), NewRing(8)
	tr := StampWall(a, nil, b)
	for i := 0; i < 4; i++ {
		tr.Emit(Event{Kind: EnergySample, Value: float64(i)})
	}
	tr.Emit(Event{Kind: RunEnd, WallNS: 42})
	ea, eb := a.Events(), b.Events()
	if len(ea) != 5 || len(eb) != 5 {
		t.Fatalf("delivered %d and %d events, want 5 and 5", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] || ea[i].WallNS == 0 {
			t.Errorf("event %d: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	if ea[4].WallNS != 42 {
		t.Errorf("producer's stamp replaced: %d", ea[4].WallNS)
	}
}

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(3)
	r.Counter("x").Inc()
	if v := r.Counter("x").Value(); v != 4 {
		t.Errorf("counter=%d, want 4", v)
	}
	r.Gauge("g").Set(2.5)
	r.Gauge("g").Add(-1)
	if v := r.Gauge("g").Value(); v != 1.5 {
		t.Errorf("gauge=%v, want 1.5", v)
	}
	h := r.Histogram("h")
	for _, v := range []float64{0.5, 3, 1000} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Sum() != 1003.5 {
		t.Errorf("hist count=%d sum=%v", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	if snap.Counters["x"] != 4 || snap.Gauges["g"] != 1.5 {
		t.Errorf("snapshot mismatch: %+v", snap)
	}
	hs := snap.Histograms["h"]
	if hs.Min != 0.5 || hs.Max != 1000 || hs.Mean != 334.5 {
		t.Errorf("hist snapshot: %+v", hs)
	}
	var total int64
	for _, b := range hs.Buckets {
		total += b.Count
	}
	if total != 3 {
		t.Errorf("bucket counts sum to %d, want 3", total)
	}
}

func TestBucketIndexBounds(t *testing.T) {
	if bucketIndex(0) != 0 || bucketIndex(-5) != 0 {
		t.Error("non-positive values must land in bucket 0")
	}
	if bucketIndex(math.MaxFloat64) != histBuckets-1 {
		t.Error("huge values must land in the overflow bucket")
	}
	// Bucket i covers (2^(i-1+histMinExp), 2^(i+histMinExp)]: the upper
	// boundary is inclusive.
	for i := 0; i < histBuckets-1; i++ {
		le := math.Exp2(float64(i + histMinExp))
		if got := bucketIndex(le); got != i {
			t.Errorf("bucketIndex(%v)=%d, want %d", le, got, i)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(1)
	if r.Counter("x").Value() != 0 || r.Gauge("g").Value() != 0 || r.Histogram("h").Count() != 0 {
		t.Error("nil registry instruments must read zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("c").Value(); v != workers*per {
		t.Errorf("counter=%d, want %d", v, workers*per)
	}
	if v := r.Gauge("g").Value(); v != workers*per {
		t.Errorf("gauge=%v, want %d", v, workers*per)
	}
	if v := r.Histogram("h").Count(); v != workers*per {
		t.Errorf("hist count=%d, want %d", v, workers*per)
	}
}

func TestJSONLConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Emit(Event{Kind: ChipStep, Chip: w, Epoch: i})
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("concurrent emission corrupted the stream: %v", err)
	}
	if len(evs) != 400 {
		t.Fatalf("got %d events, want 400", len(evs))
	}
}
