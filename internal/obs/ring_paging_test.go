package obs

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The federation collector in internal/cluster pages worker rings with
// EventsSince cursors across checkpoint rounds, so its edge semantics —
// wrap-around, cursors older than the ring tail, cursors at or past the
// head, and pages taken while producers keep appending — are contract,
// not implementation detail. These tests pin them.

func ringWith(t *testing.T, capacity, emitted int) *Ring {
	t.Helper()
	r := NewRing(capacity)
	for i := 1; i <= emitted; i++ {
		r.Emit(Event{Kind: EnergySample, Epoch: i})
	}
	return r
}

// checkPage asserts a page starts at ordinal wantFirst and carries the
// consecutive Epoch payloads wantFirst..wantLast (the test encodes each
// event's ordinal in Epoch).
func checkPage(t *testing.T, evs []Event, first, wantFirst, wantLast int64) {
	t.Helper()
	if first != wantFirst {
		t.Fatalf("first ordinal = %d, want %d", first, wantFirst)
	}
	if got, want := int64(len(evs)), wantLast-wantFirst+1; got != want {
		t.Fatalf("page length = %d, want %d", got, want)
	}
	for i, e := range evs {
		if int64(e.Epoch) != wantFirst+int64(i) {
			t.Fatalf("event %d has ordinal payload %d, want %d", i, e.Epoch, wantFirst+int64(i))
		}
	}
}

func TestEventsSinceBeforeWrap(t *testing.T) {
	r := ringWith(t, 8, 5) // not yet full
	evs, first := r.EventsSince(0)
	checkPage(t, evs, first, 1, 5)
	evs, first = r.EventsSince(3)
	checkPage(t, evs, first, 4, 5)
}

func TestEventsSinceWrapAround(t *testing.T) {
	// Capacity 8, 13 emitted: ordinals 1–5 evicted, 6–13 retained with
	// the buffer physically wrapped (next points mid-buffer).
	r := ringWith(t, 8, 13)
	evs, first := r.EventsSince(7)
	checkPage(t, evs, first, 8, 13)

	// A cursor exactly at the ring tail's predecessor returns the whole
	// retained window.
	evs, first = r.EventsSince(5)
	checkPage(t, evs, first, 6, 13)
}

func TestEventsSinceOlderThanTail(t *testing.T) {
	r := ringWith(t, 8, 13)
	// Ordinals 1–5 are gone. A consumer that last saw ordinal 2 gets the
	// retained window, and the returned first ordinal (6, not 3) exposes
	// the eviction gap so the consumer can count what it missed.
	evs, first := r.EventsSince(2)
	checkPage(t, evs, first, 6, 13)
	if gap := first - (2 + 1); gap != 3 {
		t.Fatalf("exposed gap = %d, want 3", gap)
	}
}

func TestEventsSinceAtAndPastHead(t *testing.T) {
	r := ringWith(t, 8, 13)
	// Caught up: nothing to return, and the sentinel first ordinal is
	// total+1 (where the next event will land).
	evs, first := r.EventsSince(13)
	if len(evs) != 0 {
		t.Fatalf("caught-up page returned %d events", len(evs))
	}
	if first != 14 {
		t.Fatalf("caught-up first = %d, want total+1 = 14", first)
	}
	// A cursor beyond the head (e.g. from a stale snapshot of another
	// ring) behaves the same rather than replaying.
	if evs, _ := r.EventsSince(99); len(evs) != 0 {
		t.Fatalf("past-head page returned %d events", len(evs))
	}
}

func TestEventsSinceEmptyRing(t *testing.T) {
	r := NewRing(4)
	evs, first := r.EventsSince(0)
	if len(evs) != 0 || first != 1 {
		t.Fatalf("empty ring page = (%d events, first %d), want (0, 1)", len(evs), first)
	}
}

// TestEventsSinceConcurrentAppend pages a ring with cursors while a
// producer keeps appending, and asserts every page is internally
// consistent: ordinals are consecutive, never before the cursor, and
// never duplicate what the consumer already saw. Run with -race this
// also pins that paging is safe during eviction.
func TestEventsSinceConcurrentAppend(t *testing.T) {
	const (
		capacity = 64
		emitted  = 4096
	)
	r := NewRing(capacity)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= emitted; i++ {
			r.Emit(Event{Kind: EnergySample, Epoch: i})
		}
	}()

	var cursor, seen, gaps int64
	for cursor < emitted { // consumer stops once it has paged past the last emit
		evs, first := r.EventsSince(cursor)
		if len(evs) == 0 {
			runtime.Gosched() // producer hasn't advanced past the cursor yet
			continue
		}
		if first <= cursor {
			t.Fatalf("page replayed ordinal %d at cursor %d", first, cursor)
		}
		if first > cursor+1 {
			gaps += first - cursor - 1
		}
		for i, e := range evs {
			if int64(e.Epoch) != first+int64(i) {
				t.Fatalf("page not consecutive: payload %d at ordinal %d", e.Epoch, first+int64(i))
			}
		}
		cursor = first + int64(len(evs)) - 1
		seen += int64(len(evs))
	}
	wg.Wait()
	if seen+gaps != emitted {
		t.Fatalf("saw %d events + %d gap, want exactly %d emitted", seen, gaps, emitted)
	}
}

// pageSink keeps the pages the allocation check takes reachable.
var pageSink []Event

// TestEventsSinceCopiesThePage: a cursor reader pays for the page it
// reads, not for the ring. On a wrapped ring the whole window, a page
// that runs across the wrap and one that starts past it come back
// right, and a 10-event page of a full 4 096-event ring allocates 10
// events, not 4 096.
func TestEventsSinceCopiesThePage(t *testing.T) {
	r := ringWith(t, 8, 13) // ordinals 6–8 at the buffer's end, 9–13 at its start
	for _, c := range []struct{ seq, first, last int64 }{{5, 6, 13}, {7, 8, 13}, {10, 11, 13}, {12, 13, 13}} {
		evs, first := r.EventsSince(c.seq)
		checkPage(t, evs, first, c.first, c.last)
	}

	full := ringWith(t, 4096, 5000)
	size := uint64(reflect.TypeOf(Event{}).Size())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 100 {
		pageSink, _ = full.EventsSince(4990)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 2*10*size {
		t.Errorf("a 10-event page of a 4096-event ring allocates %d B, want about %d", per, 10*size)
	}
}

// TestChangedWakesOnTheNextEmit: Changed(seq) is closed already when the
// ring holds an event past seq and otherwise closes on the next Emit,
// so a reader that pages and then waits at its page's last ordinal
// neither misses an event nor waits for one already emitted.
func TestChangedWakesOnTheNextEmit(t *testing.T) {
	r := ringWith(t, 4, 3)
	select {
	case <-r.Changed(2):
	default:
		t.Fatal("Changed(2) is open on a ring at ordinal 3")
	}
	wait := r.Changed(3)
	select {
	case <-wait:
		t.Fatal("Changed(3) closed before ordinal 4 was emitted")
	default:
	}
	r.Emit(Event{Kind: EnergySample, Epoch: 4})
	select {
	case <-wait:
	default:
		t.Fatal("the next Emit did not close Changed(3)")
	}

	const emitted = 2000
	big := NewRing(emitted)
	go func() {
		for i := 1; i <= emitted; i++ {
			big.Emit(Event{Kind: EnergySample, Epoch: i})
		}
	}()
	for cursor := int64(0); cursor < emitted; {
		select {
		case <-big.Changed(cursor):
		case <-time.After(10 * time.Second):
			t.Fatalf("a reader at ordinal %d never woke; %d emitted", cursor, big.Total())
		}
		evs, first := big.EventsSince(cursor)
		checkPage(t, evs, first, cursor+1, first+int64(len(evs))-1)
		cursor = first + int64(len(evs)) - 1
	}
}

// TestRingTrim: trimming an unfilled ring keeps its events and their
// ordinals, gives back the rest of its capacity, and leaves a working
// ring of that size; a ring that has wrapped has nothing to give back.
func TestRingTrim(t *testing.T) {
	r := NewRing(4096)
	for i := 1; i <= 5; i++ {
		r.Emit(Event{Kind: EnergySample, Epoch: i})
	}
	before, first := r.EventsSince(2)
	r.Trim()
	after, firstAfter := r.EventsSince(2)
	if cap(r.buf) != 5 || first != firstAfter || !reflect.DeepEqual(before, after) || r.Total() != 5 {
		t.Fatalf("after Trim: capacity %d, first ordinal %d (was %d), total %d, events %+v", cap(r.buf), firstAfter, first, r.Total(), after)
	}
	r.Emit(Event{Kind: EnergySample, Epoch: 6})
	if evs, first := r.EventsSince(0); len(evs) != 5 || first != 2 || evs[0].Epoch != 2 || evs[4].Epoch != 6 {
		t.Fatalf("a trimmed ring must go on as a ring of its size: first ordinal %d, events %+v", first, evs)
	}
	r.Trim() // wrapped: stays as it is
	if evs := r.Events(); cap(r.buf) != 5 || len(evs) != 5 || evs[0].Epoch != 2 {
		t.Fatalf("trimming a wrapped ring changed it: %+v", evs)
	}
	empty := NewRing(64)
	empty.Trim()
	empty.Emit(Event{Kind: RunStart})
	if evs := empty.Events(); len(evs) != 1 || cap(empty.buf) != 1 {
		t.Fatalf("an empty ring trims to one slot: capacity %d, events %+v", cap(empty.buf), evs)
	}
}

// ringSink keeps what the allocation test builds reachable, so the ring
// is allocated as a caller would allocate it.
var ringSink *Ring

// TestNewRingAllocatesNoSlots: a 4 096-event ring is its header until
// the first Emit — the 786 KB of slots a run could fill are not
// allocated, and the first Emit allocates a few.
func TestNewRingAllocatesNoSlots(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { ringSink = NewRing(4096) }); a != 1 {
		t.Fatalf("NewRing(4096) allocates %v times, want 1: the ring header alone", a)
	}
	if c := cap(ringSink.buf); c != 0 {
		t.Fatalf("NewRing(4096) holds %d slots before its first Emit", c)
	}
	ringSink.Emit(Event{Kind: RunStart})
	if c := cap(ringSink.buf); c != ringFirstSlots {
		t.Fatalf("the first Emit allocated %d slots, want %d", c, ringFirstSlots)
	}
}

// preallocRing is the ring as it was before its slots grew with it: all
// n allocated up front. The growing ring must page exactly as it does.
type preallocRing struct {
	buf   []Event
	next  int
	total int64
}

func (r *preallocRing) emit(e Event) {
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
}

func (r *preallocRing) eventsSince(seq int64) ([]Event, int64) {
	out := append(append([]Event{}, r.buf[r.next:]...), r.buf[:r.next]...)
	first := r.total - int64(len(out)) + 1
	if skip := seq - first + 1; skip > 0 {
		if skip >= int64(len(out)) {
			return nil, r.total + 1
		}
		out = out[skip:]
		first += skip
	}
	return out, first
}

func (r *preallocRing) trim() {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(make([]Event, 0, max(len(r.buf), 1)), r.buf...)
	}
}

// TestRingGrowthPagesAsPreallocated: on rings of sizes on both sides of
// every growth step, after every Emit — through growth, the step where
// growth stops and eviction starts, wrap-around, and a Trim at a random
// point — EventsSince returns the same events and first ordinal as the
// preallocated ring, and the ring never holds more
// slots than its size. The cursors are those at and around both ends
// of the retained window and the middle of the stream.
func TestRingGrowthPagesAsPreallocated(t *testing.T) {
	for _, size := range []int{1, 2, 15, 16, 17, 33, 40} {
		for _, trimAt := range []int{-1, 0, size / 2, size, 2*size + 1} {
			r, ref := NewRing(size), &preallocRing{buf: make([]Event, 0, size)}
			for i := 1; i <= 3*size+5; i++ {
				if i-1 == trimAt {
					r.Trim()
					ref.trim()
				}
				e := Event{Kind: EnergySample, Epoch: i, WallNS: int64(i)}
				r.Emit(e)
				ref.emit(e)
				if cap(r.buf) > size {
					t.Fatalf("size %d: the ring grew to %d slots", size, cap(r.buf))
				}
				n, c := int64(i), int64(size)
				for _, seq := range []int64{-1, 0, 1, n/2 - 1, n / 2, n - c - 1, n - c, n - c + 1, n - 1, n, n + 1} {
					got, gotFirst := r.EventsSince(seq)
					want, wantFirst := ref.eventsSince(seq)
					if gotFirst != wantFirst || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("size %d, Trim before %d, after %d events: EventsSince(%d) = %d events from %d, the preallocated ring %d from %d",
							size, trimAt+1, i, seq, len(got), gotFirst, len(want), wantFirst)
					}
				}
			}
		}
	}
}
