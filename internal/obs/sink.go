package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// JSONLTracer writes one JSON object per event to an underlying
// writer — the archival sink. Output is buffered; call Flush (or
// Close) before reading the destination. Safe for concurrent use.
type JSONLTracer struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	c   io.Closer
}

// NewJSONL builds a JSONL sink over w. If w is an io.Closer, Close
// closes it after flushing.
func NewJSONL(w io.Writer) *JSONLTracer {
	bw := bufio.NewWriter(w)
	t := &JSONLTracer{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// Emit writes the event as one JSON line, stamping WallNS if the
// producer left it zero.
func (t *JSONLTracer) Emit(e Event) {
	if e.WallNS == 0 {
		e.WallNS = time.Now().UnixNano()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Encode errors (e.g. a full disk) are deliberately swallowed:
	// tracing must never fail a solve.
	_ = t.enc.Encode(e)
}

// Flush drains the buffer to the underlying writer.
func (t *JSONLTracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bw.Flush()
}

// Close flushes and, when the destination is an io.Closer, closes it.
func (t *JSONLTracer) Close() error {
	if err := t.Flush(); err != nil {
		return err
	}
	if t.c != nil {
		return t.c.Close()
	}
	return nil
}

// ReadJSONL parses a JSONL trace back into events — the inverse of
// JSONLTracer, for tests and offline analysis.
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// Ring is a fixed-capacity in-memory sink keeping the most recent
// events — live inspection without unbounded growth. Safe for
// concurrent use.
//
// Its slots are allocated as it fills, doubling up to its size: a run
// that emits 70 events holds 128 slots, not the 4 096 its ring could
// take (an Event is 168 bytes, strings among them, which the GC scans).
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	size  int // the most buf holds; eviction starts there
	next  int
	total int64
	// wake is what Changed hands a reader that has caught up; the next
	// Emit closes it. Nil while no reader waits.
	wake chan struct{}
}

// NewRing builds a ring holding the last n events. n must be >= 1. It
// allocates no slot until the first Emit.
func NewRing(n int) *Ring {
	if n < 1 {
		panic("obs: NewRing capacity must be >= 1")
	}
	return &Ring{size: n}
}

// ringFirstSlots is what a ring's first Emit allocates (less if its
// size is less).
const ringFirstSlots = 16

// Emit records the event, evicting the oldest when full, stamping
// WallNS if the producer left it zero.
func (r *Ring) Emit(e Event) {
	if e.WallNS == 0 {
		e.WallNS = time.Now().UnixNano()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if r.wake != nil {
		close(r.wake)
		r.wake = nil
	}
	if len(r.buf) < r.size {
		if len(r.buf) == cap(r.buf) {
			r.buf = append(make([]Event, 0, min(max(2*cap(r.buf), ringFirstSlots), r.size)), r.buf...)
		}
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	evs, _ := r.EventsSince(0)
	return evs
}

// EventsSince returns the retained events whose emission ordinal is
// strictly greater than seq, oldest first, together with the ordinal
// of the first returned event. Ordinals are 1-based and count every
// event ever emitted to the ring, so they survive eviction: after a
// consumer disconnects at ordinal K, EventsSince(K) replays exactly
// the retained events it has not seen (events older than the ring's
// capacity are gone — the returned first ordinal exposes the gap).
// It copies the page, not the ring.
func (r *Ring) EventsSince(seq int64) ([]Event, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int64(len(r.buf))
	first := r.total - n + 1
	skip := max(seq-first+1, 0)
	if skip >= n {
		return nil, r.total + 1
	}
	// Oldest first, the events are buf[next:] then buf[:next].
	out := make([]Event, 0, n-skip)
	if start := (r.next + int(skip)) % len(r.buf); start >= r.next {
		out = append(append(out, r.buf[start:]...), r.buf[:r.next]...)
	} else {
		out = append(out, r.buf[start:r.next]...)
	}
	return out, first + skip
}

// Changed returns a channel that is closed once the ring holds an event
// past ordinal seq: closed already if it does, else by the next Emit. A
// reader pages with EventsSince(seq) and then waits on Changed at the
// page's last ordinal; an event emitted between the two is past that
// ordinal, so no wakeup is lost.
func (r *Ring) Changed(seq int64) <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total > seq {
		return closedChan
	}
	if r.wake == nil {
		r.wake = make(chan struct{})
	}
	return r.wake
}

var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Trim gives back the slots the ring has not filled: its events and
// their ordinals stay, and it goes on as a ring of exactly that many.
// For a ring whose producer has finished — a 65-event run's ring has
// grown to 128 slots, 63 of them empty.
func (r *Ring) Trim() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < r.size { // not yet wrapped: oldest first, next is 0
		if r.size = max(len(r.buf), 1); cap(r.buf) > r.size {
			r.buf = append(make([]Event, 0, r.size), r.buf...)
		}
	}
}

// Total returns how many events were emitted over the ring's lifetime,
// including evicted ones.
func (r *Ring) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
