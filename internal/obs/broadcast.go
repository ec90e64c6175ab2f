package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Broadcast is a bounded fan-out sink: a Tracer that forwards every
// event to any number of dynamically attached subscribers, each behind
// its own buffered channel. It decouples a solve's hot path from
// arbitrarily slow consumers (an SSE client on a bad link, a stalled
// pipe): Emit never blocks — when a subscriber's buffer is full the
// event is dropped for that subscriber and counted, and the solve
// proceeds at full speed. Safe for concurrent use.
type Broadcast struct {
	mu      sync.Mutex
	subs    map[int]chan Event
	next    int
	buf     int
	closed  bool
	dropped atomic.Int64
}

// DefaultBroadcastBuffer is the per-subscriber channel capacity used
// when NewBroadcast is given a non-positive size.
const DefaultBroadcastBuffer = 256

// NewBroadcast returns a broadcast sink whose subscribers each get a
// buffered channel of the given capacity (DefaultBroadcastBuffer when
// n <= 0).
func NewBroadcast(n int) *Broadcast {
	if n <= 0 {
		n = DefaultBroadcastBuffer
	}
	return &Broadcast{subs: map[int]chan Event{}, buf: n}
}

// Emit forwards the event to every live subscriber without blocking,
// stamping WallNS if the producer left it zero. Subscribers whose
// buffer is full lose the event; each loss increments Dropped.
func (b *Broadcast) Emit(e Event) {
	if e.WallNS == 0 {
		e.WallNS = time.Now().UnixNano()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, ch := range b.subs {
		select {
		case ch <- e:
		default:
			b.dropped.Add(1)
		}
	}
}

// Subscribe attaches a new consumer and returns its event channel plus
// a cancel function. The channel is closed when the consumer cancels
// or the broadcast closes; cancel is idempotent. Subscribing to a
// closed broadcast returns an already-closed channel.
func (b *Broadcast) Subscribe() (<-chan Event, func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch := make(chan Event, b.buf)
	if b.closed {
		close(ch)
		return ch, func() {}
	}
	id := b.next
	b.next++
	b.subs[id] = ch
	return ch, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if sub, ok := b.subs[id]; ok {
			delete(b.subs, id)
			close(sub)
		}
	}
}

// Close detaches and closes every subscriber channel; the broadcast
// accepts no new subscribers afterwards. Events emitted after Close
// are discarded (but still counted in Total). Idempotent.
func (b *Broadcast) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for id, ch := range b.subs {
		delete(b.subs, id)
		close(ch)
	}
}

// Dropped returns how many (event, subscriber) deliveries were lost to
// full buffers.
func (b *Broadcast) Dropped() int64 { return b.dropped.Load() }

// Subscribers returns the number of currently attached consumers.
func (b *Broadcast) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}
