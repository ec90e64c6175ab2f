package obs

import (
	"sync"
	"testing"
)

func TestBroadcastDeliverAndCancel(t *testing.T) {
	b := NewBroadcast(8)
	ch1, cancel1 := b.Subscribe()
	ch2, cancel2 := b.Subscribe()
	defer cancel2()
	if got := b.Subscribers(); got != 2 {
		t.Fatalf("Subscribers = %d, want 2", got)
	}

	b.Emit(Event{Kind: ChipStep, Epoch: 1})
	b.Emit(Event{Kind: EpochSync, Epoch: 1})
	for _, ch := range []<-chan Event{ch1, ch2} {
		if e := <-ch; e.Kind != ChipStep {
			t.Fatalf("first event %v", e.Kind)
		}
		if e := <-ch; e.Kind != EpochSync {
			t.Fatalf("second event %v", e.Kind)
		}
	}

	cancel1()
	cancel1() // idempotent
	if _, open := <-ch1; open {
		t.Fatal("cancelled channel still open")
	}
	b.Emit(Event{Kind: RunEnd})
	if e := <-ch2; e.Kind != RunEnd {
		t.Fatalf("live subscriber missed event: %v", e.Kind)
	}
	if got := b.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
}

func TestBroadcastBoundedDrop(t *testing.T) {
	b := NewBroadcast(2)
	ch, cancel := b.Subscribe()
	defer cancel()
	// Nobody drains: the third and later emissions must be dropped,
	// never block.
	for i := 0; i < 5; i++ {
		b.Emit(Event{Kind: ChipStep, Epoch: i})
	}
	if got := b.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	// The buffered prefix survives in order.
	if e := <-ch; e.Epoch != 0 {
		t.Fatalf("buffered[0].Epoch = %d", e.Epoch)
	}
	if e := <-ch; e.Epoch != 1 {
		t.Fatalf("buffered[1].Epoch = %d", e.Epoch)
	}
}

func TestBroadcastClose(t *testing.T) {
	b := NewBroadcast(4)
	ch, cancel := b.Subscribe()
	b.Emit(Event{Kind: ChipStep})
	b.Close()
	b.Close() // idempotent
	// Buffered event, then closed.
	if e, open := <-ch; !open || e.Kind != ChipStep {
		t.Fatalf("buffered event lost: %v %v", e, open)
	}
	if _, open := <-ch; open {
		t.Fatal("channel not closed by Close")
	}
	cancel() // after Close: no panic

	// Late events are discarded.
	b.Emit(Event{Kind: RunEnd})

	// Subscribing to a closed broadcast yields a closed channel.
	ch2, cancel2 := b.Subscribe()
	if _, open := <-ch2; open {
		t.Fatal("post-Close subscription not closed")
	}
	cancel2()
	if got := b.Subscribers(); got != 0 {
		t.Fatalf("Subscribers = %d, want 0", got)
	}
}

// TestBroadcastConcurrent exercises Emit against churning subscribers
// under the race detector.
func TestBroadcastConcurrent(t *testing.T) {
	b := NewBroadcast(4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b.Emit(Event{Kind: ChipStep, Epoch: i})
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ch, cancel := b.Subscribe()
				select {
				case <-ch:
				case <-stop:
					cancel()
					return
				}
				cancel()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			b.Emit(Event{Kind: EpochSync})
		}
		close(stop)
	}()
	wg.Wait()
	b.Close()
	if got := b.Subscribers(); got != 0 {
		t.Fatalf("Subscribers = %d after Close, want 0", got)
	}
}
