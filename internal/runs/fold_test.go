package runs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mbrim/internal/diag"
	"mbrim/internal/journal"
	"mbrim/internal/obs"
)

// TestProgressReproducesRecordedFold replays recorded event streams
// through the run's one fold and compares both of its views with what
// the last commit that had two folds produced for the same streams: the
// status' progress (then runs.Progress.observe, a second reducer under
// the run's lock) and the diagnostics snapshot, byte for byte.
//
// The streams under testdata/fold were recorded once, on that commit
// (9a35bbb), through core.SolveCtx with SpanTrace and Diag on, as a
// managed run is: an in-process 3-chip mbrim run with fabric faults,
// retransmits and integrator step retries; a portfolio race that runs to
// the end and hands off; one that is won first-to-target with every
// entrant cancelled; a federated 2-worker cluster run. They are inputs,
// not goldens of this code — do not regenerate them from it.
func TestProgressReproducesRecordedFold(t *testing.T) {
	streams, err := filepath.Glob(filepath.Join("testdata", "fold", "*.events.jsonl"))
	if err != nil || len(streams) < 4 {
		t.Fatalf("recorded streams: %v, %v", streams, err)
	}
	for _, path := range streams {
		base := strings.TrimSuffix(path, ".events.jsonl")
		t.Run(filepath.Base(base), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			events, err := obs.ReadJSONL(f)
			if err != nil {
				t.Fatal(err)
			}
			red := diag.New(diag.Config{})
			for _, e := range events {
				red.Emit(e)
			}
			for suffix, view := range map[string]any{
				".progress.json": red.Progress(),
				".diag.json":     red.Snapshot(),
			} {
				got, err := json.MarshalIndent(view, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(base + suffix)
				if err != nil {
					t.Fatal(err)
				}
				if got = append(got, '\n'); !bytes.Equal(got, want) {
					t.Errorf("%s drifted from the recorded fold:\n got %s\nwant %s", suffix, got, want)
				}
			}
		})
	}
}

// TestReplayAndLiveTailShareOneWallStamp: an event carries the same
// wallNS on the live SSE tail as in the run's replay ring, and the
// status' updatedWallNS is that stamp too. The ring, a second live
// fan-out and the progress fold used to stamp their own copies of an
// unstamped event with their own clock readings: no live event's wallNS
// occurred anywhere in the ring. The tail now pages the ring, so this
// holds by construction; the test reads it through the stream.
func TestReplayAndLiveTailShareOneWallStamp(t *testing.T) {
	srv, m, _ := newTestServer(t, Config{MaxActive: 1, MaxQueued: 1, RingSize: 1 << 14})
	long := occupySlot(t, m)
	// Tailed while queued: the stream carries the run's first event live.
	r, err := m.Submit(context.Background(), mbrimSeqRequest(16, 300))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/runs/" + r.ID() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	long.Cancel()
	msgs := readSSE(t, bufio.NewScanner(resp.Body), func(e sseEvent) bool { return e.kind == "done" })
	live := msgs[:max(len(msgs)-1, 0)]

	ring, first := r.EventsSince(0)
	st := r.Status()
	if st.State != StateCompleted || first != 1 || len(live) != len(ring) || len(ring) < 50 {
		t.Fatalf("state %s, ring from ordinal %d: %d live vs %d retained events",
			st.State, first, len(live), len(ring))
	}
	for i := range ring {
		var e obs.Event
		if err := json.Unmarshal(live[i].data, &e); err != nil {
			t.Fatal(err)
		}
		if live[i].id != int64(i+1) || e != ring[i] || ring[i].WallNS == 0 {
			t.Fatalf("ordinal %d: live tail id %d %+v, replay ring %+v", i+1, live[i].id, e, ring[i])
		}
	}
	if last := ring[len(ring)-1].WallNS; st.Progress.UpdatedWallNS != last {
		t.Errorf("progress.updatedWallNS = %d, the last event's wallNS is %d", st.Progress.UpdatedWallNS, last)
	}
}

// TestTerminalRunReportsHowItEnded: progress.phase follows the stream —
// annealing at RunStart, done at RunEnd — and a run that ends without a
// RunEnd (cancelled, shed from the queue, failed) reports its terminal
// state's name. It used to keep the last phase the stream had reached:
// a cancelled run read state "interrupted", phase "annealing", and a run
// shed from the queue stayed "queued" for good.
func TestTerminalRunReportsHowItEnded(t *testing.T) {
	m := NewManager(Config{MaxActive: 1, MaxQueued: 4})
	phaseOf := func(r *Run) string { return r.Status().Progress.Phase }

	// Cancelled while running.
	running, err := m.Submit(context.Background(), mbrimSeqRequest(20, 50000))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); phaseOf(running) != "annealing"; {
		if time.Now().After(deadline) {
			t.Fatalf("running run never reached annealing: %q", phaseOf(running))
		}
		time.Sleep(time.Millisecond)
	}

	// Behind it: one run to cancel in the queue, one whose deadline lapses
	// there, one that completes; and, on a manager with a free slot, one
	// whose engine fails.
	cancelled, err := m.Submit(context.Background(), saRequest(8))
	if err != nil {
		t.Fatal(err)
	}
	shed, err := m.SubmitWith(context.Background(), saRequest(8), SubmitOptions{Deadline: time.Now().Add(50 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	failReq := saRequest(8)
	failReq.Tracer = alwaysPanic{}
	failed, err := NewManager(Config{}).Submit(context.Background(), failReq)
	if err != nil {
		t.Fatal(err)
	}
	completed, err := m.Submit(context.Background(), saRequest(8))
	if err != nil {
		t.Fatal(err)
	}
	if got := phaseOf(cancelled); got != "queued" {
		t.Errorf("queued run: phase %q", got)
	}
	cancelled.Cancel()
	time.Sleep(100 * time.Millisecond) // the shed run's deadline lapses
	running.Cancel()

	for _, tc := range []struct {
		name  string
		run   *Run
		state State
		phase string
	}{
		{"cancelled while running", running, StateInterrupted, "interrupted"},
		{"cancelled while queued", cancelled, StateInterrupted, "interrupted"},
		{"deadline lapsed in the queue", shed, StateFailed, "failed"},
		{"engine failure", failed, StateFailed, "failed"},
		{"completed", completed, StateCompleted, "done"},
	} {
		waitDone(t, tc.run)
		if st := tc.run.Status(); st.State != tc.state || st.Progress.Phase != tc.phase {
			t.Errorf("%s: state %s, phase %q; want %s, %q (%s)", tc.name, st.State, st.Progress.Phase, tc.state, tc.phase, st.Error)
		}
	}
}

// TestTombstonesHoldNoEventRing: a journal tombstone is terminal from
// birth and never emits, so it must not cost a live run's event ring.
// Each one used to allocate Config.RingSize slots — 690 KB — and a
// daemon restarted over a few thousand finished runs came up gigabytes
// heavy before its first solve.
func TestTombstonesHoldNoEventRing(t *testing.T) {
	const tombstones = 300
	var recs []journal.Record
	for i := 1; i <= tombstones; i++ {
		id := fmt.Sprintf("run-%d", i)
		recs = append(recs,
			journal.Record{Type: journal.TypeSubmit, ID: id, WallNS: 100, Spec: json.RawMessage(`{"engine":"sa","k":8,"sweeps":5}`)},
			journal.Record{Type: journal.TypeTerminal, ID: id, WallNS: 300, State: "completed", Summary: json.RawMessage(`{"energy":-12.5,"spins":8}`)})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewManager(Config{})
	sum := m.Recover(recs)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if sum.Tombstones != tombstones {
		t.Fatalf("recover summary = %+v", sum)
	}
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d tombstones retain %.2f MB", tombstones, float64(held)/(1<<20))
	if held > 10<<20 {
		t.Errorf("%d tombstones retain %.1f MB of heap, want under 10 MB", tombstones, float64(held)/(1<<20))
	}
	// It still answers like any finished run.
	r, ok := m.Get("run-7")
	if !ok {
		t.Fatal("tombstone run-7 missing")
	}
	if st := r.Status(); st.State != StateCompleted || st.Progress.Phase != "recovered" || st.Outcome == nil {
		t.Errorf("tombstone status = %+v", st)
	}
	if evs, first := r.EventsSince(0); len(evs) != 0 || first != 1 || r.EventsTotal() != 0 {
		t.Errorf("tombstone ring: %d events from ordinal %d, total %d", len(evs), first, r.EventsTotal())
	}
	runtime.KeepAlive(m)
}
