package runs

import (
	"context"
	"encoding/json"
	"io"
	"iter"
	"maps"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mbrim/internal/core"
	"mbrim/internal/graph"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
)

// TestRetentionBoundsRegistryCardinality drives 100 runs through a
// manager with RetainRuns=5: the oldest terminal runs are evicted, the
// newest stay, and no series the registry holds is labelled with a run
// at any point — a run's diagnostics are its /diag, not /metrics.
func TestRetentionBoundsRegistryCardinality(t *testing.T) {
	const (
		total  = 100
		retain = 5
	)
	reg := obs.NewRegistry()
	m := NewManager(Config{Registry: reg, RetainRuns: retain})
	for i := 0; i < total; i++ {
		r, err := m.Submit(context.Background(), mbrimSeqRequest(12, 10))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, r)
		if key := runLabeled(reg); key != "" {
			t.Fatalf("after %s: series %s carries a run label", r.ID(), key)
		}
	}

	// A run's Done closes before its finish goes on to evict: give the
	// last finishes their turn (they may not have had it on a loaded host).
	for deadline := time.Now().Add(10 * time.Second); reg.Snapshot().Counters["runs.evicted_total"] != total-retain && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := len(m.List()); got != retain {
		t.Fatalf("retained %d runs, want %d", got, retain)
	}
	if _, ok := m.Get("run-1"); ok {
		t.Fatal("evicted run-1 still registered")
	}
	if _, ok := m.Get("run-100"); !ok {
		t.Fatal("newest run evicted")
	}
	if got := reg.Snapshot().Counters["runs.evicted_total"]; got != total-retain {
		t.Fatalf("runs.evicted_total = %d, want %d", got, total-retain)
	}
}

// TestNoSeriesCarriesARunLabel: with nothing ever evicted, twenty
// rounds of a 4-chip concurrent mbrim run and an sa run leave the
// registry holding exactly the series the first round made, none of
// them labelled with a run. Pair disagreement, plateau, staleness, sync
// cost and stall are a run's Snapshot, read at /runs/{id}/diag.
func TestNoSeriesCarriesARunLabel(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Config{Registry: reg, RetainRuns: 0})
	mbrim := mbrimSeqRequest(12, 50)
	mbrim.Kind = core.MBRIMConcurrent
	first := 0
	for round := 1; round <= 20; round++ {
		for _, req := range []core.Request{mbrim, saRequest(12)} {
			r, err := m.Submit(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, r)
			if st := r.Status(); st.State != StateCompleted {
				t.Fatalf("%s: %+v", r.ID(), st)
			}
		}
		if key := runLabeled(reg); key != "" {
			t.Fatalf("round %d: series %s carries a run label", round, key)
		}
		switch n := seriesCount(reg); round {
		case 1:
			first = n
		case 20:
			if n != first {
				t.Fatalf("the registry held %d series after round 1 and %d after round 20", first, n)
			}
		}
	}
	if got := len(m.List()); got != 40 {
		t.Fatalf("retained %d runs, want all 40", got)
	}
}

// TestRetentionZeroKeepsEverything pins the historical default: no
// RetainRuns, no eviction.
func TestRetentionZeroKeepsEverything(t *testing.T) {
	m := NewManager(Config{})
	for i := 0; i < 3; i++ {
		r, err := m.Submit(context.Background(), saRequest(8))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, r)
	}
	if got := len(m.List()); got != 3 {
		t.Fatalf("retained %d runs, want all 3", got)
	}
}

// TestTerminalRunShedsItsRequest: however a run ends — solved in
// process, solved with its chips on cluster workers, interrupted, or
// cancelled while queued — it lets go of its model, the graph that
// reports its cuts and the request wired to its sinks, and keeps only
// the ring slots it filled, while its status (state and size), its
// event replay and its outcome still answer. Readers poll the three
// endpoints over HTTP while each run finishes, so under -race they race
// the release.
func TestTerminalRunShedsItsRequest(t *testing.T) {
	srv, m, _ := newTestServer(t, Config{MaxActive: 1, MaxQueued: 1})
	submit := func(sweeps int, remote bool) *Run {
		t.Helper()
		req, err := m.buildRequest(&SubmitRequest{Engine: "sa", K: 24, Sweeps: sweeps})
		if err != nil {
			t.Fatal(err)
		}
		if remote {
			req.Cluster.Workers = []string{"http://worker.invalid"} // sa ignores it; the manager does not
		}
		r, err := m.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var readers sync.WaitGroup
	// poll reads the run's status, replay and outcome until it is over,
	// then once more, and checks what that last round served.
	poll := func(r *Run, outcome int) {
		for _, path := range []string{"", "/events?replay=10000", "/outcome"} {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for over := false; !over; {
					select {
					case <-r.Done():
						over = true
					default:
					}
					resp, err := http.Get(srv.URL + "/runs/" + r.ID() + path)
					if err != nil {
						t.Error(err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					var st Status
					switch {
					case !over:
					case path == "/outcome" && resp.StatusCode != outcome:
						t.Errorf("%s%s = %d, want %d: %s", r.ID(), path, resp.StatusCode, outcome, body)
					case path == "/events?replay=10000" && (resp.StatusCode != 200 || !strings.Contains(string(body), "event: done")):
						t.Errorf("%s%s = %d without its done event", r.ID(), path, resp.StatusCode)
					case path == "" && (json.Unmarshal(body, &st) != nil || !st.State.Terminal() || st.Spins != 24):
						t.Errorf("%s status = %s", r.ID(), body)
					}
				}
			}()
		}
	}

	blocker := submit(1<<30, false) // holds the one slot until cancelled
	poll(blocker, http.StatusOK)
	queued := submit(10, false)
	poll(queued, http.StatusNotFound) // it never ran: no outcome
	if st := queued.Status(); st.State != StateQueued {
		t.Fatalf("second run is %s, not queued", st.State)
	}
	queued.Cancel()
	blocker.Cancel()
	waitDone(t, blocker)
	local := submit(2000, false)
	poll(local, http.StatusOK)
	waitDone(t, local)
	remote := submit(2000, true)
	poll(remote, http.StatusOK)
	waitDone(t, remote)
	readers.Wait()

	for _, tc := range []struct {
		name  string
		r     *Run
		state State
	}{
		{"interrupted in process", blocker, StateInterrupted},
		{"cancelled while queued", queued, StateInterrupted},
		{"completed in process", local, StateCompleted},
		{"completed on cluster workers", remote, StateCompleted},
	} {
		waitDone(t, tc.r)
		tc.r.mu.Lock()
		shed := tc.r.req.Model == nil && tc.r.req.Graph == nil && tc.r.execReq.Model == nil
		tc.r.mu.Unlock()
		if !shed {
			t.Errorf("%s: the finished run still pins its model, graph or request", tc.name)
		}
		if held, room := ringSlots(tc.r.ring); held != room {
			t.Errorf("%s: its ring holds %d events in %d slots", tc.name, held, room)
		}
		events, _ := tc.r.EventsSince(0)
		if st := tc.r.Status(); st.State != tc.state || st.Spins != 24 || int64(len(events)) != tc.r.EventsTotal() {
			t.Errorf("%s: status %+v, %d events of %d", tc.name, st, len(events), tc.r.EventsTotal())
		}
		out, err := tc.r.Outcome()
		if ran := tc.r != queued; (out != nil && len(out.Spins) == 24) != ran || (err == nil) != (tc.state == StateCompleted) {
			t.Errorf("%s: outcome %v, error %v", tc.name, out, err)
		}
	}
}

// ringSlots returns how many events a ring holds and how many it has
// room for.
func ringSlots(r *obs.Ring) (held, room int) {
	buf := reflect.ValueOf(r).Elem().FieldByName("buf")
	return buf.Len(), buf.Cap()
}

// TestRetainedRunsHoldOnlyTheirEvents: what a finished run costs the
// table that retains it is its outcome, its trimmed events and its diag
// — not the edge list's graph, the model or the request it was built
// from. Eight runs of sparse1k_mbrim4's shape (1 024 spins at 2 %, four
// chips) cost at most 0.5 MB each beyond the first; holding their
// requests made it ≈ 1.4 MB.
func TestRetainedRunsHoldOnlyTheirEvents(t *testing.T) {
	m := NewManager(Config{RetainRuns: 8})
	var triples [][3]float64
	for _, e := range graph.Random(1024, 0.02, rng.New(1)).Edges() {
		triples = append(triples, [3]float64{float64(e.U + 1), float64(e.V + 1), e.Weight})
	}
	base := runtime.NumGoroutine()
	run := func(seed uint64) {
		t.Helper()
		req, err := m.buildRequest(&SubmitRequest{Engine: "mbrim", N: 1024, Edges: triples, Chips: 4, DurationNS: 100, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, r)
		if r.Status().State != StateCompleted {
			t.Fatalf("run %d: %+v", seed, r.Status())
		}
	}
	// heap is the live heap once the last run's goroutine, whose copy of
	// the request outlives Done by a few instructions, has returned.
	heap := func() uint64 {
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		runtime.GC() // twice: pooled objects survive one cycle in the victim cache
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run(1)
	one := heap()
	for seed := uint64(2); seed <= 8; seed++ {
		run(seed)
	}
	eight := heap()
	if got := len(m.List()); got != 8 {
		t.Fatalf("retained %d runs, want 8", got)
	}
	per := (int64(eight) - int64(one)) / 7
	if per > 512<<10 {
		t.Errorf("each retained run holds %d bytes, above 0.5 MB", per)
	}
	t.Logf("%d edges: one retained run %d bytes of heap, eight %d: %d bytes a run", len(triples), one, eight, per)
}

// seriesCount is how many series the registry's snapshot holds.
func seriesCount(reg *obs.Registry) int {
	s := reg.Snapshot()
	return len(s.Counters) + len(s.Gauges) + len(s.Histograms)
}

// runLabeled returns a snapshot key of reg that carries a run label,
// "" when none does.
func runLabeled(reg *obs.Registry) string {
	s := reg.Snapshot()
	for _, keys := range []iter.Seq[string]{maps.Keys(s.Counters), maps.Keys(s.Gauges), maps.Keys(s.Histograms)} {
		for key := range keys {
			if strings.Contains(key, `run="`) {
				return key
			}
		}
	}
	return ""
}
