package runs

import (
	"context"
	"strings"
	"testing"
	"time"

	"mbrim/internal/graph"
	"mbrim/internal/obs"
)

// TestRetentionBoundsRegistryCardinality drives 100 runs through a
// manager with RetainRuns=5 and asserts the registry's series count
// stays bounded — the leak this pins against is per-run labeled diag
// series (diag.pair_disagreement{run,from,to} et al.) accumulating
// forever in a long-lived daemon.
func TestRetentionBoundsRegistryCardinality(t *testing.T) {
	const (
		total  = 100
		retain = 5
	)
	reg := obs.NewRegistry()
	m := NewManager(Config{Registry: reg, RetainRuns: retain})
	peak := 0
	for i := 0; i < total; i++ {
		r, err := m.Submit(context.Background(), mbrimSeqRequest(12, 10))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, r)
		if n := reg.SeriesCount(); n > peak {
			peak = n
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

	// Without release, each run leaves ~16 labeled diag series behind
	// (directed pair gauges alone are chips·(chips−1) per run), so 100
	// runs would push cardinality past 1600. The bound asserts the
	// retained-runs plateau instead.
	if peak > 400 {
		t.Fatalf("registry cardinality peaked at %d series across %d runs — per-run diag series are leaking", peak, total)
	}

	// Evicted runs' series are gone from the snapshot; retained ones
	// are still there.
	snap := reg.Snapshot()
	for key := range snap.Gauges {
		if strings.Contains(key, `run="run-1"`) {
			t.Fatalf("evicted run's series %q still registered", key)
		}
	}
	seenRetained := false
	for key := range snap.Gauges {
		if strings.HasPrefix(key, "diag.") && strings.Contains(key, `run="run-100"`) {
			seenRetained = true
			break
		}
	}
	if !seenRetained {
		t.Fatal("retained run has no diag series — the assertion above is vacuous")
	}

	if got := snap.Counters["runs.evicted_total"]; got != total-retain {
		t.Fatalf("runs.evicted_total = %d, want %d", got, total-retain)
	}
	if snap.Counters["runs.diag_series_released_total"] == 0 {
		t.Fatal("no diag series were released on eviction")
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

// TestTerminalClusterRunShedsItsRequest: once a run whose chips were on
// cluster workers is over, it no longer pins the dense model, its cut
// reporter or an event ring sized for a run thirty times as talkative —
// what the cluster surface's finished runs never held — while its status
// still knows the problem size. Every other engine's run keeps its
// request (DESIGN §13 records why), which for a K-graph submission is
// the model alone: the cut reporter is that model and its total weight.
func TestTerminalClusterRunShedsItsRequest(t *testing.T) {
	m := NewManager(Config{})
	for _, remote := range []bool{true, false} {
		req, err := m.buildRequest(&SubmitRequest{Engine: "sa", K: 24, Sweeps: 10})
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
		waitDone(t, r)
		r.mu.Lock()
		shed := r.req.Model == nil && r.req.Graph == nil && r.execReq.Model == nil
		kg, _ := r.req.Graph.(*graph.KGraph)
		kept := r.req.Model != nil && kg != nil && kg.Model == r.req.Model && r.execReq.Model == r.req.Model
		r.mu.Unlock()
		events, _ := r.EventsSince(0)
		if st := r.Status(); st.State != StateCompleted || st.Spins != 24 || len(events) == 0 || int64(len(events)) != r.EventsTotal() {
			t.Fatalf("remote=%v: status %+v, %d events of %d", remote, st, len(events), r.EventsTotal())
		}
		if remote && !shed {
			t.Error("a finished cluster run still pins its model or graph")
		}
		if !remote && !kept {
			t.Error("a finished in-process run lost its request")
		}
	}
}
