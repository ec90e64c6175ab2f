package cluster

import (
	"bytes"
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"mbrim/internal/cluster/chaosproxy"
	"mbrim/internal/diag"
	"mbrim/internal/obs"
	"mbrim/internal/runs"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden fleet Chrome trace")

// normalizeWall clears the wall-clock fields — the only nondeterminism
// the obs contract permits — so federated streams from identical runs
// compare byte for byte.
func normalizeWall(events []obs.Event) {
	for i := range events {
		events[i].WallNS = 0
		events[i].WallDurNS = 0
	}
}

// solveFederated runs cfg federated and returns the stream its Tracer
// was sent — the coordinator's events and the workers' forwarded ones —
// in canonical order.
func solveFederated(t *testing.T, n int, cfg Config, runID string) ([]obs.Event, *Result) {
	t.Helper()
	log := &eventLog{}
	cfg.Federate = true
	cfg.Tracer = obs.Fanout(cfg.Tracer, log)
	co, err := New(kmodel(n, cfg.Seed), runID, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := co.Solve(context.Background())
	if err != nil {
		t.Fatalf("federated Solve: %v", err)
	}
	return canonical(log.events), res
}

// canonical sorts a federated stream stably by model time, then origin
// (coordinator first, then workers by ordinal), then span ID, then
// start-before-end. Every key is deterministic and each origin's events
// reach the Tracer in their emission order, so any two runs of one
// seeded configuration sort to the same sequence however the pulls
// interleaved with the coordinator's own events.
func canonical(events []obs.Event) []obs.Event {
	originRank := func(origin string) int {
		if wi, ok := diag.WorkerOrigin(origin); ok {
			return wi + 1
		}
		return 0
	}
	kindRank := func(k obs.Kind) int {
		switch k {
		case obs.SpanStart:
			return 0
		case obs.SpanEnd:
			return 1
		}
		return 2
	}
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.ModelNS != b.ModelNS {
			return a.ModelNS < b.ModelNS
		}
		if ra, rb := originRank(a.Origin), originRank(b.Origin); ra != rb {
			return ra < rb
		}
		if a.Span != b.Span {
			return a.Span < b.Span
		}
		return kindRank(a.Kind) < kindRank(b.Kind)
	})
	return events
}

func TestDeriveTraceID(t *testing.T) {
	a := deriveTraceID(7, "run-1")
	if a == 0 {
		t.Fatal("trace ID must never be zero (zero means no context)")
	}
	if b := deriveTraceID(7, "run-1"); b != a {
		t.Fatalf("trace ID not deterministic: %x vs %x", a, b)
	}
	if deriveTraceID(8, "run-1") == a {
		t.Fatal("trace ID should depend on the seed")
	}
	if deriveTraceID(7, "run-2") == a {
		t.Fatal("trace ID should depend on the run ID")
	}
}

// TestFederationIngest pins the page-folding contract: events from
// another run's trace are dropped, wall stamps shift by the worker's
// clock offset, origins are stamped, and eviction gaps — both the
// partial-page and the everything-evicted shape — are counted, never
// silently absorbed. What is kept is forwarded to the run's own tracer.
func TestFederationIngest(t *testing.T) {
	reg, out := obs.NewRegistry(), obs.NewRing(16)
	f := newFederation(Config{Seed: 3, Chips: 2, Metrics: reg, Tracer: out}, "t-ingest", 2)
	f.setOffset(1, 500)

	kept := f.ingest(1, 0, EventsPage{
		First: 1,
		Total: 3,
		Events: []obs.Event{
			{Kind: obs.SpanStart, Trace: f.traceID, WallNS: 1500, Span: 1},
			{Kind: obs.SpanStart, Trace: f.traceID ^ 1, WallNS: 9000, Span: 2}, // foreign run
			{Kind: obs.SpanEnd, Trace: f.traceID, WallNS: 2500, Span: 1},
		},
	})
	if kept != 2 {
		t.Fatalf("kept %d events, want 2 (foreign-trace event filtered)", kept)
	}
	evs := out.Events()
	if len(evs) != 2 {
		t.Fatalf("the run's tracer was forwarded %d events, want 2", len(evs))
	}
	if evs[0].WallNS != 1000 || evs[1].WallNS != 2000 {
		t.Fatalf("clock offset not applied: wall stamps %d, %d want 1000, 2000", evs[0].WallNS, evs[1].WallNS)
	}
	for _, e := range evs {
		if e.Origin != "w1" {
			t.Fatalf("origin = %q, want w1", e.Origin)
		}
	}
	if f.cursor(1) != 3 {
		t.Fatalf("cursor = %d, want 3", f.cursor(1))
	}

	// A page whose first ordinal jumped past the cursor records the
	// evicted span of ordinals.
	f.ingest(0, 0, EventsPage{First: 5, Total: 6, Events: []obs.Event{
		{Kind: obs.SpanStart, Trace: f.traceID, Span: 9},
		{Kind: obs.SpanEnd, Trace: f.traceID, Span: 9},
	}})
	if f.dropped != 4 {
		t.Fatalf("dropped = %d after partial eviction, want 4", f.dropped)
	}
	// Everything between cursor and head evicted: empty page, advanced total.
	f.ingest(0, 6, EventsPage{First: 11, Total: 10})
	if f.dropped != 8 {
		t.Fatalf("dropped = %d after full eviction, want 8", f.dropped)
	}
	if f.cursor(0) != 10 {
		t.Fatalf("cursor = %d, want 10", f.cursor(0))
	}
	if g := reg.Snapshot().Gauges[`fleet.dropped_events{run="t-ingest"}`]; g != 8 {
		t.Fatalf("fleet.dropped_events gauge = %v, want 8", g)
	}
}

// TestFleetTraceGolden pins the whole fleet pipeline end to end: a
// seeded 2-worker federated solve — trace context propagated on every
// RPC, worker spans pulled back at checkpoint cadence, clock-shifted and
// forwarded to the run's Tracer beside the coordinator's spans — must,
// in canonical order, render through WriteChromeTrace to the checked-in
// golden byte for byte. Model time, span-ID allocation, pull cadence and
// the sort keys are all deterministic, so after clearing the two
// wall-clock fields any drift means the propagation format or the span
// layout changed and the golden must be regenerated deliberately with
// -update.
func TestFleetTraceGolden(t *testing.T) {
	cfg := fastConfig(startWorkers(t, 2), 2, 5, 20)
	cfg.CheckpointEvery = 2
	events, res := solveFederated(t, 24, cfg, "fleet-golden")
	if res.Energy >= 0 {
		t.Fatalf("no optimization progress (E=%v)", res.Energy)
	}
	normalizeWall(events)
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "fleet_trace_k24_w2.golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/cluster -run FleetTraceGolden -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("fleet trace drifted from golden (%d vs %d bytes); if the change is intended, regenerate with -update",
			buf.Len(), len(want))
	}
}

// TestFederationMergeDeterministic runs the same seeded config twice
// against fresh workers and asserts the normalized federated streams
// are identical in canonical order — what a run federates cannot depend
// on pull timing, goroutine scheduling, or worker interleaving.
func TestFederationMergeDeterministic(t *testing.T) {
	run := func() []obs.Event {
		cfg := fastConfig(startWorkers(t, 2), 4, 11, 25)
		cfg.CheckpointEvery = 3
		evs, _ := solveFederated(t, 32, cfg, "fleet-det")
		normalizeWall(evs)
		return evs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("federated streams differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("federated streams diverge at event %d:\n  a=%+v\n  b=%+v", i, a[i], b[i])
		}
	}
}

// TestFederationNeutralTrajectory asserts turning federation on does
// not perturb the solve: the distributed trajectory and every ledger
// stay bit-identical to the in-process engine, exactly as they are
// with federation off.
func TestFederationNeutralTrajectory(t *testing.T) {
	m := kmodel(36, 13)
	cfg := fastConfig(startWorkers(t, 2), 2, 13, 20)
	cfg.CheckpointEvery = 2
	want := inProcess(t, m, cfg)

	cfg.Federate = true
	co, err := New(m, "t-neutral", cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := co.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	compareToInProcess(t, got, want, true)
}

// TestFederationChaosKillMergesOneTrace is the chaos acceptance check:
// kill a worker mid-run and the finished run's stream is still ONE
// trace — every span carries the run's single trace ID, spans from the
// coordinator and at least two distinct workers appear in it, and the
// recovery is visible as both a span and fleet-diag attribution.
func TestFederationChaosKillMergesOneTrace(t *testing.T) {
	m := kmodel(48, 7)
	backends := startWorkers(t, 3)
	proxies := make([]*chaosproxy.Proxy, len(backends))
	urls := make([]string, len(backends))
	for i, b := range backends {
		p, err := chaosproxy.New(b, chaosproxy.Config{Seed: 41})
		if err != nil {
			t.Fatal(err)
		}
		proxies[i] = p
		srv := httptest.NewServer(p)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}

	cfg := fastConfig(urls, 3, 99, 25)
	cfg.CheckpointEvery = 2
	cfg.Federate = true
	killed := false
	kill := atBarrier(func(epoch int) {
		if epoch == 5 && !killed {
			killed = true
			proxies[2].Blackhole(true)
		}
	})
	red, log := diag.New(diag.Config{}), &eventLog{}
	cfg.Tracer = obs.Fanout(kill, red, log)
	co, err := New(m, "t-chaos-trace", cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := co.Solve(context.Background())
	if err != nil {
		t.Fatalf("Solve after worker kill: %v", err)
	}
	if got.Recovery.WorkerDeaths == 0 {
		t.Fatalf("kill did not register: %+v", got.Recovery)
	}

	traceID := deriveTraceID(cfg.Seed, "t-chaos-trace")
	origins := map[string]bool{}
	labels := map[string]int{}
	for _, e := range log.events {
		if e.Kind != obs.SpanStart {
			continue
		}
		if e.Trace != traceID {
			t.Fatalf("span %q carries trace %x, want the run's single trace %x", e.Label, e.Trace, traceID)
		}
		origins[e.Origin] = true
		labels[e.Label]++
	}
	if !origins["co"] {
		t.Fatal("the run's trace has no coordinator spans")
	}
	workerOrigins := 0
	for o := range origins {
		if strings.HasPrefix(o, "w") {
			workerOrigins++
		}
	}
	if workerOrigins < 2 {
		t.Fatalf("the run's trace has spans from %d workers, want >= 2 (origins: %v)", workerOrigins, origins)
	}
	for _, want := range []string{"cluster_run", "epoch", "chip_step", "step_rpc", "federation_pull", "recovery"} {
		if labels[want] == 0 {
			t.Fatalf("the run's trace is missing %q spans (have %v)", want, labels)
		}
	}

	snap := red.Snapshot().Fleet
	if snap == nil {
		t.Fatal("federated run's stream folded to no fleet diag")
	}
	deaths := 0
	for _, w := range snap.PerWorker {
		deaths += w.Deaths
	}
	if deaths == 0 {
		t.Fatalf("fleet diag did not attribute the worker loss: %+v", snap)
	}
	if snap.ReplayedEpochs == 0 {
		t.Errorf("fleet diag did not count replayed epochs: %+v", snap)
	}
}

// TestFederationRPCMetrics asserts the per-RPC diagnostics a federated
// run leaves in the registry: per-method latency histograms, the
// in-flight gauge drained back to zero, bytes-on-wire by worker, pull
// accounting, and the run-labeled fleet gauges.
// startMetricWorkers is startWorkers with a live registry per worker,
// serving /metrics.json the way mbrimd does, so the coordinator's
// scrape path has something real to federate.
func startMetricWorkers(t *testing.T, k int) []string {
	t.Helper()
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		wreg := obs.NewRegistry()
		mux := http.NewServeMux()
		NewWorker(wreg, 0).Routes(mux)
		mux.Handle("GET /metrics.json", wreg)
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

func TestFederationRPCMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := fastConfig(startMetricWorkers(t, 2), 2, 9, 20)
	cfg.CheckpointEvery = 2
	cfg.Metrics = reg
	red := diag.New(diag.Config{Registry: reg, RunID: "t-rpcmetrics"})
	cfg.Tracer = red
	solveFederated(t, 24, cfg, "t-rpcmetrics")

	snap := reg.Snapshot()
	for _, h := range []string{
		`cluster.rpc_latency_ns{method="step"}`,
		`cluster.rpc_latency_ns{method="sync"}`,
		`cluster.rpc_latency_ns{method="events"}`,
		`cluster.rpc_latency_ns{method="create"}`,
	} {
		if snap.Histograms[h].Count == 0 {
			t.Errorf("missing per-method RPC latency histogram %s", h)
		}
	}
	if g, ok := snap.Gauges["cluster.rpc_inflight"]; !ok || g != 0 {
		t.Errorf("cluster.rpc_inflight = %v, %v; want present and drained to 0", g, ok)
	}
	if snap.Counters[`fleet.wire_bytes{dir="rx",worker="0"}`] == 0 {
		t.Errorf("no wire bytes accounted for worker 0: %v", snap.Counters)
	}
	if snap.Counters["fleet.pulled_events"] == 0 {
		t.Error("federation pulled no events")
	}
	if snap.Histograms["fleet.pull_wall_ns"].Count == 0 {
		t.Error("no federation pull rounds observed")
	}
	if _, ok := snap.Gauges[`fleet.sync_fraction{run="t-rpcmetrics"}`]; !ok {
		t.Errorf("missing run-labeled fleet.sync_fraction gauge")
	}
	if snap.Gauges[`fleet.worker_steps{worker="0"}`] == 0 {
		t.Error("worker metrics scrape did not re-export cluster.worker_steps")
	}

	// Retention path: releasing the reducer drops every run-labeled series.
	if n := red.Release(); n == 0 {
		t.Fatal("Release released nothing")
	}
	for key := range reg.Snapshot().Gauges {
		if strings.Contains(key, `run="t-rpcmetrics"`) {
			t.Fatalf("released run still owns series %s", key)
		}
	}
}

// TestManagerTraceAndDiagEndpoints drives the HTTP surface: submit a
// federated run to the run manager, then fetch the Chrome trace and the
// diagnostics — fleet section included — exactly as an operator (or the
// smoke script) would, under both prefixes.
func TestManagerTraceAndDiagEndpoints(t *testing.T) {
	srv, mgr := opsServer(t, runs.Config{})
	workers := startWorkers(t, 2)
	id := submitRun(t, srv, mgr, "/runs", `{"engine":"cluster","workers":[`+workerList(workers)+
		`],"k":16,"chips":2,"durationNS":200,"seed":5,"checkpointEvery":2,"federate":true}`).ID()

	type diagBody struct {
		TraceID string `json:"traceID"`
		Fleet   *struct {
			Epochs    int64   `json:"epochs"`
			Workers   int     `json:"workers"`
			SyncFrac  float64 `json:"syncFraction"`
			PerWorker []struct {
				Epochs int64 `json:"epochs"`
			} `json:"perWorker"`
		} `json:"fleet"`
	}
	for _, prefix := range []string{"/runs/", "/cluster/runs/"} {
		// The run's trace parses as a Chrome trace and carries spans from
		// the coordinator and both workers under one trace ID.
		var doc struct {
			TraceEvents []struct {
				Name string   `json:"name"`
				Ph   string   `json:"ph"`
				Dur  *float64 `json:"dur"`
				Args struct {
					Trace  string `json:"trace"`
					Origin string `json:"origin"`
				} `json:"args"`
			} `json:"traceEvents"`
		}
		if code := getJSON(t, srv.URL+prefix+id+"/trace", &doc); code != http.StatusOK {
			t.Fatalf("GET %s%s/trace = %d", prefix, id, code)
		}
		traceIDs := map[string]bool{}
		origins := map[string]bool{}
		for _, ev := range doc.TraceEvents {
			if ev.Ph != "X" {
				continue
			}
			if ev.Dur == nil {
				t.Errorf("span %q (trace %q) never closed", ev.Name, ev.Args.Trace)
			}
			if ev.Args.Trace != "" {
				traceIDs[ev.Args.Trace] = true
				origins[ev.Args.Origin] = true
			}
		}
		if len(traceIDs) != 1 {
			t.Fatalf("trace carries %d trace IDs, want exactly 1: %v", len(traceIDs), traceIDs)
		}
		if !origins["co"] || !origins["w0"] || !origins["w1"] {
			t.Fatalf("trace origins = %v, want co plus both workers", origins)
		}

		// The diag endpoint reports the same trace ID and a fleet section.
		var dd diagBody
		if code := getJSON(t, srv.URL+prefix+id+"/diag", &dd); code != http.StatusOK {
			t.Fatalf("GET %s%s/diag = %d", prefix, id, code)
		}
		if !traceIDs[dd.TraceID] {
			t.Fatalf("diag trace ID %q vs trace IDs %v", dd.TraceID, traceIDs)
		}
		if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(dd.TraceID) {
			t.Fatalf("diag trace ID %q is not 16 hex digits", dd.TraceID)
		}
		if f := dd.Fleet; f == nil || f.Epochs == 0 || f.Workers != 2 || len(f.PerWorker) != 2 || f.SyncFrac < 0 || f.SyncFrac > 1 {
			t.Fatalf("fleet section: %+v", f)
		}
	}

	// A run that is not federated has the same endpoints and no fleet
	// section.
	plain := submitRun(t, srv, mgr, "/cluster/runs", `{"workers":["`+workers[0]+`"],"k":8,"durationNS":100,"seed":3}`).ID()
	var dd diagBody
	if code := getJSON(t, srv.URL+"/cluster/runs/"+plain+"/diag", &dd); code != http.StatusOK || dd.Fleet != nil || dd.TraceID != "" {
		t.Fatalf("diag of a non-federated run = %d %+v, want 200 without a fleet section", code, dd)
	}
}
