package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mbrim/internal/cluster/chaosproxy"
	"mbrim/internal/core"
	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/journal"
	"mbrim/internal/multichip"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
	"mbrim/internal/runs"
)

// atBarrier is a Tracer that calls f with the epoch of every barrier the
// coordinator completes — its EpochSync event, emitted before the next
// RPC goes out: where a test kills a worker or cancels the run between
// two epochs.
type atBarrier func(epoch int)

func (f atBarrier) Emit(e obs.Event) {
	if e.Kind == obs.EpochSync {
		f(e.Epoch)
	}
}

// eventLog keeps a run's event stream with the wall-clock fields zeroed.
type eventLog struct {
	mu     sync.Mutex
	events []obs.Event
}

func (l *eventLog) Emit(e obs.Event) {
	e.WallNS, e.WallDurNS = 0, 0
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func kmodel(n int, seed uint64) *ising.Model {
	return graph.Complete(n, rng.New(seed)).ToIsing()
}

// startWorkers launches k in-process worker servers (worker routes
// plus the /healthz the prober relies on) and returns their base URLs.
func startWorkers(t *testing.T, k int) []string {
	t.Helper()
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		mux := http.NewServeMux()
		NewWorker(nil, 0).Routes(mux)
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// fastConfig returns a Config tuned for loopback tests: tight
// timeouts, quick heartbeats, minimal backoff.
func fastConfig(workers []string, chips int, seed uint64, duration float64) Config {
	return Config{
		Workers:           workers,
		Chips:             chips,
		Seed:              seed,
		DurationNS:        duration,
		ChannelBytesPerNS: 0.5,
		SampleEveryNS:     duration / 10,
		RPCTimeout:        2 * time.Second,
		MaxAttempts:       3,
		BackoffBase:       time.Millisecond,
		BackoffMax:        4 * time.Millisecond,
		HeartbeatEvery:    20 * time.Millisecond,
		HeartbeatMisses:   5,
	}
}

// inProcessConfig is the multichip configuration a coordinator's slices
// derive from cfg.
func inProcessConfig(cfg Config) multichip.Config {
	return multichip.Config{
		Chips:             cfg.Chips,
		EpochNS:           cfg.EpochNS,
		Coordinated:       cfg.Coordinated,
		Seed:              cfg.Seed,
		Channels:          cfg.Channels,
		ChannelBytesPerNS: cfg.ChannelBytesPerNS,
		SampleEveryNS:     cfg.SampleEveryNS,
	}
}

func inProcess(t *testing.T, m *ising.Model, cfg Config) *multichip.Result {
	t.Helper()
	return multichip.MustSystem(m, inProcessConfig(cfg)).RunConcurrent(cfg.DurationNS)
}

// sameResult requires a distributed solve's result to equal the
// in-process one in every field and names the fields that differ.
func sameResult(t *testing.T, got, want *multichip.Result) {
	t.Helper()
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	var differ []string
	for i := 0; i < w.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			differ = append(differ, w.Type().Field(i).Name)
		}
	}
	if len(differ) > 0 {
		t.Errorf("cluster and in-process results differ in %v", differ)
	}
}

// TestClusterRecoversFromWorkerKill kills one worker mid-run (via a
// chaos-proxy blackhole at a chosen epoch) and checks the run
// completes with the same trajectory as an undisturbed in-process
// solve, with the recovery charged into the ledgers.
func TestClusterRecoversFromWorkerKill(t *testing.T) {
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
	killed := false
	cfg.Tracer = atBarrier(func(epoch int) {
		if epoch == 5 && !killed {
			killed = true
			proxies[2].Blackhole(true)
		}
	})
	reg := obs.NewRegistry()
	cfg.Metrics = reg

	want := inProcess(t, m, cfg)
	co, err := New(m, "t-kill", cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := co.Solve(context.Background())
	if err != nil {
		t.Fatalf("Solve after worker kill: %v", err)
	}

	// Trajectory is bit-identical to a run that never lost the worker;
	// the fabric ledgers also carry the hand-off, checked below.
	traj := got.Result
	traj.StallNS, traj.ElapsedNS, traj.Trace = want.StallNS, want.ElapsedNS, want.Trace
	traj.TrafficBytes, traj.PeakDemandBytesPerNS = want.TrafficBytes, want.PeakDemandBytesPerNS
	sameResult(t, &traj, want)

	// The robustness layer actually fired and was charged for.
	st := got.Recovery
	if st.WorkerDeaths == 0 || st.Recoveries == 0 {
		t.Fatalf("no recovery recorded: %+v", st)
	}
	if st.ReplayedEpochs == 0 {
		t.Errorf("no replayed epochs recorded: %+v", st)
	}
	if st.HandoffBytes <= 0 || st.RecoveryStallNS <= 0 {
		t.Errorf("recovery cost not charged: %+v", st)
	}
	if !st.Degraded {
		t.Errorf("3 slices on 2 survivors should report degraded mode")
	}
	if got.TrafficBytes <= want.TrafficBytes {
		t.Errorf("hand-off traffic not in ledger: cluster=%v in-process=%v", got.TrafficBytes, want.TrafficBytes)
	}
	if got.StallNS <= want.StallNS {
		t.Errorf("recovery stall not in ledger: cluster=%v in-process=%v", got.StallNS, want.StallNS)
	}
	if got.LiveWorkers != 2 {
		t.Errorf("live workers: %d, want 2", got.LiveWorkers)
	}
	// Neither the superseded incarnation nor the finished one stays on
	// the survivors (the blackholed worker cannot be reached to be told).
	for _, b := range backends[:2] {
		if ids := hostedSlices(t, b); len(ids) != 0 {
			t.Errorf("survivor %s still hosts %v", b, ids)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["cluster.recoveries"] == 0 {
		t.Errorf("cluster.recoveries metric not recorded")
	}
	if snap.Counters["cluster.worker_deaths"] == 0 {
		t.Errorf("cluster.worker_deaths metric not recorded")
	}
	if snap.Gauges["cluster.recovery_stall_ns"] <= 0 {
		t.Errorf("cluster.recovery_stall_ns metric not recorded")
	}
}

// TestClusterSurvivesFlakyTransport runs the whole solve through chaos
// proxies injecting drops, 5xx and latency and checks retries mask all
// of it: same result, no recovery needed.
func TestClusterSurvivesFlakyTransport(t *testing.T) {
	m := kmodel(36, 11)
	backends := startWorkers(t, 2)
	urls := make([]string, len(backends))
	for i, b := range backends {
		p, err := chaosproxy.New(b, chaosproxy.Config{
			Seed:      uint64(100 + i),
			DropRate:  0.08,
			ErrorRate: 0.08,
			DelayRate: 0.10,
			Delay:     2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(p)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	cfg := fastConfig(urls, 2, 17, 20)
	cfg.MaxAttempts = 6
	cfg.RetryBudget = 10_000
	want := inProcess(t, m, cfg)

	co, err := New(m, "t-flaky", cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := co.Solve(context.Background())
	if err != nil {
		t.Fatalf("Solve through flaky transport: %v", err)
	}
	sameResult(t, &got.Result, want)
	if got.Recovery.RPCRetries == 0 {
		t.Errorf("expected retries through a flaky transport, got none")
	}
	if got.Recovery.WorkerDeaths != 0 {
		t.Errorf("flaky-but-alive workers were declared dead: %+v", got.Recovery)
	}
}

// TestWorkerIdempotency pins the wire-protocol invariants retries rely
// on: step replay, epoch-gap conflict, and the double-sync guard.
func TestWorkerIdempotency(t *testing.T) {
	mux := http.NewServeMux()
	NewWorker(nil, 0).Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	post := func(t *testing.T, path string, body any) (*http.Response, []byte) {
		t.Helper()
		data, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	m := kmodel(16, 1)
	create := &CreateSliceRequest{
		Slice: 0,
		Model: ModelToWire(m),
		Config: SliceConfig{
			Chips: 2, Seed: 9, DurationNS: 10,
		},
	}
	data, _ := json.Marshal(create)
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/worker/slices/s0", bytes.NewReader(data))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("create: status %d, want 204", resp.StatusCode)
	}
	// Re-PUT converges (idempotent create).
	req2, _ := http.NewRequest(http.MethodPut, srv.URL+"/worker/slices/s0", bytes.NewReader(data))
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNoContent {
		t.Fatalf("re-create: status %d, want 204", resp2.StatusCode)
	}

	// Step epoch 1.
	r1, body1 := post(t, "/worker/slices/s0/step", &StepRequest{Epoch: 1})
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("step 1: status %d: %s", r1.StatusCode, body1)
	}
	// Retrying epoch 1 replays the identical bytes.
	r1b, body1b := post(t, "/worker/slices/s0/step", &StepRequest{Epoch: 1})
	if r1b.StatusCode != http.StatusOK {
		t.Fatalf("step 1 retry: status %d", r1b.StatusCode)
	}
	if !bytes.Equal(body1, body1b) {
		t.Fatal("step replay returned different bytes")
	}
	// Skipping ahead conflicts.
	r3, _ := post(t, "/worker/slices/s0/step", &StepRequest{Epoch: 3})
	if r3.StatusCode != http.StatusConflict {
		t.Fatalf("step 3 out of order: status %d, want 409", r3.StatusCode)
	}
	// Sync for the wrong barrier conflicts.
	rs, _ := post(t, "/worker/slices/s0/sync", &SyncRequest{Epoch: 7})
	if rs.StatusCode != http.StatusConflict {
		t.Fatalf("sync wrong epoch: status %d, want 409", rs.StatusCode)
	}
	// Sync at the current barrier is idempotent and returns the state.
	for _, what := range []string{"sync", "sync retry"} {
		rs, body := post(t, "/worker/slices/s0/sync", &SyncRequest{Epoch: 1})
		if rs.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", what, rs.StatusCode)
		}
		var sr SyncResponse
		if err := sr.UnmarshalBinary(body); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if st, err := unpackState(sr.State); err != nil || sr.Epoch != 1 || st.Epochs != 1 {
			t.Fatalf("%s: epoch %d, snapshot %v", what, sr.Epoch, err)
		}
	}
}

// opsServer is the daemon's surface in a test: runs.Mount on a bare mux,
// with this package linked in so "cluster" is a registered engine.
func opsServer(t *testing.T, cfg runs.Config) (*httptest.Server, *runs.Manager) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	mgr := runs.NewManager(cfg)
	mux := http.NewServeMux()
	runs.Mount(mux, mgr, cfg.Registry, nil)
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		drain(t, mgr)
		srv.Close()
	})
	return srv, mgr
}

// drain cancels whatever mgr still runs and waits for it to settle.
func drain(t *testing.T, mgr *runs.Manager) {
	t.Helper()
	mgr.CancelAll()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if !mgr.Wait(ctx) {
		t.Error("runs still in flight 30s after CancelAll")
	}
}

// post submits body to url and returns the status code and response
// body.
func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// getJSON decodes a 200 answer from url into v and returns the status.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// submitRun posts body under path, wants 202, and returns the run once
// it is terminal.
func submitRun(t *testing.T, srv *httptest.Server, mgr *runs.Manager, path, body string) *runs.Run {
	t.Helper()
	code, data := post(t, srv.URL+path, body)
	var st runs.Status
	if err := json.Unmarshal(data, &st); code != http.StatusAccepted || err != nil {
		t.Fatalf("POST %s = %d %s", path, code, data)
	}
	run, ok := mgr.Get(st.ID)
	if !ok {
		t.Fatalf("accepted run %q is not registered", st.ID)
	}
	select {
	case <-run.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("%s did not finish", st.ID)
	}
	return run
}

func workerList(workers []string) string { return `"` + strings.Join(workers, `","`) + `"` }

// TestManagerAPI drives a solve end to end through the /cluster/runs
// alias of the one run manager.
func TestManagerAPI(t *testing.T) {
	workers := startWorkers(t, 2)

	// Configurations the engine rejects are synchronous 400s: no run id
	// is taken, nothing is journaled, no worker sees the model.
	jpath := filepath.Join(t.TempDir(), "run.journal")
	jw, err := journal.Open(jpath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	srv, mgr := opsServer(t, runs.Config{Journal: jw})
	for name, c := range map[string]struct{ spec, want string }{
		"negative epoch":        {`"k":32,"epochNS":-1`, ""},
		"NaN epoch":             {`"k":32,"epochNS":NaN`, ""},
		"negative channels":     {`"k":32,"channels":-1`, ""},
		"negative chips":        {`"k":32,"chips":-1`, ""},
		"more chips than spins": {`"k":8,"chips":9`, "Chips=9 for N=8"},
		"epochs without end":    {`"k":8,"chips":2,"durationNS":5,"epochNS":1e-300`, "durationNS/epochNS is 5e+300 epochs"},
		// Fractional endpoints used to be truncated: the first was accepted
		// as edge (1,2), the second refused as an "out of range" (2,2).
		"fractional endpoints": {`"n":4,"edges":[[1,2,1],[1.9,2.2,1]]`, "edge 1 [1.9, 2.2]: endpoints must be integers"},
		"fractional self edge": {`"n":4,"edges":[[2.7,2.1,1]]`, "edge 0 [2.7, 2.1]: endpoints must be integers"},
	} {
		code, body := post(t, srv.URL+"/cluster/runs", `{"workers":[`+workerList(workers)+`],`+c.spec+`}`)
		if code != http.StatusBadRequest || !strings.Contains(string(body), c.want) {
			t.Errorf("%s: status %d body %s, want 400 carrying %q", name, code, body, c.want)
		}
	}
	// The rest of what the old surface refused, and what only one decoder
	// for both prefixes can: cluster fields on an engine that ignores them.
	for name, c := range map[string]struct{ path, body, want string }{
		"no workers":         {"/cluster/runs", `{"k":8}`, "no workers"},
		"k and edges":        {"/cluster/runs", `{"workers":[` + workerList(workers) + `],"k":8,"n":2,"edges":[[1,2,1]]}`, "k or edges"},
		"unknown field":      {"/cluster/runs", `{"workers":[` + workerList(workers) + `],"k":8,"warp":9}`, "warp"},
		"no engine on /runs": {"/runs", `{"workers":[` + workerList(workers) + `],"k":8}`, "unknown solver"},
		"workers for mbrim":  {"/runs", `{"engine":"mbrim","workers":[` + workerList(workers) + `],"k":8,"chips":2}`, "cluster fields require engine"},
		"federate for sa":    {"/runs", `{"engine":"sa","k":8,"federate":true}`, "cluster fields require engine"},
	} {
		if code, body := post(t, srv.URL+c.path, c.body); code != http.StatusBadRequest || !strings.Contains(string(body), c.want) {
			t.Errorf("%s: status %d body %s, want 400 carrying %q", name, code, body, c.want)
		}
	}
	if rep, err := journal.Replay(jpath); err != nil || len(rep.Records) != 0 {
		t.Errorf("rejected submissions left journal records: %+v, %v", rep, err)
	}
	if list := mgr.List(); len(list) != 0 {
		t.Errorf("rejected submissions created runs: %+v", list)
	}
	for _, w := range workers {
		if ids := hostedSlices(t, w); len(ids) != 0 {
			t.Errorf("rejected submissions reached worker %s: %v", w, ids)
		}
	}

	body, _ := json.Marshal(&runs.SubmitRequest{
		ClusterSpec:       core.ClusterSpec{Workers: workers},
		K:                 32,
		GraphSeed:         7,
		Seed:              99,
		DurationNS:        20,
		ChannelBytesPerNS: 0.5,
	})
	code, data := post(t, srv.URL+"/cluster/runs", string(body))
	var sub struct {
		ID string `json:"id"`
	}
	json.Unmarshal(data, &sub)
	if code != http.StatusAccepted || sub.ID != "run-1" {
		t.Fatalf("submit: status %d id %q, want 202 run-1 (rejected submissions take no id)", code, sub.ID)
	}

	deadline := time.Now().Add(30 * time.Second)
	var status struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Done   bool   `json:"done"`
		Error  string `json:"error"`
		Result *struct {
			Energy float64 `json:"energy"`
			Flips  int64   `json:"flips"`
			Epochs int     `json:"epochs"`
		} `json:"result"`
		Outcome *struct {
			Energy float64 `json:"energy"`
		} `json:"outcome"`
	}
	for {
		if time.Now().After(deadline) {
			t.Fatal("run did not finish in time")
		}
		status.Done, status.Error, status.Result, status.Outcome = false, "", nil, nil
		getJSON(t, srv.URL+"/cluster/runs/"+sub.ID, &status)
		if status.Done {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if status.Error != "" {
		t.Fatalf("run failed: %s", status.Error)
	}
	if status.ID != sub.ID || status.State != "completed" || status.Result == nil || status.Result.Epochs == 0 ||
		status.Outcome == nil || status.Outcome.Energy != status.Result.Energy {
		t.Fatalf("alias status: %+v (result %+v, outcome %+v)", status, status.Result, status.Outcome)
	}
	// The body named no engine, so the journal records the request with
	// the alias's default filled in: replay rebuilds a cluster run.
	rep, err := journal.Replay(jpath)
	if err != nil || len(rep.Records) == 0 || rep.Records[0].Type != journal.TypeSubmit {
		t.Fatalf("journal after the alias submit: %+v, %v", rep, err)
	}
	var spec runs.SubmitRequest
	if err := json.Unmarshal(rep.Records[0].Spec, &spec); err != nil || spec.Engine != "cluster" || spec.Seed != 99 {
		t.Errorf("journaled alias spec %s (%v), want engine cluster, seed 99", rep.Records[0].Spec, err)
	}

	// The API's answer equals the in-process engine's.
	m := kmodel(32, 7)
	want := multichip.MustSystem(m, multichip.Config{
		Chips: 2, Seed: 99, ChannelBytesPerNS: 0.5, SampleEveryNS: 0.2,
	}).RunConcurrent(20)
	if status.Result.Energy != want.Energy || status.Result.Flips != want.Flips {
		t.Errorf("energy, flips via API: %v, %v; want %v, %v", status.Result.Energy, status.Result.Flips, want.Energy, want.Flips)
	}
}
