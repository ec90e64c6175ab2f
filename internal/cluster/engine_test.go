package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mbrim/internal/core"
	"mbrim/internal/graph"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
	"mbrim/internal/runs"
)

// What a distributed run inherits by being a run of the one manager,
// each behaviour pinned once, all through runs.Manager and httptest
// workers.

// sameLedger asserts two outcomes agree bit for bit on everything the
// multiprocessor's trajectory determines.
func sameLedger(t *testing.T, label string, got, want *runs.OutcomeBody) {
	t.Helper()
	for name, pair := range map[string][2]float64{
		"energy":       {got.Energy, want.Energy},
		"modelNS":      {got.ModelNS, want.ModelNS},
		"stallNS":      {got.Stats["stallNS"], want.Stats["stallNS"]},
		"flips":        {got.Stats["flips"], want.Stats["flips"]},
		"inducedFlips": {got.Stats["inducedFlips"], want.Stats["inducedFlips"]},
		"bitChanges":   {got.Stats["bitChanges"], want.Stats["bitChanges"]},
		"trafficBytes": {got.Stats["trafficBytes"], want.Stats["trafficBytes"]},
		"cut":          {got.Cut, want.Cut},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Errorf("%s: %s %v, want %v", label, name, pair[0], pair[1])
		}
	}
	if fmt.Sprint(got.Spins) != fmt.Sprint(want.Spins) {
		t.Errorf("%s: spins differ", label)
	}
}

// outcomeOf wraps a finished run's outcome the way GET …/outcome does.
func outcomeOf(t *testing.T, run *runs.Run) *runs.OutcomeBody {
	t.Helper()
	out, _ := run.Outcome()
	if out == nil {
		t.Fatalf("%s has no outcome: %+v", run.ID(), run.Status())
	}
	return &runs.OutcomeBody{Energy: out.Energy, Cut: out.Cut, ModelNS: out.ModelNS, Stats: out.Stats, Spins: out.Spins}
}

// TestClusterEngineMatchesInProcess is the differential: the same
// problem submitted as engine "cluster" on /runs, through the
// /cluster/runs alias, and as the in-process "mbrim" engine lands on the
// same bits — energy, model time, stall, flips, bit changes, traffic —
// and the spins every /outcome serves recompute to the reported energy.
func TestClusterEngineMatchesInProcess(t *testing.T) {
	srv, mgr := opsServer(t, runs.Config{})
	workers := workerList(startWorkers(t, 2))
	gnp := graph.Random(64, 0.1, rng.New(17))
	edges := make([]string, 0, gnp.M())
	for _, e := range gnp.Edges() {
		edges = append(edges, fmt.Sprintf("[%d,%d,%g]", e.U+1, e.V+1, e.Weight))
	}
	for _, p := range []struct {
		name, spec string
		g          *graph.Graph
	}{
		{"K32", `"k":32,"graphSeed":7,"chips":2`, graph.Complete(32, rng.New(7))},
		{"G64-3chips", `"n":64,"edges":[` + strings.Join(edges, ",") + `],"chips":3`, gnp},
	} {
		model := p.g.ToIsing()
		for seed := 1; seed <= 3; seed++ {
			spec := fmt.Sprintf(`%s,"seed":%d,"durationNS":40,"channelBytesPerNS":0.05}`, p.spec, seed)
			var bodies []*runs.OutcomeBody
			for _, sub := range []struct{ path, head string }{
				{"/runs", `{"engine":"mbrim",`},
				{"/runs", `{"engine":"cluster","workers":[` + workers + `],`},
				{"/cluster/runs", `{"workers":[` + workers + `],`},
			} {
				id := submitRun(t, srv, mgr, sub.path, sub.head+spec).ID()
				var ob runs.OutcomeBody
				if code := getJSON(t, srv.URL+sub.path+"/"+id+"/outcome", &ob); code != http.StatusOK || ob.State != runs.StateCompleted {
					t.Fatalf("%s seed %d: GET %s/%s/outcome = %d, state %q: %s", p.name, seed, sub.path, id, code, ob.State, ob.Error)
				}
				if e := model.Energy(ob.Spins); e != ob.Energy {
					t.Errorf("%s seed %d %s: reported energy %v, spins have %v", p.name, seed, ob.Engine, ob.Energy, e)
				}
				bodies = append(bodies, &ob)
			}
			if bodies[0].Stats["stallNS"] == 0 {
				t.Fatalf("%s seed %d: the fabric never stalled — the elapsed-time ledger is unpinned", p.name, seed)
			}
			sameLedger(t, fmt.Sprintf("%s seed %d: cluster on /runs vs mbrim", p.name, seed), bodies[1], bodies[0])
			sameLedger(t, fmt.Sprintf("%s seed %d: /cluster/runs vs mbrim", p.name, seed), bodies[2], bodies[0])
			if bodies[1].Engine != "cluster" || bodies[2].Engine != "cluster" || bodies[1].Stats["epochs"] == 0 {
				t.Errorf("%s seed %d: engines %q, %q; epochs %v", p.name, seed, bodies[1].Engine, bodies[2].Engine, bodies[1].Stats["epochs"])
			}
		}
	}
}

// cancelAtEpoch cancels a run's context the moment barrier epoch lands
// on its event stream.
type cancelAtEpoch struct {
	epoch  int
	cancel context.CancelFunc
}

func (c cancelAtEpoch) Emit(e obs.Event) {
	if e.Kind == obs.EpochSync && e.Epoch == c.epoch {
		c.cancel()
	}
}

// TestClusterEngineResume: a cluster run cancelled at a random epoch
// hands back a checkpoint that the cluster engine and, separately, the
// in-process engine resume to the uninterrupted run's bits; a checkpoint
// from another seed, model or chip count is refused.
func TestClusterEngineResume(t *testing.T) {
	_, mgr := opsServer(t, runs.Config{})
	workers := startWorkers(t, 2)
	g := graph.Complete(40, rng.New(3))
	request := func() core.Request {
		return core.Request{Kind: core.Cluster, Model: g.ToIsing(), Graph: g, Seed: 5, DurationNS: 60, Chips: 2,
			ChannelBytesPerNS: 0.05, SampleEveryNS: 6, Cluster: core.ClusterSpec{Workers: workers, CheckpointEvery: 4}}
	}
	solve := func(label string, req core.Request) (*runs.Run, *runs.OutcomeBody) {
		t.Helper()
		run, err := mgr.Submit(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		select {
		case <-run.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("%s did not finish", label)
		}
		if st := run.Status(); st.State != runs.StateCompleted {
			return run, nil
		}
		return run, outcomeOf(t, run)
	}
	_, want := solve("uninterrupted", request())
	if want == nil {
		t.Fatal("the uninterrupted run did not complete")
	}
	epochs := int(want.Stats["epochs"])

	cut := 1 + rng.New(uint64(time.Now().UnixNano())).Intn(epochs-2)
	t.Logf("cancelling at epoch %d of %d", cut, epochs)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := request()
	req.Tracer = cancelAtEpoch{cut, cancel}
	run, err := mgr.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	<-run.Done()
	env := run.Checkpoint()
	// (The coordinator completes the barrier in flight before it cuts.)
	if st := run.Status(); st.State != runs.StateInterrupted || len(env) == 0 || st.Progress.Epoch < cut || st.Progress.Epoch >= epochs {
		t.Fatalf("cancelled run: state %s at epoch %d, %d checkpoint bytes: %s", st.State, st.Progress.Epoch, len(env), st.Error)
	}

	resumed := request()
	resumed.Resume = env
	_, got := solve("resumed by cluster", resumed)
	if got == nil {
		t.Fatal("the cluster engine did not complete from its own checkpoint")
	}
	sameLedger(t, "resumed by cluster", got, want)
	if got.Stats["epochs"] != want.Stats["epochs"] {
		t.Errorf("resumed by cluster: %v epochs, want %v", got.Stats["epochs"], want.Stats["epochs"])
	}

	inproc := request()
	inproc.Kind, inproc.Cluster, inproc.Resume = core.MBRIMConcurrent, core.ClusterSpec{}, env
	_, got = solve("resumed by mbrim", inproc)
	if got == nil {
		t.Fatal("the in-process engine did not complete from the cluster checkpoint")
	}
	sameLedger(t, "resumed by mbrim", got, want)

	other := graph.Complete(40, rng.New(4))
	for name, c := range map[string]struct {
		mutate func(*core.Request)
		want   string
	}{
		"another seed":       {func(r *core.Request) { r.Seed = 6 }, "seed"},
		"another model":      {func(r *core.Request) { r.Model, r.Graph = other.ToIsing(), other }, "model"},
		"another chip count": {func(r *core.Request) { r.Chips = 4 }, "checkpoint has 2 chips, resuming 4"},
		"another horizon":    {func(r *core.Request) { r.DurationNS = 80 }, "duration"},
	} {
		bad := request()
		bad.Resume = env
		c.mutate(&bad)
		r, _ := solve(name, bad)
		if st := r.Status(); st.State != runs.StateFailed || !strings.Contains(st.Error, c.want) {
			t.Errorf("%s: state %s, error %q; want a refusal naming %q", name, st.State, st.Error, c.want)
		}
	}
	for _, w := range workers {
		if ids := hostedSlices(t, w); len(ids) != 0 {
			t.Errorf("worker %s still hosts %v", w, ids)
		}
	}
}

// TestClusterRunsAgeOut: retention reaches distributed runs. Five
// federated runs under RetainRuns 2 leave two registered, no fleet_* or
// diag_* series labelled with an evicted run, and no slice on any worker.
// The cluster manager's table never evicted, and nothing ever released a
// federated run's series.
func TestClusterRunsAgeOut(t *testing.T) {
	reg := obs.NewRegistry()
	srv, mgr := opsServer(t, runs.Config{Registry: reg, RetainRuns: 2})
	wregs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	workers := make([]string, len(wregs))
	for i, wreg := range wregs {
		mux := http.NewServeMux()
		NewWorker(wreg, 0).Routes(mux)
		mux.Handle("GET /metrics.json", wreg)
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
		wsrv := httptest.NewServer(mux)
		t.Cleanup(wsrv.Close)
		workers[i] = wsrv.URL
	}
	for seed := 1; seed <= 5; seed++ {
		run := submitRun(t, srv, mgr, "/runs", fmt.Sprintf(
			`{"engine":"cluster","workers":[%s],"k":24,"seed":%d,"durationNS":30,"checkpointEvery":2,"federate":true}`,
			workerList(workers), seed))
		if st := run.Status(); st.State != runs.StateCompleted || run.Diag().Fleet == nil {
			t.Fatalf("run %d: %s %s, fleet section %v", seed, st.State, st.Error, run.Diag().Fleet)
		}
	}
	// (A run's Done closes just before the manager evicts on its behalf.)
	for deadline := time.Now().Add(10 * time.Second); reg.Snapshot().Counters["runs.evicted_total"] < 3 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	var ids []string
	for _, st := range mgr.List() {
		ids = append(ids, st.ID)
	}
	if fmt.Sprint(ids) != "[run-4 run-5]" {
		t.Errorf("registered runs %v, want [run-4 run-5]", ids)
	}
	snap := reg.Snapshot()
	kept := 0
	for key := range snap.Gauges {
		if !strings.HasPrefix(key, "fleet.") && !strings.HasPrefix(key, "diag.") {
			continue
		}
		for _, gone := range []string{`run="run-1"`, `run="run-2"`, `run="run-3"`} {
			if strings.Contains(key, gone) {
				t.Errorf("evicted run still owns series %s", key)
			}
		}
		if strings.Contains(key, `run="run-5"`) {
			kept++
		}
	}
	if kept == 0 {
		t.Error("a retained federated run owns no fleet_*/diag_* series: nothing was there to release")
	}
	if n := snap.Counters["runs.evicted_total"]; n != 3 {
		t.Errorf("runs.evicted_total = %d, want 3", n)
	}
	for i, wreg := range wregs {
		if n := wreg.Snapshot().Gauges["cluster.worker_slices"]; n != 0 {
			t.Errorf("worker %d still hosts %v slices: %v", i, n, hostedSlices(t, workers[i]))
		}
	}
}

// TestClusterRunsAreAdmittedLikeAnyOther: -max-active, -max-queued,
// -max-run-mb and deadlines reach distributed runs, which used to bypass
// all four.
func TestClusterRunsAreAdmittedLikeAnyOther(t *testing.T) {
	workers := workerList(startWorkers(t, 2))
	long := `{"workers":[` + workers + `],"k":16,"seed":1,"durationNS":30000`

	// One slot, one queue place: the third concurrent submission is shed.
	srv, mgr := opsServer(t, runs.Config{MaxActive: 1, MaxQueued: 1})
	for i, want := range []int{http.StatusAccepted, http.StatusAccepted, http.StatusTooManyRequests} {
		resp, err := http.Post(srv.URL+"/cluster/runs", "application/json", strings.NewReader(long+"}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want || (want == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "") {
			t.Fatalf("submission %d = %d (Retry-After %q), want %d", i+1, resp.StatusCode, resp.Header.Get("Retry-After"), want)
		}
	}
	// The dispatched run turns running on its own goroutine, so it may
	// still read pending here.
	if list := mgr.List(); len(list) != 2 || (list[0].State != runs.StatePending && list[0].State != runs.StateRunning) ||
		list[1].State != runs.StateQueued {
		t.Fatalf("run table %+v, want one dispatched and one queued", list)
	}
	// (Drained before the next manager hands out run-1 again: slices on
	// the workers are scoped by run id.)
	drain(t, mgr)

	// A deadline that expires mid-run interrupts it; the coordinator's
	// checkpoint is there to download, under either prefix.
	srv, mgr = opsServer(t, runs.Config{})
	run := submitRun(t, srv, mgr, "/cluster/runs", long+`,"deadlineMS":150}`)
	if st := run.Status(); st.State != runs.StateInterrupted || !st.HasCheckpoint || st.Progress.Epoch == 0 {
		t.Fatalf("deadlined run: %+v", st)
	}
	var legacy struct {
		Done   bool
		Result *struct{ Epochs int }
	}
	if code := getJSON(t, srv.URL+"/cluster/runs/"+run.ID(), &legacy); code != http.StatusOK || !legacy.Done || legacy.Result == nil || legacy.Result.Epochs == 0 {
		t.Errorf("legacy status of the interrupted run = %d %+v", code, legacy)
	}
	for _, prefix := range []string{"/runs/", "/cluster/runs/"} {
		resp, err := http.Get(srv.URL + prefix + run.ID() + "/checkpoint")
		if err != nil {
			t.Fatal(err)
		}
		var env json.RawMessage
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Errorf("GET %s%s/checkpoint = %d, %v", prefix, run.ID(), resp.StatusCode, err)
		}
	}

	// The memory fence charges a cluster run the model and the ring, not
	// the chips it hosts elsewhere: a four-chip K128 that is refused in
	// process (1 097 728 bytes against 1 000 000) is admitted over workers
	// (919 552).
	srv, mgr = opsServer(t, runs.Config{MaxRunBytes: 1_000_000})
	if code, body := post(t, srv.URL+"/runs", `{"engine":"mbrim","k":128,"chips":4,"durationNS":5}`); code != http.StatusRequestEntityTooLarge {
		t.Errorf("four chips in process = %d %s, want 413", code, body)
	}
	if st := submitRun(t, srv, mgr, "/runs", `{"engine":"cluster","workers":[`+workers+`],"k":128,"chips":4,"durationNS":5}`).Status(); st.State != runs.StateCompleted {
		t.Errorf("four chips over workers: %s %s", st.State, st.Error)
	}
}
