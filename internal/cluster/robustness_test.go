package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"mbrim/internal/core"
	"mbrim/internal/multichip"
	"mbrim/internal/obs"
	"mbrim/internal/runs"
)

// hostedSlices lists the slice ids a worker currently hosts.
func hostedSlices(t *testing.T, worker string) []string {
	t.Helper()
	resp, err := http.Get(worker + "/worker/slices")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Slices []string `json:"slices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Slices
}

// TestSolveReleasesWorkerSlices: a coordinator deletes its slices from
// the workers on the way out, so a worker's DefaultMaxSlices bounds the
// slices of runs in flight, not of every run it ever served. Before the
// release path existed the 65th two-chip solve against two default
// workers failed with 503 → "no workers left".
func TestSolveReleasesWorkerSlices(t *testing.T) {
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	urls := make([]string, len(regs))
	for i, reg := range regs {
		mux := http.NewServeMux()
		NewWorker(reg, 0).Routes(mux)
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	m := kmodel(8, 3)
	for run := 0; run < 70; run++ {
		cfg := fastConfig(urls, 2, 5, 7)
		ctx, cancel := context.WithCancel(context.Background())
		if run%7 == 3 {
			// Interrupted runs release too — after their checkpoint.
			cfg.Tracer = atBarrier(func(int) { cancel() })
		}
		co, err := New(m, fmt.Sprintf("r%d", run), cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, env, err := co.Solve(ctx)
		cancel()
		if run%7 == 3 {
			if err != context.Canceled || len(env) == 0 {
				t.Fatalf("run %d: err=%v, %d envelope bytes", run, err, len(env))
			}
		} else if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	for i, reg := range regs {
		if n := reg.Snapshot().Gauges["cluster.worker_slices"]; n != 0 {
			t.Errorf("worker %d still hosts %v slices: %v", i, n, hostedSlices(t, urls[i]))
		}
	}
}

// fakeWorker answers the worker protocol without hosting anything; its
// step reports come from report, already in wire form.
func fakeWorker(t *testing.T, report func(epoch int) *ReportWire) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("PUT /worker/slices/{id}", func(w http.ResponseWriter, _ *http.Request) {
		writeWire(w, map[string]any{})
	})
	mux.HandleFunc("DELETE /worker/slices/{id}", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /worker/slices/{id}/step", func(w http.ResponseWriter, r *http.Request) {
		var req StepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeWire(w, &StepResponse{Report: report(req.Epoch)})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestCancelBeforeSlicesExistStillCuts: a run cancelled before its
// slices exist — a daemon's checkpoint segment can end that soon on a
// loaded host — still creates them and hands back an envelope at the
// barrier it started from, where System cuts, from the start and from
// an envelope alike. The two envelopes are the same bytes, which is how
// the daemon sees a segment that made no progress, and the run finished
// from them is the uninterrupted one. A cancel that cut slice creation
// short failed the run instead.
func TestCancelBeforeSlicesExistStillCuts(t *testing.T) {
	m := kmodel(24, 5)
	cfg := fastConfig(startWorkers(t, 2), 2, 9, 20)
	want := inProcess(t, m, cfg)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var env []byte
	solve := func(ctx context.Context, id string) (*Result, []byte, error) {
		co, err := New(m, id, cfg)
		if err == nil && env != nil {
			err = co.resumeFrom(decodeEnvelope(t, m, cfg.Seed, env))
		}
		if err != nil {
			t.Fatal(err)
		}
		return co.run(ctx)
	}
	for seg := 1; seg <= 2; seg++ {
		_, out, err := solve(cancelled, fmt.Sprintf("early-%d", seg))
		if !errors.Is(err, context.Canceled) || out == nil {
			t.Fatalf("segment %d: err=%v, %d envelope bytes", seg, err, len(out))
		}
		if at := decodeEnvelope(t, m, cfg.Seed, out).EpochsDone; at != 0 {
			t.Fatalf("segment %d cut at epoch %d, want 0", seg, at)
		}
		if env != nil && !bytes.Equal(out, env) {
			t.Fatalf("segment %d's envelope is not segment %d's", seg, seg-1)
		}
		env = out
	}
	res, _, err := solve(context.Background(), "early-end")
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, &res.Result, want)
}

// TestMalformedEpochReportFailsRun: a step response the slice could not
// have produced fails the run with an error. The first case used to
// panic the Solve goroutine inside interconnect.DeltaSyncBytes
// ("changes=20 local=8"); the others were forwarded to the other
// slices unchecked. Rows are the packed wire form: an update is
// {G, V, Induced}, and the all-up readout of K16's eight spins a slice
// is the single byte 0xff.
func TestMalformedEpochReportFailsRun(t *testing.T) {
	type up = multichip.PendingUpdate
	allUp := []byte{0xff}
	twenty := make([]up, 20)
	for i := range twenty {
		twenty[i] = up{G: i % 8, V: 1}
	}
	for name, row := range map[string]struct {
		k              int // K-graph size over two chips; both fakes answer as if slice 0
		updates, spins []byte
	}{
		"more updates than owned spins":  {16, packUpdates(twenty), allUp},
		"global index outside the slice": {16, packUpdates([]up{{G: 12, V: 1}}), allUp},
		"updates out of order":           {16, packUpdates([]up{{G: 3, V: 1}, {G: 2, V: 1}}), allUp},
		"repeated update":                {16, packUpdates([]up{{G: 3, V: 1}, {G: 3, V: 1}}), allUp},
		// The packed word has no room for a value that is not ±1; what is
		// left to get wrong is a value the slice's own readout contradicts.
		"update value not a spin": {16, packUpdates([]up{{G: 0, V: -1}}), allUp},
		// A readout sent one byte per spin, as it was before packing.
		"readout not spins":            {16, nil, make([]byte, 8)},
		"readout short":                {16, nil, []byte{}},
		"update list of odd length":    {16, packUpdates([]up{{G: 1, V: 1}})[:3], allUp},
		"update index beyond any spin": {16, []byte{0xfd, 0xff, 0xff, 0xff}, allUp},
		// K12 owns six spins a slice, so the readout byte has two padding bits.
		"readout padding bits set": {12, nil, []byte{0x7f}},
	} {
		t.Run(name, func(t *testing.T) {
			worker := fakeWorker(t, func(epoch int) *ReportWire {
				return &ReportWire{Epoch: epoch, Updates: row.updates, Spins: row.spins}
			})
			co, err := New(kmodel(row.k, 3), "t-malformed", fastConfig([]string{worker, worker}, 2, 5, 10))
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := co.Solve(context.Background())
			if err == nil || !strings.Contains(err.Error(), "malformed epoch report") {
				t.Fatalf("Solve = %+v, %v; want a malformed-report error", res, err)
			}
		})
	}
}

// TestClusterCountsStepRetries: the guardrail retries a worker drains
// into each epoch report add up in brim.step_retries, the counter
// System adds them to in process.
func TestClusterCountsStepRetries(t *testing.T) {
	worker := fakeWorker(t, func(epoch int) *ReportWire {
		// K16 on two slices: eight owned spins, one readout byte.
		return &ReportWire{Epoch: epoch, Spins: []byte{0x5a}, StepRetries: 2}
	})
	cfg := fastConfig([]string{worker, worker}, 2, 5, 10)
	cfg.Metrics = obs.NewRegistry()
	co, err := New(kmodel(16, 3), "t-retries", cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := co.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := int64(2 * cfg.Chips * res.Epochs)
	if got := cfg.Metrics.Counter("brim.step_retries").Value(); res.Epochs == 0 || got != want {
		t.Fatalf("brim.step_retries = %d over %d epochs, want %d", got, res.Epochs, want)
	}
}

// TestNewValidatesThroughMultichip: what the engine rejects, New
// rejects, synchronously — before any worker sees the configuration.
func TestNewValidatesThroughMultichip(t *testing.T) {
	m := kmodel(8, 3)
	for name, mutate := range map[string]func(*Config){
		"negative epoch":        func(c *Config) { c.EpochNS = -1 },
		"NaN epoch":             func(c *Config) { c.EpochNS = math.NaN() },
		"negative channels":     func(c *Config) { c.Channels = -1 },
		"negative chips":        func(c *Config) { c.Chips = -2 },
		"more chips than spins": func(c *Config) { c.Chips = 9 },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := fastConfig([]string{"http://127.0.0.1:1"}, 2, 5, 10)
			mutate(&cfg)
			if co, err := New(m, "t-invalid", cfg); err == nil {
				t.Fatalf("New accepted the configuration: %+v", co.cfg)
			}
		})
	}
}

// closeSpy stands in for http.DefaultTransport and counts the
// CloseIdleConnections calls that reach it.
type closeSpy struct {
	http.RoundTripper
	closes atomic.Int64
}

func (s *closeSpy) CloseIdleConnections() { s.closes.Add(1) }

// TestManagerKeepsConnectionsWarm: the engine's runs share one
// keep-alive pool, so back-to-back solves dial each worker a small
// constant number of times — not once per solve, as they did while every
// finished run closed the idle connections of the process-wide default
// transport under every other run — and neither a managed run nor a bare
// coordinator without a Config.Client touches http.DefaultTransport.
func TestManagerKeepsConnectionsWarm(t *testing.T) {
	spy := &closeSpy{RoundTripper: http.DefaultTransport}
	http.DefaultTransport = spy
	defer func() { http.DefaultTransport = spy.RoundTripper }()

	dials := make([]atomic.Int64, 2)
	workers := make([]string, len(dials))
	for i := range dials {
		mux := http.NewServeMux()
		NewWorker(nil, 0).Routes(mux)
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
		srv := httptest.NewUnstartedServer(mux)
		srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				dials[i].Add(1)
			}
		}
		srv.Start()
		t.Cleanup(srv.Close)
		workers[i] = srv.URL
	}
	api, mgr := opsServer(t, runs.Config{})

	const solves = 12
	for run := 1; run <= solves; run++ {
		body, _ := json.Marshal(&runs.SubmitRequest{ClusterSpec: core.ClusterSpec{Workers: workers},
			K: 16, Seed: uint64(run), DurationNS: 20})
		r := submitRun(t, api, mgr, "/cluster/runs", string(body))
		if _, err := r.Outcome(); err != nil || r.ID() != fmt.Sprintf("run-%d", run) {
			t.Fatalf("run %d (%s): %v", run, r.ID(), err)
		}
	}
	// One connection carries a worker's RPCs; a heartbeat probe landing
	// mid-RPC may open a second.
	for i := range dials {
		if n := dials[i].Load(); n > 3 {
			t.Errorf("worker %d was dialled %d times over %d solves", i, n, solves)
		}
	}

	// A coordinator built without a client closes a pool of its own.
	co, err := New(kmodel(16, 3), "t-own-pool", fastConfig(workers, 2, 5, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := co.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := spy.closes.Load(); n != 0 {
		t.Errorf("%d CloseIdleConnections calls reached http.DefaultTransport", n)
	}
}

// TestWorkerRejectsOversizedModel: a create body whose model frame does
// not fit its n — or whose n no frame could justify — is a 400 before
// the dense model is allocated, and the worker lives to answer the next
// request. {"n":3000000} over an empty frame used to die inside
// ising.NewModel with "fatal error: runtime: out of memory", a throw
// net/http's recover cannot catch.
func TestWorkerRejectsOversizedModel(t *testing.T) {
	mux := http.NewServeMux()
	NewWorker(nil, 0).Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	put := func(model *ModelWire) int {
		t.Helper()
		body, err := json.Marshal(&CreateSliceRequest{Slice: 0, Model: model,
			Config: SliceConfig{Chips: 2, Seed: 1, DurationNS: 10}})
		if err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPut, srv.URL+"/worker/slices/x", bytes.NewReader(body))
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// csr builds a CSR-arm frame from row counts and (column, value) entries.
	type entry struct {
		j uint32
		v float64
	}
	csr := func(counts []uint32, entries ...entry) []byte {
		var b []byte
		for _, c := range counts {
			b = binary.LittleEndian.AppendUint32(b, c)
		}
		for _, e := range entries {
			b = binary.LittleEndian.AppendUint32(b, e.j)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.v))
		}
		return b
	}
	good := ModelToWire(kmodel(16, 1))
	for name, model := range map[string]*ModelWire{
		"huge n, empty csr frame":                {N: 3000000, Arm: armCSR, Frame: []byte{}},
		"huge n, empty planes frame":             {N: 3000000, Arm: armPlanes, Frame: []byte{}},
		"n within the bound, empty csr frame":    {N: 60000, Arm: armCSR, Frame: []byte{}},
		"n within the bound, empty planes frame": {N: 60000, Arm: armPlanes, Frame: []byte{}},
		"n past the spin bound":                  {N: DefaultMaxSpins + 1, Arm: armCSR, Frame: make([]byte, 4*(DefaultMaxSpins+1))},
		"planes frame for another n":             {N: 17, Arm: armPlanes, Frame: good.Frame},
		"csr counts exceed the frame":            {N: 3, Arm: armCSR, Frame: csr([]uint32{2, 0, 0}, entry{1, 0.5})},
		"csr frame exceeds its counts": {N: 3, Arm: armCSR,
			Frame: csr([]uint32{1, 0, 0}, entry{1, 0.5}, entry{2, 0.5})},
		"csr row count past its row": {N: 3, Arm: armCSR,
			Frame: csr([]uint32{1, 2, 0}, entry{1, 0.5}, entry{2, 0.5}, entry{2, 0.25})},
		"csr trailing bytes":     {N: 3, Arm: armCSR, Frame: append(csr([]uint32{1, 0, 0}, entry{1, 0.5}), 0)},
		"planes trailing bytes":  {N: 16, Arm: armPlanes, Frame: append(append([]byte(nil), good.Frame...), 0)},
		"NaN coupling":           {N: 3, Arm: armCSR, Frame: csr([]uint32{1, 0, 0}, entry{1, math.NaN()})},
		"Inf coupling":           {N: 3, Arm: armCSR, Frame: csr([]uint32{1, 0, 0}, entry{1, math.Inf(-1)})},
		"zero coupling":          {N: 3, Arm: armCSR, Frame: csr([]uint32{1, 0, 0}, entry{1, 0})},
		"descending column":      {N: 4, Arm: armCSR, Frame: csr([]uint32{2, 0, 0, 0}, entry{3, 0.5}, entry{2, 0.5})},
		"repeated column":        {N: 4, Arm: armCSR, Frame: csr([]uint32{2, 0, 0, 0}, entry{2, 0.5}, entry{2, 0.5})},
		"column on the diagonal": {N: 3, Arm: armCSR, Frame: csr([]uint32{0, 1, 0}, entry{1, 0.5})},
		"column past n":          {N: 3, Arm: armCSR, Frame: csr([]uint32{1, 0, 0}, entry{3, 0.5})},
		"unknown arm":            {N: 16, Arm: "triples", Frame: good.Frame},
		"no frame at all":        {N: 16},
	} {
		if status := put(model); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
		if status := put(good); status != http.StatusNoContent {
			t.Fatalf("after %q the worker answers a good create with %d", name, status)
		}
	}
}
