package runs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mbrim/internal/core"
	"mbrim/internal/diag"
	"mbrim/internal/graph"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
)

// testProblem mirrors what buildRequest constructs for {"k":20,
// "graphSeed":1}: the server-side and direct solves must agree on the
// problem for the bit-identity assertions.
func testProblem(k int) *graph.Graph {
	return graph.Complete(k, rng.New(1))
}

func saRequest(k int) core.Request {
	g := testProblem(k)
	return core.Request{Kind: core.SA, Model: g.ToIsing(), Graph: g, Seed: 1, Sweeps: 10}
}

func mbrimSeqRequest(k int, durationNS float64) core.Request {
	g := testProblem(k)
	return core.Request{Kind: core.MBRIMSequential, Model: g.ToIsing(), Graph: g,
		Seed: 3, DurationNS: durationNS, Chips: 4}
}

func waitDone(t *testing.T, r *Run) {
	t.Helper()
	select {
	case <-r.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("run %s did not finish", r.ID())
	}
}

func TestManagerLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Config{Registry: reg})
	r, err := m.Submit(context.Background(), saRequest(16))
	if err != nil {
		t.Fatal(err)
	}
	if r.ID() != "run-1" {
		t.Fatalf("ID = %q", r.ID())
	}
	waitDone(t, r)

	st := r.Status()
	if st.State != StateCompleted {
		t.Fatalf("state = %s, want completed", st.State)
	}
	if st.Engine != "sa" || st.Spins != 16 || st.Seed != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.Outcome == nil || st.Outcome.Spins != 16 {
		t.Fatalf("outcome = %+v", st.Outcome)
	}
	if st.Progress.Phase != "done" || st.Progress.Engine != "sa" {
		t.Fatalf("progress = %+v", st.Progress)
	}
	if !st.Progress.HasEnergy || st.Progress.BestEnergy != st.Outcome.Energy {
		t.Fatalf("progress energy %v vs outcome %v", st.Progress.BestEnergy, st.Outcome.Energy)
	}
	if st.EndedWallNS == 0 || st.HasCheckpoint {
		t.Fatalf("terminal status = %+v", st)
	}
	out, err := r.Outcome()
	if err != nil || out == nil || len(out.Spins) != 16 {
		t.Fatalf("Outcome() = %v, %v", out, err)
	}
	// The ring retained the bracket events for replay. The root solve
	// span closes after RunEnd (spans are matched by ID, not position),
	// so the tail may hold span_end events past the bracket.
	recent := r.Recent()
	if len(recent) == 0 || recent[0].Kind != obs.RunStart {
		t.Fatalf("ring = %v events", len(recent))
	}
	lastFlat := obs.Event{}
	for _, e := range recent {
		if e.Kind != obs.SpanStart && e.Kind != obs.SpanEnd {
			lastFlat = e
		}
	}
	if lastFlat.Kind != obs.RunEnd {
		t.Fatalf("last flat event = %+v, want run_end", lastFlat)
	}

	if got, ok := m.Get("run-1"); !ok || got != r {
		t.Fatal("Get(run-1) failed")
	}
	if _, ok := m.Get("run-99"); ok {
		t.Fatal("Get(run-99) succeeded")
	}
	if l := m.List(); len(l) != 1 || l[0].ID != "run-1" {
		t.Fatalf("List = %+v", l)
	}

	sn := reg.Snapshot()
	if sn.Counters["runs.submitted"] != 1 {
		t.Fatalf("runs.submitted = %d", sn.Counters["runs.submitted"])
	}
	if sn.Gauges["runs.active"] != 0 {
		t.Fatalf("runs.active = %v", sn.Gauges["runs.active"])
	}
	if sn.Counters[`runs.finished{engine="sa",state="completed"}`] != 1 {
		t.Fatalf("finished counter missing: %v", sn.Counters)
	}
	if sn.Counters[`core.solves{engine="sa"}`] != 1 {
		t.Fatalf("labeled core.solves missing: %v", sn.Counters)
	}
}

func TestManagerMaxActiveAndDrain(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Config{Registry: reg, MaxActive: 1})
	long, err := m.Submit(context.Background(), mbrimSeqRequest(20, 50000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(context.Background(), saRequest(8)); !errors.Is(err, ErrBusy) {
		t.Fatalf("second submit = %v, want ErrBusy", err)
	}

	ids := m.CancelAll()
	if len(ids) != 1 || ids[0] != long.ID() {
		t.Fatalf("CancelAll = %v", ids)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if !m.Wait(ctx) {
		t.Fatal("drain did not complete")
	}
	st := long.Status()
	if st.State != StateInterrupted {
		t.Fatalf("state = %s, want interrupted", st.State)
	}
	if !st.HasCheckpoint || len(long.Checkpoint()) == 0 {
		t.Fatal("interrupted multichip run lost its checkpoint")
	}
	// A terminal run is not re-cancelled by a second drain.
	if ids := m.CancelAll(); len(ids) != 0 {
		t.Fatalf("second CancelAll = %v", ids)
	}
}

func TestSubmitRejectsNilModel(t *testing.T) {
	m := NewManager(Config{})
	if _, err := m.Submit(context.Background(), core.Request{Kind: core.SA}); err == nil {
		t.Fatal("nil model accepted")
	}
}

// newTestServer mounts the full operations surface the way cmd/mbrimd
// does, with a flippable readiness probe.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Manager, *atomic.Bool) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	m := NewManager(cfg)
	var draining atomic.Bool
	mux := http.NewServeMux()
	Mount(mux, m, cfg.Registry, func() bool { return !draining.Load() })
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, m, &draining
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
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
	return resp, data
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHTTPLifecycle(t *testing.T) {
	srv, m, draining := newTestServer(t, Config{})

	if resp, body := getBody(t, srv.URL+"/healthz"); resp.StatusCode != 200 || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
	if resp, _ := getBody(t, srv.URL+"/readyz"); resp.StatusCode != 200 {
		t.Fatalf("readyz = %d", resp.StatusCode)
	}
	draining.Store(true)
	if resp, body := getBody(t, srv.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "draining") {
		t.Fatalf("draining readyz = %d %q", resp.StatusCode, body)
	}
	draining.Store(false)

	resp, body := postJSON(t, srv.URL+"/runs", `{"engine":"sa","k":16,"sweeps":10}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Engine != "sa" || st.Spins != 16 {
		t.Fatalf("submit status = %+v", st)
	}

	run, ok := m.Get(st.ID)
	if !ok {
		t.Fatal("submitted run not registered")
	}
	waitDone(t, run)

	resp, body = getBody(t, srv.URL+"/runs/"+st.ID)
	if resp.StatusCode != 200 {
		t.Fatalf("get = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateCompleted || st.Outcome == nil {
		t.Fatalf("terminal status = %+v", st)
	}

	var list struct {
		Runs []Status `json:"runs"`
	}
	resp, body = getBody(t, srv.URL+"/runs")
	if resp.StatusCode != 200 {
		t.Fatalf("list = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != 1 || list.Runs[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}

	if resp, _ := getBody(t, srv.URL+"/runs/run-404"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing run = %d", resp.StatusCode)
	}
	// A completed software run holds no checkpoint.
	if resp, _ := getBody(t, srv.URL+"/runs/"+st.ID+"/checkpoint"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("checkpoint of completed sa run = %d", resp.StatusCode)
	}

	// The Prometheus exposition carries the manager's and the solve's
	// labeled series, histogram buckets included.
	resp, body = getBody(t, srv.URL+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", got)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE runs_wall_ns histogram",
		`runs_wall_ns_bucket{engine="sa",le="`,
		`runs_finished{engine="sa",state="completed"} 1`,
		`core_solves{engine="sa"} 1`,
		"runs_submitted 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}

	resp, body = getBody(t, srv.URL+"/metrics.json")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics.json = %d", resp.StatusCode)
	}
	var sn obs.Snapshot
	if err := json.Unmarshal(body, &sn); err != nil {
		t.Fatalf("metrics.json not a snapshot: %v", err)
	}
	if sn.Counters["runs.submitted"] != 1 {
		t.Fatalf("metrics.json counters = %v", sn.Counters)
	}
}

// httpValidationCases are submit bodies POST /runs must refuse with a
// 400 (under MaxSpins 64); FuzzSubmitSpec starts from them too.
var httpValidationCases = []struct {
	name, body string
	want       string // a fragment the error must carry
}{
	{"bad engine", `{"engine":"warp","k":8}`, ""},
	{"retired backend field", `{"engine":"sa","k":8,"backend":"csr"}`, `unknown field "backend"`},
	{"no problem", `{"engine":"sa"}`, ""},
	{"both problems", `{"engine":"sa","k":8,"n":2,"edges":[[1,2,1]]}`, ""},
	{"too many spins", `{"engine":"sa","k":65}`, ""},
	{"edges without n", `{"engine":"sa","edges":[[1,2,1]]}`, ""},
	{"edge out of range", `{"engine":"sa","n":4,"edges":[[1,5,1]]}`, "edge 0 (1,5) out of range"},
	{"self edge", `{"engine":"sa","n":4,"edges":[[2,2,1]]}`, ""},
	// Fractional endpoints used to be truncated: the first was accepted
	// as edge (1,2), the second refused as an "out of range" (2,2).
	{"fractional endpoints", `{"engine":"sa","n":4,"edges":[[1,2,1],[1.9,2.2,1]]}`, "edge 1 [1.9, 2.2]: endpoints must be integers"},
	{"fractional self edge", `{"engine":"sa","n":4,"edges":[[2.7,2.1,1]]}`, "edge 0 [2.7, 2.1]: endpoints must be integers"},
	// These two used to answer 202: the first run then failed at
	// dispatch, the second never ended and held its admission slot.
	{"more chips than spins", `{"engine":"mbrim","k":8,"chips":9}`, "Chips=9 for N=8"},
	{"epochs without end", `{"engine":"mbrim","k":8,"chips":2,"durationNS":5,"epochNS":1e-300}`, "durationNS/epochNS is 5e+300 epochs"},
	{"negative channels", `{"engine":"mbrim-seq","k":8,"channels":-1}`, "Channels=-1"},
	{"unknown field", `{"engine":"sa","k":8,"warp":9}`, ""},
	{"syntax error", `{"engine":`, ""},
	// encoding/json pads and truncates a fixed-size array: these three
	// were accepted as weight 0, as a dropped 9 and as weight 0.
	{"two-number row", `{"engine":"sa","n":4,"edges":[[1,2],[2,3,1]]}`, "edges: row 0: want three numbers"},
	{"four-number row", `{"engine":"sa","n":4,"edges":[[1,2,1,9],[2,3,1]]}`, "edges: row 0: want three numbers"},
	{"null weight", `{"engine":"sa","n":4,"edges":[[1,2,null]]}`, "edges: row 0: want three numbers"},
	// Decoder.Decode stops at the first value: both were accepted, and the
	// journal records the body as received.
	{"trailing garbage", `{"engine":"sa","k":8} garbage`, "data after the JSON value at offset 22"},
	{"second value", `{"engine":"sa","k":8}{"engine":"tabu"}`, "data after the JSON value at offset 21"},
}

func TestHTTPValidation(t *testing.T) {
	srv, m, _ := newTestServer(t, Config{MaxSpins: 64})
	for _, c := range httpValidationCases {
		resp, body := postJSON(t, srv.URL+"/runs", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", c.name, resp.StatusCode, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" || !strings.Contains(e.Error, c.want) {
			t.Errorf("%s: error envelope %s, want it to carry %q", c.name, body, c.want)
		}
	}
	if runs := m.List(); len(runs) != 0 {
		t.Errorf("rejected submissions created runs: %+v", runs)
	}
}

func TestHTTPExplicitEdgeList(t *testing.T) {
	srv, m, _ := newTestServer(t, Config{})
	// A 4-cycle with unit weights, Gset-style 1-based endpoints.
	resp, body := postJSON(t, srv.URL+"/runs",
		`{"engine":"sa","n":4,"edges":[[1,2,1],[2,3,1],[3,4,1],[4,1,1]],"sweeps":10}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	run, _ := m.Get(st.ID)
	waitDone(t, run)
	out, err := run.Outcome()
	if err != nil {
		t.Fatal(err)
	}
	// The 4-cycle's max cut is 4 (alternating bipartition).
	if out.Cut != 4 {
		t.Fatalf("cut = %v, want 4", out.Cut)
	}
}

// sseEvent is one parsed Server-Sent Events message. id is 0 when the
// message carried no id: line.
type sseEvent struct {
	kind string
	data []byte
	id   int64
}

// readSSE consumes messages from an event stream until pred returns
// true (the returned slice ends with that message) or the stream ends.
func readSSE(t *testing.T, sc *bufio.Scanner, pred func(sseEvent) bool) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			cur.id = id
		case line == "":
			if cur.kind == "" && cur.data == nil {
				continue
			}
			out = append(out, cur)
			if pred(cur) {
				return out
			}
			cur = sseEvent{}
		}
	}
	return out
}

func TestSSEReplayOfFinishedRun(t *testing.T) {
	srv, m, _ := newTestServer(t, Config{})
	_, body := postJSON(t, srv.URL+"/runs", `{"engine":"sa","k":12,"sweeps":10}`)
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	run, _ := m.Get(st.ID)
	waitDone(t, run)

	resp, err := http.Get(srv.URL + "/runs/" + st.ID + "/events?replay=1000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("Content-Type = %q", got)
	}
	msgs := readSSE(t, bufio.NewScanner(resp.Body), func(e sseEvent) bool { return e.kind == "done" })
	if len(msgs) < 2 {
		t.Fatalf("replay yielded %d messages", len(msgs))
	}
	var first obs.Event
	if err := json.Unmarshal(msgs[0].data, &first); err != nil {
		t.Fatal(err)
	}
	if msgs[0].kind != "trace" || first.Kind != obs.RunStart {
		t.Fatalf("first message = %s %+v", msgs[0].kind, first)
	}
	var final Status
	if err := json.Unmarshal(msgs[len(msgs)-1].data, &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateCompleted {
		t.Fatalf("done status = %+v", final)
	}
}

// TestSSELastEventIDReconnect pins the SSE resume contract: a client
// that disconnects mid-stream and reconnects with Last-Event-ID
// receives exactly the events after that ordinal — including the span
// events emitted before the reconnect — with sequential exact ids.
func TestSSELastEventIDReconnect(t *testing.T) {
	srv, m, _ := newTestServer(t, Config{})
	_, body := postJSON(t, srv.URL+"/runs",
		`{"engine":"mbrim","k":16,"chips":2,"durationNS":200,"epochNS":10}`)
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	run, _ := m.Get(st.ID)
	waitDone(t, run)

	// First connection: full replay. Every trace message must carry a
	// sequential id.
	resp, err := http.Get(srv.URL + "/runs/" + st.ID + "/events?replay=100000")
	if err != nil {
		t.Fatal(err)
	}
	all := readSSE(t, bufio.NewScanner(resp.Body), func(e sseEvent) bool { return e.kind == "done" })
	resp.Body.Close()
	traces := all[:len(all)-1]
	if len(traces) < 10 {
		t.Fatalf("only %d trace messages", len(traces))
	}
	for i, msg := range traces {
		if msg.id != traces[0].id+int64(i) {
			t.Fatalf("ids not sequential: msg %d has id %d, first %d", i, msg.id, traces[0].id)
		}
	}

	// "Disconnect" midway and reconnect presenting the last id we saw.
	cut := len(traces) / 2
	lastSeen := traces[cut].id
	req, err := http.NewRequest("GET", srv.URL+"/runs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", strconv.FormatInt(lastSeen, 10))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	resumed := readSSE(t, bufio.NewScanner(resp2.Body), func(e sseEvent) bool { return e.kind == "done" })
	resumed = resumed[:len(resumed)-1]
	want := traces[cut+1:]
	if len(resumed) != len(want) {
		t.Fatalf("resume replayed %d events, want %d", len(resumed), len(want))
	}
	spanReplayed := false
	for i, msg := range resumed {
		if msg.id != want[i].id {
			t.Fatalf("resumed id[%d] = %d, want %d", i, msg.id, want[i].id)
		}
		var got, exp obs.Event
		if err := json.Unmarshal(msg.data, &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want[i].data, &exp); err != nil {
			t.Fatal(err)
		}
		if got != exp {
			t.Fatalf("resumed event %d = %+v, want %+v", i, got, exp)
		}
		if got.Kind == obs.SpanStart || got.Kind == obs.SpanEnd {
			spanReplayed = true
		}
	}
	if !spanReplayed {
		t.Fatalf("reconnect replay carried no span events (cut at id %d of %d)", lastSeen, len(traces))
	}
	// A reconnect fully caught up replays nothing and ends with done.
	req3, _ := http.NewRequest("GET", srv.URL+"/runs/"+st.ID+"/events", nil)
	req3.Header.Set("Last-Event-ID", strconv.FormatInt(traces[len(traces)-1].id, 10))
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	tail := readSSE(t, bufio.NewScanner(resp3.Body), func(e sseEvent) bool { return e.kind == "done" })
	if len(tail) != 1 || tail[0].kind != "done" {
		t.Fatalf("caught-up reconnect = %+v", tail)
	}
}

// gateTracer holds the solve at its at-th event until release closes.
type gateTracer struct {
	n                int64
	at               int64
	reached, release chan struct{}
}

func (g *gateTracer) Emit(obs.Event) {
	if atomic.AddInt64(&g.n, 1) == g.at {
		close(g.reached)
		<-g.release
	}
}

// submitGated submits req and returns once the run is held at its at-th
// event, with the release that lets it go on (the test's end releases
// it too).
func submitGated(t *testing.T, m *Manager, req core.Request, at int64) (*Run, func()) {
	t.Helper()
	g := &gateTracer{at: at, reached: make(chan struct{}), release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(g.release) })
	t.Cleanup(release)
	req.Tracer = g
	r, err := m.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-g.reached:
	case <-time.After(30 * time.Second):
		t.Fatalf("run %s never emitted its event %d", r.ID(), at)
	}
	return r, release
}

// TestSSELiveIDsAreRingOrdinals: a stream that replays into a run still
// emitting carries each event once, under its ring ordinal, across the
// seam between what was retained when it connected and what came after.
// The tail used to number live events itself, from a second store it
// subscribed to before the replay: an event both replayed and delivered
// live was sent twice, and every id after it was off by one.
func TestSSELiveIDsAreRingOrdinals(t *testing.T) {
	srv, m, _ := newTestServer(t, Config{})
	r, release := submitGated(t, m, mbrimSeqRequest(16, 300), 20)
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(srv.URL + "/runs/" + r.ID() + "/events?replay=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	msgs := readSSE(t, sc, func(e sseEvent) bool { return e.id == 20 })
	release() // the run goes on emitting while the stream is open
	msgs = append(msgs, readSSE(t, sc, func(e sseEvent) bool { return e.kind == "done" })...)
	if msgs[len(msgs)-1].kind != "done" {
		t.Fatalf("the stream ended without done after %d messages", len(msgs))
	}
	traces := msgs[:len(msgs)-1]

	ring, first := r.EventsSince(0)
	if first != 1 || len(traces) != len(ring)-10 || len(ring) < 40 {
		t.Fatalf("%d messages after replay=10 of a %d-event run (ring from ordinal %d)", len(traces), len(ring), first)
	}
	for k, msg := range traces {
		id := int64(11 + k)
		if msg.id != id {
			t.Fatalf("message %d has id %d, want %d", k, msg.id, id)
		}
		var e obs.Event
		if err := json.Unmarshal(msg.data, &e); err != nil {
			t.Fatal(err)
		}
		if e != ring[id-1] {
			t.Fatalf("message id %d is %+v, ring ordinal %d is %+v", id, e, id, ring[id-1])
		}
	}
}

// TestDiagAndTraceEndpoints is the introspection acceptance surface: a
// seeded 3-chip run must expose chip-pair disagreement, a plateau
// verdict and a CI-bounded TTS estimate on /diag, and a
// Perfetto-loadable Chrome trace with the nested span hierarchy on
// /trace.
func TestDiagAndTraceEndpoints(t *testing.T) {
	srv, m, _ := newTestServer(t, Config{})
	_, body := postJSON(t, srv.URL+"/runs",
		`{"engine":"mbrim","k":20,"chips":3,"durationNS":400,"epochNS":10,"seed":7}`)
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	run, _ := m.Get(st.ID)
	waitDone(t, run)

	resp, dbody := getBody(t, srv.URL+"/runs/"+st.ID+"/diag")
	if resp.StatusCode != 200 {
		t.Fatalf("diag = %d %s", resp.StatusCode, dbody)
	}
	var snap diag.Snapshot
	if err := json.Unmarshal(dbody, &snap); err != nil {
		t.Fatalf("diag JSON: %v\n%s", err, dbody)
	}
	if len(snap.Pairs) != 6 {
		t.Fatalf("pairs = %d, want 6 (3 chips directed): %s", len(snap.Pairs), dbody)
	}
	if snap.TTS == nil {
		t.Fatalf("no TTS estimate: %s", dbody)
	}
	if snap.TTS.PLow > snap.TTS.SuccessP || snap.TTS.PHigh < snap.TTS.SuccessP {
		t.Fatalf("TTS CI does not bracket p: %+v", snap.TTS)
	}
	if snap.Traffic.TotalBytes <= 0 {
		t.Fatalf("no traffic attribution: %s", dbody)
	}

	resp, tbody := getBody(t, srv.URL+"/runs/"+st.ID+"/trace")
	if resp.StatusCode != 200 {
		t.Fatalf("trace = %d", resp.StatusCode)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args,omitempty"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tbody, &trace); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	names := map[string]bool{}
	chipTrack := false
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name] = true
			if ev.Name == "chip_step" && ev.TID == 3 {
				chipTrack = true
			}
		}
	}
	for _, want := range []string{"solve", "epoch", "chip_step", "sync"} {
		if !names[want] {
			t.Fatalf("trace missing %q slices; have %v", want, names)
		}
	}
	if !chipTrack {
		t.Fatalf("chip 2's chip_step slices not on tid 3")
	}
}

// TestCancelCheckpointResumeOverHTTP is the acceptance pin: an SSE
// client watches a live multichip solve, cancels it mid-run, downloads
// the checkpoint, and a resumed solve reproduces the uninterrupted
// run's spins bit for bit.
func TestCancelCheckpointResumeOverHTTP(t *testing.T) {
	const k, durationNS = 20, 10000.0

	// The ground truth: the same problem solved without interruption.
	baseline, err := core.Solve(mbrimSeqRequest(k, durationNS))
	if err != nil {
		t.Fatal(err)
	}

	srv, _, _ := newTestServer(t, Config{})
	resp, body := postJSON(t, srv.URL+"/runs",
		fmt.Sprintf(`{"engine":"mbrim-seq","k":%d,"seed":3,"durationNS":%g,"chips":4}`, k, durationNS))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	id := st.ID

	// Tail the live event stream; the first trace event proves the
	// solve is in flight.
	stream, err := http.Get(srv.URL + "/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	live := readSSE(t, sc, func(e sseEvent) bool { return e.kind == "trace" })
	if len(live) == 0 {
		t.Fatal("no live trace event before run end")
	}

	// The checkpoint is not downloadable while the run is in flight.
	if resp, _ := getBody(t, srv.URL+"/runs/"+id+"/checkpoint"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("in-flight checkpoint = %d, want 409", resp.StatusCode)
	}

	resp, body = postJSON(t, srv.URL+"/runs/"+id+"/cancel", "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel = %d %s", resp.StatusCode, body)
	}

	// The stream must end with the terminal status.
	msgs := readSSE(t, sc, func(e sseEvent) bool { return e.kind == "done" })
	if len(msgs) == 0 || msgs[len(msgs)-1].kind != "done" {
		t.Fatalf("stream ended without done event (%d messages)", len(msgs))
	}
	var final Status
	if err := json.Unmarshal(msgs[len(msgs)-1].data, &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateInterrupted {
		t.Fatalf("state = %s, want interrupted (cancel raced run end?)", final.State)
	}
	if !final.HasCheckpoint || final.Outcome == nil || final.Error == "" {
		t.Fatalf("interrupted status = %+v", final)
	}

	resp, ck := getBody(t, srv.URL+"/runs/"+id+"/checkpoint")
	if resp.StatusCode != 200 {
		t.Fatalf("checkpoint = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/octet-stream" {
		t.Fatalf("checkpoint Content-Type = %q", got)
	}
	if !strings.Contains(resp.Header.Get("Content-Disposition"), id+".ckpt") {
		t.Fatalf("Content-Disposition = %q", resp.Header.Get("Content-Disposition"))
	}
	if len(ck) == 0 {
		t.Fatal("empty checkpoint download")
	}

	// Resume from the downloaded envelope: the continuation must be
	// bit-identical to the run that was never interrupted.
	req := mbrimSeqRequest(k, durationNS)
	req.Resume = ck
	resumed, err := core.Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Energy != baseline.Energy {
		t.Fatalf("resumed energy %v != baseline %v", resumed.Energy, baseline.Energy)
	}
	if !bytes.Equal(int8Bytes(resumed.Spins), int8Bytes(baseline.Spins)) {
		t.Fatal("resumed spins differ from the uninterrupted run")
	}
}

func int8Bytes(s []int8) []byte {
	out := make([]byte, len(s))
	for i, v := range s {
		out[i] = byte(v)
	}
	return out
}
