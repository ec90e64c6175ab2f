package runs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"mbrim/internal/core"
	"mbrim/internal/graph"
	"mbrim/internal/lattice"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
)

// occupySlot submits a run long enough to hold its MaxActive slot for
// the duration of the test (cancelled in cleanup as a safety net).
func occupySlot(t *testing.T, m *Manager) *Run {
	t.Helper()
	long, err := m.Submit(context.Background(), mbrimSeqRequest(20, 50000))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		long.Cancel()
		waitDone(t, long)
	})
	return long
}

func TestQueueAdmitsAndDispatches(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Config{Registry: reg, MaxActive: 1, MaxQueued: 2})
	long := occupySlot(t, m)

	q, err := m.SubmitWith(context.Background(), saRequest(8), SubmitOptions{})
	if err != nil {
		t.Fatalf("queued submit = %v", err)
	}
	if st := q.Status(); st.State != StateQueued {
		t.Fatalf("state = %s, want queued", st.State)
	}
	if d := reg.Snapshot().Gauges["runs.queue_depth"]; d != 1 {
		t.Fatalf("queue_depth = %v, want 1", d)
	}

	long.Cancel()
	waitDone(t, long)
	waitDone(t, q)
	st := q.Status()
	if st.State != StateCompleted {
		t.Fatalf("dispatched run state = %s, want completed", st.State)
	}
	if st.QueueWaitNS <= 0 || st.StartedWallNS == 0 {
		t.Fatalf("queue wait not attributed: %+v", st)
	}
	// The wait surfaces in the diag snapshot too (via the synthetic
	// queue_wait span in the run's own event stream).
	if dn := q.Diag().QueueWaitNS; dn <= 0 {
		t.Fatalf("diag queueWaitNS = %d, want > 0", dn)
	}
	if d := reg.Snapshot().Gauges["runs.queue_depth"]; d != 0 {
		t.Fatalf("queue_depth after drain = %v, want 0", d)
	}
}

func TestQueueFullShedsWith429(t *testing.T) {
	reg := obs.NewRegistry()
	srv, m, _ := newTestServer(t, Config{Registry: reg, MaxActive: 1, MaxQueued: 1})
	t.Cleanup(func() {
		m.CancelAll()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		m.Wait(ctx)
	})

	body := `{"engine":"mbrim-seq","k":20,"durationNS":50000,"seed":3,"chips":4}`
	if resp, data := postJSON(t, srv.URL+"/runs", body); resp.StatusCode != 202 {
		t.Fatalf("first submit = %d %s", resp.StatusCode, data)
	}
	resp, data := postJSON(t, srv.URL+"/runs", body)
	if resp.StatusCode != 202 {
		t.Fatalf("second submit = %d %s", resp.StatusCode, data)
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil || st.State != StateQueued {
		t.Fatalf("second submit state = %+v (%v), want queued", st, err)
	}

	// Queue full: the third submission is shed with the documented
	// contract — 429, a positive Retry-After, and the rejection counter.
	resp, data = postJSON(t, srv.URL+"/runs", body)
	if resp.StatusCode != 429 {
		t.Fatalf("third submit = %d %s, want 429", resp.StatusCode, data)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	if !strings.Contains(string(data), "overloaded") {
		t.Fatalf("429 body = %s", data)
	}
	if n := reg.Snapshot().Counters["runs.queue_rejected_total"]; n != 1 {
		t.Fatalf("runs.queue_rejected_total = %d, want 1", n)
	}
	// The shed submission allocated no run.
	if l := m.List(); len(l) != 2 {
		t.Fatalf("List after shed = %d runs, want 2", len(l))
	}
}

func TestQueuePriorityThenFIFO(t *testing.T) {
	m := NewManager(Config{Registry: obs.NewRegistry(), MaxActive: 1, MaxQueued: 4})
	long := occupySlot(t, m)

	submit := func(prio int) *Run {
		r, err := m.SubmitWith(context.Background(), saRequest(8), SubmitOptions{Priority: prio})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b, c, d := submit(0), submit(5), submit(5), submit(1)
	long.Cancel()
	for _, r := range []*Run{a, b, c, d} {
		waitDone(t, r)
	}
	// Dispatch order with MaxActive=1 is strictly serialized, so start
	// stamps encode it: highest priority first, FIFO within a priority.
	started := func(r *Run) int64 { return r.Status().StartedWallNS }
	if !(started(b) < started(c) && started(c) < started(d) && started(d) < started(a)) {
		t.Fatalf("dispatch order wrong: a=%d b=%d c=%d d=%d (want b < c < d < a)",
			started(a), started(b), started(c), started(d))
	}
}

func TestQueuedRunDeadline(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Config{Registry: reg, MaxActive: 1, MaxQueued: 2})

	// An already-expired deadline never reaches the queue.
	if _, err := m.SubmitWith(context.Background(), saRequest(8),
		SubmitOptions{Deadline: time.Now().Add(-time.Second)}); err == nil {
		t.Fatal("expired deadline accepted")
	}

	long := occupySlot(t, m)
	q, err := m.SubmitWith(context.Background(), saRequest(8),
		SubmitOptions{Deadline: time.Now().Add(80 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // let the deadline lapse while queued
	long.Cancel()
	waitDone(t, q)
	st := q.Status()
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if _, err := q.Outcome(); err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("error = %v, want a deadline shed", err)
	}
	if n := reg.Snapshot().Counters["runs.shed_total"]; n < 2 {
		t.Fatalf("runs.shed_total = %d, want >= 2 (submit refusal + dispatch shed)", n)
	}
}

func TestCancelWhileQueued(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Config{Registry: reg, MaxActive: 1, MaxQueued: 2})
	occupySlot(t, m)

	q, err := m.SubmitWith(context.Background(), saRequest(8), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q.Cancel()
	// A cancelled queued run terminates promptly — it does not wait for
	// a dispatch slot.
	select {
	case <-q.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued run did not terminate")
	}
	if st := q.Status(); st.State != StateInterrupted {
		t.Fatalf("state = %s, want interrupted", st.State)
	}
	if _, err := q.Outcome(); err == nil || !strings.Contains(err.Error(), "queued") {
		t.Fatalf("error = %v, want cancelled-while-queued", err)
	}
}

func TestMemoryBudgetRejects(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Config{Registry: reg, MaxRunBytes: 1000})
	_, err := m.SubmitWith(context.Background(), saRequest(16), SubmitOptions{})
	var terr *TooLargeError
	if !errors.As(err, &terr) {
		t.Fatalf("err = %v, want *TooLargeError", err)
	}
	if terr.Estimated <= terr.Budget {
		t.Fatalf("estimate %d not above budget %d", terr.Estimated, terr.Budget)
	}
	if n := reg.Snapshot().Counters["runs.rejected_too_large_total"]; n != 1 {
		t.Fatalf("runs.rejected_too_large_total = %d, want 1", n)
	}

	srv, _, _ := newTestServer(t, Config{MaxRunBytes: 1000})
	resp, data := postJSON(t, srv.URL+"/runs", `{"engine":"sa","k":16,"sweeps":5}`)
	if resp.StatusCode != 413 {
		t.Fatalf("HTTP = %d %s, want 413", resp.StatusCode, data)
	}

	// The fence fires BEFORE graph construction: a submission whose
	// dense model alone would dwarf the budget (~650MB at k=9000) must
	// bounce without building it. If the pre-construction gate
	// regresses, this takes minutes instead of microseconds.
	start := time.Now()
	resp, data = postJSON(t, srv.URL+"/runs", `{"engine":"mbrim","k":9000,"chips":4,"durationNS":100}`)
	if resp.StatusCode != 413 {
		t.Fatalf("oversize HTTP = %d %s, want 413", resp.StatusCode, data)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("oversize rejection took %v — the budget gate ran after graph construction", el)
	}
}

// planesBytes is what a ±1 K-graph over n spins stores: two bit planes
// a row and the row counts.
func planesBytes(n int64) int64 { return 16*n*((n+63)/64) + 4*n }

// TestMemoryBudgetCountsTheChips holds the fence to what a multi-chip
// engine builds on top of the model: k brim machines over scaled float
// blocks and the cross columns, which the estimate used to leave out —
// and to the float copy one brim machine or bSBM runs on.
func TestMemoryBudgetCountsTheChips(t *testing.T) {
	const ring = 4096 * 192
	kgraph := func(n int64, kind core.Kind, chips, workers int) runShape {
		return runShape{n: int(n), nnz: int(n * (n - 1)), model: planesBytes(n), dense: true,
			solvers: slices.Repeat([]solver{{kind, chips}}, workers)}
	}
	// chips ≤ 1: the model, per-spin state and the ring — and for a
	// machine that multiplies floats, its 8·n² copy.
	for _, n := range []int64{1, 16, 1024, 9000} {
		for _, chips := range []int{-1, 0, 1} {
			if got, want := kgraph(n, core.SA, chips, 1).estimate(0), planesBytes(n)+16*n+ring; got != want {
				t.Errorf("estimate(n=%d, chips=%d) = %d, want %d", n, chips, got, want)
			}
			for _, kind := range []core.Kind{core.BRIM, core.BSBM, core.MBRIMConcurrent} {
				if got, want := kgraph(n, kind, chips, 1).estimate(0), planesBytes(n)+8*n*n+16*n+ring; got != want {
					t.Errorf("estimate(%s, n=%d, chips=%d) = %d, want %d", kind, n, chips, got, want)
				}
			}
		}
		if got, want := kgraph(n, core.SA, 1, 3).estimate(100), planesBytes(n)+16*n*3+100*192; got != want {
			t.Errorf("estimate(n=%d, chips=1, workers=3) = %d, want %d", n, got, want)
		}
	}
	// chips > 1 adds 8·n²/k of float blocks and 12·n²·(k−1)/k of cross
	// columns per solver: a dense K-graph at 4 chips is 2+9 = 11 n² over
	// its planes.
	for _, tc := range []struct {
		n              int64
		chips, workers int
		want           int64
	}{
		{256, 4, 1, planesBytes(256) + (2+9)*256*256 + 16*256*4 + ring},
		{1024, 4, 1, planesBytes(1024) + (2+9)*1024*1024 + 16*1024*4 + ring},
		{1024, 2, 1, planesBytes(1024) + (4+6)*1024*1024 + 16*1024*2 + ring},
		{256, 4, 3, planesBytes(256) + 3*(2+9)*256*256 + 16*256*4*3 + ring},
	} {
		if got := kgraph(tc.n, core.MBRIMConcurrent, tc.chips, tc.workers).estimate(0); got != tc.want {
			t.Errorf("estimate(n=%d, chips=%d, workers=%d) = %d, want %d", tc.n, tc.chips, tc.workers, got, tc.want)
		}
	}
	// A weighted dense model stores floats: 8·n², as before the planes.
	weighted := runShape{n: 256, nnz: 256 * 255, model: lattice.Footprint(lattice.Auto, 256, 256*255, false),
		dense: true, solvers: []solver{{core.MBRIMConcurrent, 4}}}
	if got, want := weighted.estimate(0), int64((8+2+9)*256*256+16*256*4+ring); got != want {
		t.Errorf("weighted estimate = %d, want %d", got, want)
	}

	// A problem that stores compressed rows is priced by what it stores:
	// for the model 12 bytes a lane slot — the directed entries and at
	// most 3·(n−1) slots of padding a 256-row window, 3·nnz in all — and
	// 14 a row; 1/k of that again for the chips' blocks, 12 bytes for each
	// of the (k−1)/k entries that cross, and 24 bytes an edge for the
	// parsed graph. sparse1k's shape, 1 024 spins and 10 589 edges, on 4
	// chips:
	const nnz = 2 * 10589
	const model = 12*(nnz+3*4*1023) + 14*1024
	sparse := runShape{n: 1024, nnz: nnz, model: lattice.Footprint(lattice.Auto, 1024, nnz, true), edges: nnz / 2,
		solvers: []solver{{core.MBRIMConcurrent, 4}}}
	if got, want := sparse.estimate(0), int64(model+24*nnz/2+model/4+12*nnz*3/4+16*1024*4+ring); got != want {
		t.Errorf("sparse estimate = %d, want %d", got, want)
	}
	oneEdge := runShape{n: 65536, nnz: 2, model: lattice.Footprint(lattice.Auto, 65536, 2, true), edges: 1, solvers: []solver{{core.SA, 1}}}
	if got, want := oneEdge.estimate(0), int64(12*(2+3*2)+14*65536+24+16*65536+ring); got != want {
		t.Errorf("one-edge estimate = %d, want %d", got, want)
	}
	for _, tc := range []struct {
		n, nnz int
		dense  bool
	}{
		{1024, nnz, false},
		{1024, 52429, true}, {1024, 52428, false}, // lattice.AutoCSRDensity, to the entry
		{256, 256 * 255, true},
	} {
		if got := storesDense(tc.n, tc.nnz); got != tc.dense {
			t.Errorf("storesDense(%d, %d) = %v", tc.n, tc.nnz, got)
		}
	}

	// A 4-chip K128 is planes (4 608 bytes), four 32×32 float blocks
	// (32 768), 4·32·96 cross entries (147 456), per-spin state (8 192)
	// and the ring (786 432): 979 456, over a 950 000-byte budget. On one
	// chip it is the planes, one 8·128² float copy, 2 048 of state and
	// the ring — 924 160, which fits.
	const budget = 950_000
	fourChips := planesBytes(128) + 8*128*128/4 + 12*128*128*3/4 + 16*128*4 + ring
	if fourChips != 979456 {
		t.Fatalf("the 4-chip K128 prices at %d", fourChips)
	}
	srv, m, _ := newTestServer(t, Config{MaxRunBytes: budget})
	resp, data := postJSON(t, srv.URL+"/runs", `{"engine":"mbrim","k":128,"chips":4,"durationNS":5}`)
	if resp.StatusCode != 413 {
		t.Fatalf("4-chip HTTP = %d %s, want 413", resp.StatusCode, data)
	}
	resp, data = postJSON(t, srv.URL+"/runs", `{"engine":"mbrim","k":128,"chips":1,"durationNS":5}`)
	if resp.StatusCode != 202 {
		t.Fatalf("1-chip HTTP = %d %s, want 202", resp.StatusCode, data)
	}
	// chips omitted: the engine runs on its default of four, and that is
	// what the fence counts. A cluster run of any width is the model and
	// the ring, planes + 16·128 + ring = 793 088: its chips are on the
	// workers (the engine is not linked into this package's tests; its
	// HTTP row is internal/cluster's TestClusterRunsAreAdmittedLikeAnyOther).
	resp, data = postJSON(t, srv.URL+"/runs", `{"engine":"mbrim","k":128,"durationNS":5}`)
	if resp.StatusCode != 413 {
		t.Fatalf("default-chips HTTP = %d %s, want 413", resp.StatusCode, data)
	}
	var terr struct{ Error string }
	json.Unmarshal(data, &terr)
	if want := fmt.Sprint(fourChips); !strings.Contains(terr.Error, want) {
		t.Errorf("default-chips estimate: %s, want %s bytes (four chips)", terr.Error, want)
	}
	for _, tc := range []struct {
		req  core.Request
		want int64
	}{
		{core.Request{Kind: core.MBRIMConcurrent, Chips: 4}, fourChips},
		{core.Request{Kind: core.Cluster, Chips: 4, Cluster: core.ClusterSpec{Workers: []string{"a", "b", "c", "d"}}}, planesBytes(128) + 16*128 + ring},
		{core.Request{Kind: core.Cluster, Cluster: core.ClusterSpec{Workers: []string{"a"}}}, planesBytes(128) + 16*128 + ring},
		{core.Request{Kind: core.SA, Graph: testProblem(128)}, planesBytes(128) + 24*128*127/2 + 16*128 + ring},
		// A portfolio is priced by its entrants. Dispatched on a K-graph it
		// is dSBM, SA and brim, and brim's float copy is 8·128²; capped at
		// two it is dSBM and SA, over the planes alone.
		{core.Request{Kind: core.Portfolio}, planesBytes(128) + 3*16*128 + 8*128*128 + ring},
		{core.Request{Kind: core.Portfolio, Portfolio: core.PortfolioSpec{MaxEntrants: 2}}, planesBytes(128) + 2*16*128 + ring},
		// Named entrants each pay their own copy, the hand-off included; a
		// multiprocessor entrant that names no chips runs the engine's four.
		{core.Request{Kind: core.Portfolio, Portfolio: core.PortfolioSpec{
			Entrants: []core.PortfolioEntrant{{Kind: "brim"}, {Kind: "brim"}}, HandOff: &core.PortfolioEntrant{Kind: "brim"}}},
			planesBytes(128) + 3*(16*128+8*128*128) + ring},
		{core.Request{Kind: core.Portfolio, Portfolio: core.PortfolioSpec{
			Entrants: []core.PortfolioEntrant{{Kind: "mbrim"}, {Kind: "bsbm", Chips: 2}}}},
			fourChips + 16*128*2 + 8*128*128/2 + 12*128*128/2},
	} {
		tc.req.Model = testProblem(128).ToIsing()
		if got := requestShape(&tc.req).estimate(0); got != tc.want {
			t.Errorf("estimate(%s, chips=%d, %d workers, %+v) = %d, want %d",
				tc.req.Kind, tc.req.Chips, len(tc.req.Cluster.Workers), tc.req.Portfolio, got, tc.want)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	m.Wait(ctx)
}

// TestMemoryBudgetPricesWhatIsStored: a model is fenced as what it
// stores, and an engine by the copies it makes of it. An edge list is
// fenced as the compressed rows it becomes: sparse1k's shape (1 024
// spins, 10 589 edges) on four chips fits an 8 MB budget — its dense matrix alone is
// 8 MB, and the parent refused it — and no body can force the matrix
// back: "backend" is not a field; and a 65 536-spin problem with one
// edge is a few hundred kilobytes of vectors, admitted and solved, where
// its matrix is 34 GB.
func TestMemoryBudgetPricesWhatIsStored(t *testing.T) {
	edges := graph.Random(1024, 0.021, rng.New(4)).Edges()[:10589]
	var list strings.Builder
	for i, e := range edges {
		if i > 0 {
			list.WriteByte(',')
		}
		fmt.Fprintf(&list, "[%d,%d,%g]", e.U+1, e.V+1, e.Weight)
	}
	body := func(extra string) string {
		return `{"engine":"mbrim","chips":4,"durationNS":4,"n":1024,"edges":[` + list.String() + `]` + extra + `}`
	}
	srv, m, _ := newTestServer(t, Config{MaxRunBytes: 8 << 20})
	if resp, data := postJSON(t, srv.URL+"/runs", body("")); resp.StatusCode != 202 {
		t.Fatalf("sparse body HTTP = %d %s, want 202", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, srv.URL+"/runs", body(`,"backend":"dense"`)); resp.StatusCode != 400 {
		t.Fatalf("sparse body with a backend HTTP = %d %s, want 400", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, srv.URL+"/runs", `{"engine":"mbrim","chips":4,"k":1024}`); resp.StatusCode != 413 {
		t.Fatalf("K1024 HTTP = %d %s, want 413", resp.StatusCode, data)
	}

	// A K-graph is its planes: K4096 is 4 MB to a dSBM, admitted under
	// 64 MB, where its float matrix alone was 134 MB. Four brim chips
	// still hold ≈ 150 MB of cross columns over it: refused.
	mid, mmid, _ := newTestServer(t, Config{MaxRunBytes: 64 << 20})
	if resp, data := postJSON(t, mid.URL+"/runs", `{"engine":"dsbm","k":4096,"steps":20}`); resp.StatusCode != 202 {
		t.Fatalf("dsbm K4096 HTTP = %d %s, want 202", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, mid.URL+"/runs", `{"engine":"mbrim","chips":4,"k":4096}`); resp.StatusCode != 413 {
		t.Fatalf("4-chip K4096 HTTP = %d %s, want 413", resp.StatusCode, data)
	}
	// A dispatched race on it fields brim, whose float copy is 134 MB.
	if resp, data := postJSON(t, mid.URL+"/runs", `{"engine":"portfolio","k":4096}`); resp.StatusCode != 413 {
		t.Fatalf("portfolio K4096 HTTP = %d %s, want 413", resp.StatusCode, data)
	}

	big, mbig, _ := newTestServer(t, Config{})
	resp, data := postJSON(t, big.URL+"/runs", `{"engine":"sa","sweeps":2,"n":65536,"edges":[[1,2,1]]}`)
	if resp.StatusCode != 202 {
		t.Fatalf("one edge on 65 536 spins HTTP = %d %s, want 202", resp.StatusCode, data)
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(data, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit response %s (%v)", data, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	m.Wait(ctx)
	mbig.Wait(ctx)
	mmid.Wait(ctx)
	run, _ := mbig.Get(sub.ID)
	out, err := run.Outcome()
	if err != nil || out == nil || len(out.Spins) != 65536 || out.Energy != -1 {
		t.Fatalf("one edge on 65 536 spins: outcome %v, %v (state %s)", out, err, run.Status().State)
	}
	for _, mgr := range []*Manager{m, mbig, mmid} {
		for _, st := range mgr.List() {
			if st.State != StateCompleted {
				t.Errorf("%s ended %s: %s", st.ID, st.State, st.Error)
			}
		}
	}
}

func TestNotAcceptingGate(t *testing.T) {
	srv, m, _ := newTestServer(t, Config{})
	m.SetAccepting(false)
	if _, err := m.SubmitWith(context.Background(), saRequest(8), SubmitOptions{}); !errors.Is(err, ErrNotAccepting) {
		t.Fatalf("err = %v, want ErrNotAccepting", err)
	}
	resp, _ := postJSON(t, srv.URL+"/runs", `{"engine":"sa","k":8,"sweeps":5}`)
	if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("HTTP = %d Retry-After=%q, want 503 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	m.SetAccepting(true)
	if _, err := m.SubmitWith(context.Background(), saRequest(8), SubmitOptions{}); err != nil {
		t.Fatalf("reopened gate refused: %v", err)
	}
	m.CancelAll()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	m.Wait(ctx)
}
