package runs

import (
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"testing"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/rng"
)

// kgraphRequest is what the daemon builds for {"k":n,"graphSeed":seed}.
func kgraphRequest(t testing.TB, m *Manager, n int, seed uint64) *graph.KGraph {
	t.Helper()
	req, err := m.buildRequest(&SubmitRequest{Engine: "dsbm", K: n, GraphSeed: seed})
	if err != nil {
		t.Fatal(err)
	}
	kg, ok := req.Graph.(*graph.KGraph)
	if !ok || kg.Model != req.Model {
		t.Fatalf("k=%d: the request reports cuts through %T, not its model", n, req.Graph)
	}
	return kg
}

// storedEntries returns every stored entry of m as (row, column, bits),
// both triangles, row by row in ascending column order.
func storedEntries(m *ising.Model) [][3]uint64 {
	c := m.View(lattice.Auto)
	var out [][3]uint64
	for i := 0; i < m.N(); i++ {
		c.Scan(i, func(j int, v float64) { out = append(out, [3]uint64{uint64(i), uint64(j), math.Float64bits(v)}) })
	}
	return out
}

// TestKGraphRequestIsCompleteGraph: a K-graph submission has one
// instance and one cut. The model the daemon draws straight into its ±1
// planes, a word of draws at a time, is Complete(n, seed).ToIsing() bit
// for bit — entries, count, layout, and the fields and energies its
// planes produce — and its (W − E)/2 cut is the edge walk's, bit for
// bit, on 64 random spin vectors per size. The sizes cross every way a
// row's first and last words can be partial.
func TestKGraphRequestIsCompleteGraph(t *testing.T) {
	m := NewManager(Config{})
	for _, n := range []int{2, 3, 63, 64, 65, 127, 128, 129, 256, 512, 1000} {
		seed := uint64(n) + 11
		kg := kgraphRequest(t, m, n, seed)
		g := graph.Complete(n, rng.New(seed))
		got, want := kg.Model, g.ToIsing()
		if got.NNZ() != want.NNZ() || got.NNZ() != n*(n-1) {
			t.Fatalf("n=%d: %d couplings, Complete's model has %d", n, got.NNZ(), want.NNZ())
		}
		if a, b := got.View(lattice.Auto).Kind(), want.View(lattice.Auto).Kind(); a != b || a != lattice.Dense {
			t.Fatalf("n=%d: layout %v, Complete's model %v", n, a, b)
		}
		if !reflect.DeepEqual(storedEntries(got), storedEntries(want)) {
			t.Fatalf("n=%d: the generated couplings differ from Complete's", n)
		}
		if !reflect.DeepEqual(got.View(lattice.Auto), want.View(lattice.Auto)) {
			t.Fatalf("n=%d: the stored layouts differ (planes, counts or symmetry)", n)
		}
		if kg.W != g.TotalWeight() {
			t.Fatalf("n=%d: W = %v, the edge list sums to %v", n, kg.W, g.TotalWeight())
		}
		r := rng.New(seed + 1)
		spins := make([]int8, n)
		for trial := 0; trial < 64; trial++ {
			for i := range spins {
				spins[i] = r.Spin()
			}
			if a, b := got.Energy(spins), want.Energy(spins); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("n=%d trial %d: energy %v, Complete's model %v", n, trial, a, b)
			}
			fa, fb := got.LocalFields(spins, nil), want.LocalFields(spins, nil)
			for i := range fa {
				if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
					t.Fatalf("n=%d trial %d: field %d is %v, Complete's model %v", n, trial, i, fa[i], fb[i])
				}
			}
			if a, b := kg.CutValue(spins), g.CutValue(spins); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("n=%d trial %d: cut %v, the edge walk %v", n, trial, a, b)
			}
		}
	}
}

// TestKGraphOutcomeReportsTheGraphsCut: end to end, a POST /runs
// {"k":64} outcome reports exactly the cut Complete's edge walk gives
// its spins, and the energy Complete's model does.
func TestKGraphOutcomeReportsTheGraphsCut(t *testing.T) {
	srv, m, _ := newTestServer(t, Config{})
	resp, body := postJSON(t, srv.URL+"/runs", `{"engine":"sa","k":64,"graphSeed":5,"seed":3,"sweeps":20}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	run, ok := m.Get(st.ID)
	if !ok {
		t.Fatal("submitted run not registered")
	}
	waitDone(t, run)
	resp, body = getBody(t, srv.URL+"/runs/"+st.ID+"/outcome")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("outcome = %d %s", resp.StatusCode, body)
	}
	var out OutcomeBody
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	g := graph.Complete(64, rng.New(5))
	if len(out.Spins) != 64 {
		t.Fatalf("outcome carries %d spins", len(out.Spins))
	}
	if want := g.CutValue(out.Spins); out.Cut != want || out.Cut == 0 {
		t.Fatalf("outcome cut %v, the graph's %v", out.Cut, want)
	}
	if want := g.ToIsing().Energy(out.Spins); out.Energy != want {
		t.Fatalf("outcome energy %v, the graph's model %v", out.Energy, want)
	}
}

// TestKGraphRequestAllocatesItsMatrix: a K-graph request allocates its
// model's two bit planes a row and its row counts — what the fence
// prices (lattice.Footprint) — and little else: the draws go straight
// into the planes, with no call list and no n² float matrix. Both K512
// and K8192 stay within 1.25 × the planes (K8192's are 16.8 MB, where
// the float matrix alone would be 537 MB). An edge list, a call list or
// a float matrix beside the planes is what these bounds would catch
// coming back.
func TestKGraphRequestAllocatesItsMatrix(t *testing.T) {
	m := NewManager(Config{})
	kgraphRequest(t, m, 8, 1) // warm: the registry, the engine's validator
	for _, n := range []int{512, 8192} {
		var got uint64
		for try := 0; try < 3; try++ { // the smallest of three: a GC cycle's own bookkeeping lands in TotalAlloc too
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			kg := kgraphRequest(t, m, n, 1)
			runtime.ReadMemStats(&after)
			if b := after.TotalAlloc - before.TotalAlloc; try == 0 || b < got {
				got = b
			}
			if want := lattice.Footprint(lattice.Auto, n, n*(n-1), true); lattice.Bytes(kg.Model.View(lattice.Auto)) != want {
				t.Fatalf("{\"k\":%d} stores %d bytes, not its planes' %d", n, lattice.Bytes(kg.Model.View(lattice.Auto)), want)
			}
		}
		words := (n + 63) / 64
		planes := uint64(2*n*words*8 + 4*n) // two bit planes a row and the row counts
		if bound := planes * 5 / 4; got > bound {
			t.Fatalf("building {\"k\":%d} allocated %d bytes, above the %d-byte bound (planes %d)", n, got, bound, planes)
		}
		t.Logf("{\"k\":%d}: %d bytes allocated, planes %d", n, got, planes)
	}
}
