package graph

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"mbrim/internal/ising"
	"mbrim/internal/rng"
)

func TestAddEdgeCoalesces(t *testing.T) {
	g := New(4)
	g.AddEdge(1, 2, 1.5)
	g.AddEdge(2, 1, 0.5)
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if w := g.Weight(1, 2); w != 2 {
		t.Fatalf("Weight = %v, want 2", w)
	}
	if w := g.Weight(2, 1); w != 2 {
		t.Fatalf("reversed Weight = %v, want 2", w)
	}
}

func TestAddEdgePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"self-loop":    func() { New(3).AddEdge(1, 1, 1) },
		"out-of-range": func() { New(3).AddEdge(0, 3, 1) },
		"negative":     func() { New(3).AddEdge(-1, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestWeightAbsent(t *testing.T) {
	g := New(3)
	if g.Weight(0, 1) != 0 {
		t.Fatal("absent edge has nonzero weight")
	}
}

func TestCompleteProperties(t *testing.T) {
	r := rng.New(1)
	n := 50
	g := Complete(n, r)
	if g.M() != n*(n-1)/2 {
		t.Fatalf("K%d has %d edges, want %d", n, g.M(), n*(n-1)/2)
	}
	for _, e := range g.Edges() {
		if e.Weight != 1 && e.Weight != -1 {
			t.Fatalf("K-graph weight %v not in {-1,+1}", e.Weight)
		}
	}
}

func TestCompleteDeterministic(t *testing.T) {
	a := Complete(20, rng.New(7))
	b := Complete(20, rng.New(7))
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			if a.Weight(i, j) != b.Weight(i, j) {
				t.Fatal("same seed produced different K-graphs")
			}
		}
	}
}

// TestCompleteIsOneSpinAPair pins Complete to the per-pair definition
// it had before its draws came a word at a time: pair (i, j), i < j, row
// by row, weight float64(r.Spin()) — the same edges, the same weight
// bits, and the generator left in the same state, on sizes that cross
// every partial-word case.
func TestCompleteIsOneSpinAPair(t *testing.T) {
	for _, n := range []int{1, 2, 3, 63, 64, 65, 127, 128, 129, 200} {
		seed := uint64(n) + 5
		r, ref := rng.New(seed), rng.New(seed)
		got := Complete(n, r).Edges()
		var want []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want = append(want, Edge{U: i, V: j, Weight: float64(ref.Spin())})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d edges, the per-pair walk %d", n, len(got), len(want))
		}
		for k := range want {
			if got[k].U != want[k].U || got[k].V != want[k].V || math.Float64bits(got[k].Weight) != math.Float64bits(want[k].Weight) {
				t.Fatalf("n=%d: edge %d is %+v, the per-pair walk's %+v", n, k, got[k], want[k])
			}
		}
		if r.State() != ref.State() {
			t.Fatalf("n=%d: Complete left the generator at %x, the per-pair walk at %x", n, r.State(), ref.State())
		}
	}
}

func TestRandomDensity(t *testing.T) {
	r := rng.New(2)
	n := 200
	g := Random(n, 0.1, r)
	max := n * (n - 1) / 2
	frac := float64(g.M()) / float64(max)
	if math.Abs(frac-0.1) > 0.02 {
		t.Fatalf("G(n,0.1) density %v", frac)
	}
}

func TestRandomRegularishDegrees(t *testing.T) {
	r := rng.New(3)
	g := RandomRegularish(100, 6, r)
	for v, d := range g.Degrees() {
		if d < 6 {
			t.Fatalf("vertex %d has degree %d < 6", v, d)
		}
	}
}

func TestCutValueKnown(t *testing.T) {
	// Triangle with unit weights: best cut is 2.
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 1)
	if c := g.CutValue([]int8{1, -1, 1}); c != 2 {
		t.Fatalf("cut = %v, want 2", c)
	}
	if c := g.CutValue([]int8{1, 1, 1}); c != 0 {
		t.Fatalf("uncut = %v, want 0", c)
	}
}

func TestCutEnergyRelation(t *testing.T) {
	// The DESIGN.md invariant: cut(σ) = (W − E(σ))/2 for the ToIsing
	// mapping, for every graph and assignment.
	f := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		n := 2 + r.Intn(30)
		g := Random(n, 0.5, r)
		m := g.ToIsing()
		s := ising.RandomSpins(n, r)
		cut := g.CutValue(s)
		viaEnergy := g.CutFromEnergy(m.Energy(s))
		return math.Abs(cut-viaEnergy) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestToIsingZeroBias(t *testing.T) {
	r := rng.New(4)
	g := Complete(10, r)
	m := g.ToIsing()
	for i := 0; i < 10; i++ {
		if m.Bias(i) != 0 {
			t.Fatal("MaxCut mapping must have zero biases")
		}
	}
	if m.NNZ() != 2*g.M() {
		t.Fatalf("NNZ = %d for %d edges", m.NNZ(), g.M())
	}
}

func TestBlockPartitionCoversExactly(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%200) + 1
		k := int(kRaw)%n + 1
		parts := BlockPartition(n, k)
		if len(parts) != k {
			return false
		}
		seen := make([]bool, n)
		minSize, maxSize := n+1, 0
		for _, p := range parts {
			if len(p) < minSize {
				minSize = len(p)
			}
			if len(p) > maxSize {
				maxSize = len(p)
			}
			for _, v := range p {
				if v < 0 || v >= n || seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return maxSize-minSize <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := rng.New(6)
	g := Random(30, 0.3, r)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip changed size: %d/%d vs %d/%d", back.N(), back.M(), g.N(), g.M())
	}
	for _, e := range g.Edges() {
		if back.Weight(e.U, e.V) != e.Weight {
			t.Fatalf("edge (%d,%d) weight changed", e.U, e.V)
		}
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "x y\n",
		"negative n":   "-3 1\n1 2 1\n",
		"self loop":    "3 1\n2 2 1\n",
		"out of range": "3 1\n1 4 1\n",
		"short edge":   "3 1\n1 2\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("Read accepted %s", name)
		}
	}
}

func TestTotalWeight(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, -3)
	if w := g.TotalWeight(); w != -1 {
		t.Fatalf("TotalWeight = %v, want -1", w)
	}
}

func TestCutValuePanicsOnLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(3).CutValue([]int8{1})
}

func TestComponents(t *testing.T) {
	g := New(7)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	// 5 and 6 are isolated.
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("%d components, want 4: %v", len(comps), comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 {
		t.Fatalf("first component %v", comps[0])
	}
	if len(comps[1]) != 2 || comps[1][0] != 3 {
		t.Fatalf("second component %v", comps[1])
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestComponentsCoverAllVertices(t *testing.T) {
	f := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		n := 2 + r.Intn(40)
		g := Random(n, 0.05, r)
		seen := make([]bool, n)
		for _, comp := range g.Components() {
			for _, v := range comp {
				if v < 0 || v >= n || seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteIsConnected(t *testing.T) {
	if !Complete(10, rng.New(1)).Connected() {
		t.Fatal("complete graph not connected")
	}
}

// The generators append their pairs without the endpoint index; these
// pin that nothing observable changed.

func TestGeneratorsMatchAddEdge(t *testing.T) {
	const n = 70
	viaAdd := map[string]*Graph{"complete": New(n), "random": New(n), "empty": New(n), "full": New(n)}
	r := rng.New(5)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			viaAdd["complete"].AddEdge(i, j, float64(r.Spin()))
		}
	}
	for name, p := range map[string]float64{"random": 0.3, "empty": 0, "full": 1.5} {
		r = rng.New(5)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Bool(p) {
					viaAdd[name].AddEdge(i, j, float64(r.Spin()))
				}
			}
		}
	}
	for name, g := range map[string]*Graph{
		"complete": Complete(n, rng.New(5)),
		"random":   Random(n, 0.3, rng.New(5)),
		"empty":    Random(n, 0, rng.New(5)),
		"full":     Random(n, 1.5, rng.New(5)),
	} {
		want := viaAdd[name].Edges()
		if g.index != nil {
			t.Errorf("%s: generator built the endpoint index", name)
		}
		if len(g.Edges()) != len(want) {
			t.Fatalf("%s: %d edges, AddEdge-built %d", name, len(g.Edges()), len(want))
		}
		for i, e := range g.Edges() {
			if e != want[i] {
				t.Fatalf("%s: edge %d = %+v, AddEdge-built %+v", name, i, e, want[i])
			}
		}
	}
}

func TestIndexAfterGeneration(t *testing.T) {
	const n = 40
	g := Complete(n, rng.New(2))
	edges := append([]Edge(nil), g.Edges()...)
	for _, e := range edges {
		if g.Weight(e.V, e.U) != e.Weight {
			t.Fatalf("Weight(%d,%d) = %v, want %v", e.V, e.U, g.Weight(e.V, e.U), e.Weight)
		}
	}
	// AddEdge as the first indexed call must see the generated edges too:
	// it coalesces onto them instead of appending duplicates.
	before := g.Weight(3, 7)
	g = Complete(n, rng.New(2))
	g.AddEdge(7, 3, 2.5)
	if g.M() != len(edges) || g.Weight(3, 7) != before+2.5 {
		t.Fatalf("AddEdge onto generated edge (3,7): M %d → %d, weight %v → %v",
			len(edges), g.M(), before, g.Weight(3, 7))
	}
	sparse := Random(n, 0.1, rng.New(2))
	m := sparse.M()
	u, v := 0, 1
	for sparse.Weight(u, v) != 0 {
		v++
	}
	sparse.AddEdge(u, v, 1)
	if sparse.M() != m+1 || sparse.Weight(v, u) != 1 {
		t.Fatalf("AddEdge of an absent pair: M %d → %d, weight %v", m, sparse.M(), sparse.Weight(v, u))
	}
}

// TestConcurrentWeightOnFreshGraph is meaningful under -race: the first
// Weight calls race to build the index.
func TestConcurrentWeightOnFreshGraph(t *testing.T) {
	const n = 60
	g := Complete(n, rng.New(3))
	edges := g.Edges()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(edges); i += 8 {
				if e := edges[i]; g.Weight(e.U, e.V) != e.Weight {
					t.Errorf("Weight(%d,%d) = %v, want %v", e.U, e.V, g.Weight(e.U, e.V), e.Weight)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestFromTriples(t *testing.T) {
	g, err := FromTriples(4, [][3]float64{{1, 2, 1}, {4, 1, -2}, {2, 1, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 || g.Weight(0, 1) != 1.5 || g.Weight(0, 3) != -2 {
		t.Fatalf("edges %+v", g.Edges())
	}
	for name, tc := range map[string]struct {
		triple [3]float64
		want   string
	}{
		"truncates to a valid edge":   {[3]float64{1.9, 2.2, 1}, "edge 1 [1.9, 2.2]: endpoints must be integers"},
		"truncates to a self-loop":    {[3]float64{2.7, 2.1, 1}, "edge 1 [2.7, 2.1]: endpoints must be integers"},
		"one fractional endpoint":     {[3]float64{1, 2.5, 1}, "endpoints must be integers"},
		"NaN":                         {[3]float64{math.NaN(), 2, 1}, "endpoints must be integers"},
		"infinite":                    {[3]float64{1, math.Inf(1), 1}, "endpoints must be integers"},
		"beyond the int range":        {[3]float64{1e300, 2, 1}, "edge 1 (1e+300,2) out of range for n=4"},
		"zero is not a 1-based index": {[3]float64{0, 2, 1}, "out of range"},
		"past n":                      {[3]float64{1, 5, 1}, "edge 1 (1,5) out of range for n=4"},
		"self-loop":                   {[3]float64{3, 3, 1}, "out of range"},
	} {
		_, err := FromTriples(4, [][3]float64{{1, 2, 1}, tc.triple})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want it to contain %q", name, err, tc.want)
		}
	}
}

// distinctTriples returns m distinct 1-based triples on n vertices,
// every other one written high endpoint first.
func distinctTriples(n, m int) [][3]float64 {
	out := make([][3]float64, 0, m)
	for i := 1; i <= n && len(out) < m; i++ {
		for j := i + 1; j <= n && len(out) < m; j++ {
			t := [3]float64{float64(i), float64(j), float64(len(out)%3 - 1)}
			if len(out)%2 == 1 {
				t[0], t[1] = t[1], t[0]
			}
			out = append(out, t)
		}
	}
	return out
}

// TestFromTriplesIsAddEdge: FromTriples (and Read, on the same body as
// text) coalesces the body as a loop of AddEdge calls would — the same
// edges in the same order, the same weight bits, repeated and reversed
// pairs summed in body order — while sizing its list once and keeping no
// endpoint index, so Weight builds its own.
func TestFromTriplesIsAddEdge(t *testing.T) {
	const n = 60
	r := rng.New(9)
	body := distinctTriples(n, 400)
	for i := 0; i < 600; i++ { // repeats of listed pairs, either way round, and new pairs
		u, v := 1+r.Intn(n), 1+r.Intn(n)
		if i%3 == 0 {
			e := body[r.Intn(len(body))]
			u, v = int(e[1]), int(e[0])
		}
		if u != v {
			body = append(body, [3]float64{float64(u), float64(v), r.Float64()*4 - 2})
		}
	}
	want := New(n)
	text := fmt.Sprintf("%d %d\n", n, len(body)) // the same body as Gset text, for Read
	for _, e := range body {
		want.AddEdge(int(e[0])-1, int(e[1])-1, e[2])
		text += fmt.Sprintf("%v %v %v\n", e[0], e[1], e[2])
	}
	fromTriples, err := FromTriples(n, body)
	if err != nil {
		t.Fatal(err)
	}
	read, err := Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"FromTriples": fromTriples, "Read": read} {
		if g.index != nil {
			t.Errorf("%s kept an endpoint index", name)
		}
		if g.M() != want.M() || g.M() >= len(body) {
			t.Fatalf("%s: %d edges from %d triples, AddEdge made %d", name, g.M(), len(body), want.M())
		}
		for i, e := range want.Edges() {
			got := g.Edges()[i]
			if got.U != e.U || got.V != e.V || math.Float64bits(got.Weight) != math.Float64bits(e.Weight) {
				t.Fatalf("%s: edge %d = %+v, AddEdge made %+v", name, i, got, e)
			}
			if w := g.Weight(e.V, e.U); math.Float64bits(w) != math.Float64bits(e.Weight) {
				t.Fatalf("%s: Weight(%d,%d) = %v, want %v", name, e.V, e.U, w, e.Weight)
			}
		}
		if g.Weight(0, n-1) != want.Weight(0, n-1) {
			t.Fatalf("%s: Weight disagrees with AddEdge's graph on a pair", name)
		}
	}

	// No regrowth: the allocations are a fixed few, whatever the length.
	allocs := map[int]float64{}
	for _, m := range []int{1000, 10000} {
		body := distinctTriples(200, m)
		allocs[m] = testing.AllocsPerRun(5, func() {
			if _, err := FromTriples(200, body); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[1000] != allocs[10000] {
		t.Errorf("allocations %v for 1k and 10k triples: the list or its index regrows", allocs)
	}

	// No index kept: the graph retains its edges at 24 bytes each.
	body = distinctTriples(200, 10000)
	var held uint64
	for try := 0; try < 3; try++ { // the smallest of three, as a GC cycle's bookkeeping may land in one
		var before, after runtime.MemStats
		runtime.GC() // twice: the first moves pooled objects to the victim cache, the second frees them
		runtime.GC()
		runtime.ReadMemStats(&before)
		g, err := FromTriples(200, body)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(g)
		if b := after.HeapAlloc - before.HeapAlloc; try == 0 || b < held {
			held = b
		}
	}
	if bound := uint64(24 * 10000 * 105 / 100); held > bound {
		t.Errorf("a graph of 10 000 edges holds %d bytes, above %d", held, bound)
	}
	t.Logf("allocs %v; 10 000 edges hold %d bytes", allocs, held)
}
