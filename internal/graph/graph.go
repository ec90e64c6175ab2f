// Package graph provides the benchmark workloads of the paper: fully
// connected K-graphs (K2000, K16384, ...), random Gset-style graphs,
// the text interchange format used by the MaxCut community, and the
// graph↔Ising mapping with its cut-value bookkeeping.
//
// MaxCut convention. For an undirected graph with edge weights w_ij,
// the cut value of an assignment σ is
//
//	cut(σ) = Σ_{(i,j)∈E} w_ij (1 − σ_i σ_j) / 2
//
// The corresponding Ising model uses J_ij = −w_ij, giving
// E(σ) = Σ_{(i,j)∈E} w_ij σ_i σ_j and the exact relation
//
//	cut(σ) = (W − E(σ)) / 2, with W = Σ w_ij.
//
// Maximizing the cut is minimizing the energy; the K-graph "cut value"
// numbers reported in the paper (e.g. 33,337 for K2000) are this
// quantity.
package graph

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/rng"
)

// Edge is an undirected weighted edge. Endpoints satisfy U < V.
type Edge struct {
	U, V   int
	Weight float64
}

// Graph is an undirected weighted graph with vertices 0..N-1 stored as
// an edge list; duplicate edges are coalesced by AddEdge.
//
// The endpoint index behind AddEdge and Weight is lazy: it is built
// from the edge list on the first call to either, so a graph that is
// only generated and read (Edges, CutValue, ToIsing — a daemon solve)
// never pays for it. Building it is safe under concurrent Weight
// readers; AddEdge is a write and needs external synchronization like
// any other. A Graph must not be copied after first use.
type Graph struct {
	n     int
	edges []Edge

	indexOnce sync.Once
	index     map[[2]int]int // endpoint pair → position in edges; use lookup
}

// New returns an empty graph on n vertices. It panics if n <= 0.
func New(n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("graph: New with n=%d", n))
	}
	return &Graph{n: n}
}

// lookup returns the endpoint index, building it on first use.
func (g *Graph) lookup() map[[2]int]int {
	g.indexOnce.Do(func() {
		g.index = make(map[[2]int]int, len(g.edges))
		for pos, e := range g.edges {
			g.index[[2]int{e.U, e.V}] = pos
		}
	})
	return g.index
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of (distinct) edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the edge list (do not mutate).
func (g *Graph) Edges() []Edge { return g.edges }

// AddEdge adds weight w to edge (u, v). Self-loops and out-of-range
// endpoints panic. Repeated calls accumulate onto the same edge.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u == v {
		panic("graph: self-loop")
	}
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", u, v, g.n))
	}
	if u > v {
		u, v = v, u
	}
	index, key := g.lookup(), [2]int{u, v}
	if pos, ok := index[key]; ok {
		g.edges[pos].Weight += w
		return
	}
	index[key] = len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, Weight: w})
}

// Weight returns the weight of edge (u, v), or 0 if absent.
func (g *Graph) Weight(u, v int) float64 {
	if u > v {
		u, v = v, u
	}
	if pos, ok := g.lookup()[[2]int{u, v}]; ok {
		return g.edges[pos].Weight
	}
	return 0
}

// TotalWeight returns W = Σ w_ij over all edges.
func (g *Graph) TotalWeight() float64 {
	w := 0.0
	for _, e := range g.edges {
		w += e.Weight
	}
	return w
}

// CutValue returns the weight of edges crossing the bipartition
// defined by the spin assignment: Σ w_ij (1 − σ_i σ_j)/2.
func (g *Graph) CutValue(spins []int8) float64 {
	if len(spins) != g.n {
		panic("graph: CutValue with wrong spin length")
	}
	cut := 0.0
	for _, e := range g.edges {
		if spins[e.U] != spins[e.V] {
			cut += e.Weight
		}
	}
	return cut
}

// ToIsing maps the MaxCut instance to an Ising model with J = −w and
// zero biases, so minimizing energy maximizes the cut. The model is as
// sparse as the graph: it is built from the edge list, never through
// n². FromTriples and Read refuse non-finite weights; a graph given one
// through AddEdge panics here.
func (g *Graph) ToIsing() *ising.Model {
	b := ising.NewBuilder(g.n)
	for _, e := range g.edges {
		b.SetCoupling(e.U, e.V, -e.Weight)
	}
	m, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("graph: ToIsing: %v", err))
	}
	return m
}

// CutFromEnergy converts an Ising energy of the ToIsing model back to
// a cut value via cut = (W − E)/2.
func (g *Graph) CutFromEnergy(energy float64) float64 {
	return (g.TotalWeight() - energy) / 2
}

// Degrees returns the vertex degrees.
func (g *Graph) Degrees() []int {
	d := make([]int, g.n)
	for _, e := range g.edges {
		d[e.U]++
		d[e.V]++
	}
	return d
}

// --- Generators -----------------------------------------------------

// Complete returns the K-graph K_n with edge weights drawn uniformly
// from {-1, +1}, the benchmark family of the paper (K2000 [28],
// K16384 [49]). The instance is fully determined by n and the seed.
// The pairs come out distinct and in AddEdge's order, so they are
// appended directly: same edge list, no endpoint index.
func Complete(n int, r *rng.Source) *Graph {
	g := New(n)
	g.edges = make([]Edge, 0, n*(n-1)/2)
	completeWeights(n, r, func(i, k int, draws, mask uint64) {
		for m := mask; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			g.edges = append(g.edges, Edge{U: i, V: 64*k + b, Weight: float64(int(draws>>b&1)*2 - 1)})
		}
	})
	return g
}

// completeWeights is the one definition of the K-graph instance: pair
// (i, j), i < j, row by row, each weight the sign of one draw (the low
// bit of one Uint64, 1 for +1 and 0 for −1, as rng.Source.Spin reads
// it). A row comes a word of columns at a time, its draws taken by one
// rng.Source.LowBits: put(i, k, draws, mask) for word k, whose mask
// marks the columns 64k+b it holds pairs (i, j) for, i < j < n, and
// whose draws holds each such pair's bit in the same place.
func completeWeights(n int, r *rng.Source, put func(i, k int, draws, mask uint64)) {
	for i := 0; i < n-1; i++ {
		for k := (i + 1) >> 6; 64*k < n; k++ {
			lo, hi := max(i+1-64*k, 0), min(n-64*k, 64)
			put(i, k, r.LowBits(hi-lo)<<uint(lo), ^uint64(0)>>uint(64-hi+lo)<<uint(lo))
		}
	}
}

// KGraph is Complete's instance held as its Ising model alone, with the
// total weight W: no edge list, which at 24 bytes a pair would be half
// as large again as the model. It reports cuts as
// (W − E(σ))/2, which on ±1 weights is bit-equal to the edge walk of
// Graph.CutValue: W, the energy (the model's ±1 planes count it) and
// every partial sum of either are integers, so nothing rounds.
type KGraph struct {
	Model *ising.Model
	W     float64
}

// NewKGraph returns Complete(n, r) as a KGraph: the same draws in the
// same order, each word of them stored straight into the ±1 planes the
// model keeps — a +1 weight is a −1 coupling, so the −1 plane is the
// word and the +1 plane its complement under the word's mask — and W
// counted off them. Its model is Float64bits-equal to
// Complete(n, r).ToIsing().
func NewKGraph(n int, r *rng.Source) *KGraph {
	u := lattice.NewUnitUpper(n)
	plus := 0
	completeWeights(n, r, func(i, k int, draws, mask uint64) {
		u.SetWord(i, k, mask&^draws, draws)
		plus += bits.OnesCount64(draws)
	})
	// Every partial sum of the ±1 walk is an integer, so W is exact.
	return &KGraph{Model: ising.FromUnitUpper(u), W: float64(2*plus - n*(n-1)/2)}
}

// CutValue returns the weight of the edges crossing the bipartition σ.
func (k *KGraph) CutValue(spins []int8) float64 {
	return k.CutFromEnergy(k.Model.Energy(spins))
}

// CutFromEnergy converts an energy of the model back to a cut value,
// (W − E)/2.
func (k *KGraph) CutFromEnergy(energy float64) float64 { return (k.W - energy) / 2 }

// Random returns an Erdős–Rényi G(n, p) graph with ±1 weights, the
// Gset-style sparse workload used for the divide-and-conquer study.
// Like Complete it appends its distinct, ordered pairs directly.
func Random(n int, p float64, r *rng.Source) *Graph {
	g := New(n)
	// Room for the expected edge count plus four standard deviations, so
	// all but a few draws in 100 000 never regrow the list.
	mean := math.Min(math.Max(p, 0), 1) * float64(n*(n-1)/2)
	g.edges = make([]Edge, 0, int(mean+4*math.Sqrt(mean))+1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bool(p) {
				g.edges = append(g.edges, Edge{U: i, V: j, Weight: float64(r.Spin())})
			}
		}
	}
	return g
}

// FromTriples builds a graph on n vertices from Gset-style [u, v, w]
// triples with 1-based endpoints — the edge-list body of the daemon's
// submit requests, which JSON delivers as floats. An endpoint that is
// not an integer is an error, never truncated; so is one outside 1..n
// or a self-loop. Each error names the offending triple by position.
// The edges come out as AddEdge would leave them, in a list sized to
// the body once (coalesce), and the graph keeps no endpoint index:
// Weight builds one only if asked.
func FromTriples(n int, triples [][3]float64) (*Graph, error) {
	g := New(n)
	g.edges = make([]Edge, len(triples))
	for i, t := range triples {
		u, v := t[0], t[1]
		if u != math.Trunc(u) || v != math.Trunc(v) || math.IsInf(u, 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("edge %d [%v, %v]: endpoints must be integers", i, u, v)
		}
		if u < 1 || u > float64(n) || v < 1 || v > float64(n) || u == v {
			return nil, fmt.Errorf("edge %d (%v,%v) out of range for n=%d", i, u, v, n)
		}
		g.edges[i] = Edge{U: int(min(u, v)) - 1, V: int(max(u, v)) - 1, Weight: t[2]}
	}
	g.coalesce()
	if err := g.checkFinite(); err != nil {
		return nil, err
	}
	return g, nil
}

// coalesce merges each repeated pair of the edge list into its first
// occurrence, adding the weights in list order, and drops the repeats:
// the list AddEdge would have built from the same calls. It finds them
// by sorting the positions by pair, then position, so it allocates one
// slice of them, whatever n and the length of the list, and no index.
func (g *Graph) coalesce() {
	order := make([]int, len(g.edges))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		ea, eb := &g.edges[a], &g.edges[b]
		return cmp.Or(cmp.Compare(ea.U, eb.U), cmp.Compare(ea.V, eb.V), cmp.Compare(a, b))
	})
	repeats := false
	for k := 1; k < len(order); k++ {
		f, e := &g.edges[order[k-1]], &g.edges[order[k]]
		if e.U == f.U && e.V == f.V {
			f.Weight += e.Weight
			order[k] = order[k-1] // the first occurrence stays the group's
			e.U, repeats = -1, true
		}
	}
	if repeats {
		g.edges = slices.DeleteFunc(g.edges, func(e Edge) bool { return e.U < 0 })
	}
}

// checkFinite reports the first edge whose accumulated weight is NaN or
// infinite — the one defect of parsed input AddEdge does not catch.
func (g *Graph) checkFinite() error {
	for _, e := range g.edges {
		if math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) {
			return fmt.Errorf("edge (%d,%d) has weight %v", e.U+1, e.V+1, e.Weight)
		}
	}
	return nil
}

// RandomRegularish returns a graph where each vertex gets exactly d
// randomly chosen distinct neighbours (so degrees are between d and
// ~2d). It is the cheap stand-in for d-regular benchmark graphs.
func RandomRegularish(n, d int, r *rng.Source) *Graph {
	if d >= n {
		panic("graph: RandomRegularish degree >= n")
	}
	g := New(n)
	for i := 0; i < n; i++ {
		seen := map[int]bool{i: true}
		for len(seen) < d+1 {
			j := r.Intn(n)
			if seen[j] {
				continue
			}
			seen[j] = true
			if g.Weight(i, j) == 0 {
				g.AddEdge(i, j, float64(r.Spin()))
			}
		}
	}
	return g
}

// --- Partitioning ---------------------------------------------------

// BlockPartition splits vertices 0..n-1 into k contiguous blocks whose
// sizes differ by at most one — the slicing used when a problem is
// spread over k chips.
func BlockPartition(n, k int) [][]int {
	if k <= 0 || k > n {
		panic(fmt.Sprintf("graph: BlockPartition n=%d k=%d", n, k))
	}
	parts := make([][]int, k)
	base, extra := n/k, n%k
	at := 0
	for i := range parts {
		size := base
		if i < extra {
			size++
		}
		p := make([]int, size)
		for j := range p {
			p[j] = at
			at++
		}
		parts[i] = p
	}
	return parts
}

// --- Gset text format -----------------------------------------------

// Write emits the graph in the Gset interchange format: a header line
// "n m" followed by one "u v w" line per edge with 1-based vertices.
func (g *Graph) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.n, len(g.edges)); err != nil {
		return err
	}
	for _, e := range g.edges {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", e.U+1, e.V+1, e.Weight); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the Gset format written by Write, coalescing repeated
// edges as FromTriples does.
func Read(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var n, m int
	if _, err := fmt.Fscan(br, &n, &m); err != nil {
		return nil, fmt.Errorf("graph: bad header: %w", err)
	}
	if n <= 0 || m < 0 {
		return nil, fmt.Errorf("graph: invalid header n=%d m=%d", n, m)
	}
	g := New(n)
	for i := 0; i < m; i++ {
		var u, v int
		var w float64
		if _, err := fmt.Fscan(br, &u, &v, &w); err != nil {
			return nil, fmt.Errorf("graph: bad edge %d: %w", i, err)
		}
		if u < 1 || v < 1 || u > n || v > n || u == v {
			return nil, fmt.Errorf("graph: invalid edge %d: (%d,%d)", i, u, v)
		}
		g.edges = append(g.edges, Edge{U: min(u, v) - 1, V: max(u, v) - 1, Weight: w})
	}
	g.coalesce()
	if err := g.checkFinite(); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	return g, nil
}

// Components returns the connected components as vertex lists, each
// sorted ascending, ordered by smallest member. Partitioning a
// disconnected problem across chips along component boundaries makes
// the cross-chip coupling empty — worth knowing before slicing.
func (g *Graph) Components() [][]int {
	parent := make([]int, g.n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range g.edges {
		ru, rv := find(e.U), find(e.V)
		if ru != rv {
			parent[ru] = rv
		}
	}
	groups := make(map[int][]int)
	for v := 0; v < g.n; v++ {
		r := find(v)
		groups[r] = append(groups[r], v)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return groups[roots[i]][0] < groups[roots[j]][0] })
	out := make([][]int, 0, len(groups))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// Connected reports whether the graph has a single component.
func (g *Graph) Connected() bool { return len(g.Components()) == 1 }
