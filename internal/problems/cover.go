package problems

import (
	"mbrim/internal/graph"
	"mbrim/internal/ising"
)

// VertexCover is minimum vertex cover: choose the fewest vertices so
// every edge has a chosen endpoint. Lucas §4.3:
//
//	H = A Σ_{(u,v)∈E} (1−x_u)(1−x_v) + B Σ_v x_v
//
// with A > B so uncovering an edge never pays. The default is B = 1,
// A = 2.
type VertexCover struct {
	G *graph.Graph
	// A is the edge-coverage penalty; B the per-vertex cost. Zero
	// values select A = 2, B = 1.
	A, B float64
}

func (vc VertexCover) weights() (a, b float64) {
	a, b = vc.A, vc.B
	if b == 0 {
		b = 1
	}
	if a == 0 {
		a = 2 * b
	}
	return a, b
}

// Ising returns the model and offset with cost(x) = E(σ) + offset,
// where cost counts A per uncovered edge plus B per chosen vertex.
func (vc VertexCover) Ising() (m *ising.Model, offset float64) {
	a, b := vc.weights()
	n := vc.G.N()
	q := ising.NewQUBO(n)
	for _, e := range vc.G.Edges() {
		// A(1−x_u)(1−x_v) = A − A x_u − A x_v + A x_u x_v
		q.AddCoeff(e.U, e.U, -a)
		q.AddCoeff(e.V, e.V, -a)
		q.AddCoeff(e.U, e.V, a)
	}
	constant := a * float64(vc.G.M())
	for v := 0; v < n; v++ {
		q.AddCoeff(v, v, b)
	}
	return quboIsing(q, constant)
}

// Decode returns the chosen vertices (σ = +1 ⇔ x = 1), repaired to a
// valid cover: any uncovered edge gets its higher-degree endpoint
// added. Repair mirrors what a production pipeline does with raw
// annealer output.
func (vc VertexCover) Decode(spins []int8) []int {
	n := vc.G.N()
	if len(spins) != n {
		panic("problems: VertexCover.Decode length mismatch")
	}
	in := make([]bool, n)
	for v, s := range spins {
		in[v] = s > 0
	}
	deg := vc.G.Degrees()
	for _, e := range vc.G.Edges() {
		if !in[e.U] && !in[e.V] {
			if deg[e.U] >= deg[e.V] {
				in[e.U] = true
			} else {
				in[e.V] = true
			}
		}
	}
	var cover []int
	for v, chosen := range in {
		if chosen {
			cover = append(cover, v)
		}
	}
	return cover
}

// IsCover reports whether vs covers every edge of the graph.
func (vc VertexCover) IsCover(vs []int) bool {
	in := make([]bool, vc.G.N())
	for _, v := range vs {
		in[v] = true
	}
	for _, e := range vc.G.Edges() {
		if !in[e.U] && !in[e.V] {
			return false
		}
	}
	return true
}

// IndependentSet is maximum independent set: choose the most vertices
// with no edge inside the choice. Lucas §4.2 (via its complement to
// vertex cover):
//
//	H = A Σ_{(u,v)∈E} x_u x_v − B Σ_v x_v,  A > B.
type IndependentSet struct {
	G *graph.Graph
	// A is the edge-conflict penalty; B the per-vertex reward. Zero
	// values select A = 2, B = 1.
	A, B float64
}

func (is IndependentSet) weights() (a, b float64) {
	a, b = is.A, is.B
	if b == 0 {
		b = 1
	}
	if a == 0 {
		a = 2 * b
	}
	return a, b
}

// Ising returns the model and offset with
// (A·conflicts − B·|set|) = E(σ) + offset.
func (is IndependentSet) Ising() (m *ising.Model, offset float64) {
	a, b := is.weights()
	n := is.G.N()
	q := ising.NewQUBO(n)
	for _, e := range is.G.Edges() {
		q.AddCoeff(e.U, e.V, a)
	}
	for v := 0; v < n; v++ {
		q.AddCoeff(v, v, -b)
	}
	return quboIsing(q, 0)
}

// Decode returns the chosen vertices repaired to independence: while a
// conflict edge exists, the endpoint with more conflicts is dropped.
func (is IndependentSet) Decode(spins []int8) []int {
	n := is.G.N()
	if len(spins) != n {
		panic("problems: IndependentSet.Decode length mismatch")
	}
	in := make([]bool, n)
	for v, s := range spins {
		in[v] = s > 0
	}
	for {
		conflicts := make([]int, n)
		found := false
		for _, e := range is.G.Edges() {
			if in[e.U] && in[e.V] {
				conflicts[e.U]++
				conflicts[e.V]++
				found = true
			}
		}
		if !found {
			break
		}
		worst, worstC := -1, 0
		for v, c := range conflicts {
			if c > worstC {
				worst, worstC = v, c
			}
		}
		in[worst] = false
	}
	var set []int
	for v, chosen := range in {
		if chosen {
			set = append(set, v)
		}
	}
	return set
}

// IsIndependent reports whether no edge joins two chosen vertices.
func (is IndependentSet) IsIndependent(vs []int) bool {
	in := make([]bool, is.G.N())
	for _, v := range vs {
		in[v] = true
	}
	for _, e := range is.G.Edges() {
		if in[e.U] && in[e.V] {
			return false
		}
	}
	return true
}
