package problems

import (
	"mbrim/internal/graph"
	"mbrim/internal/ising"
)

// Coloring is graph k-coloring: assign one of Colors colors to every
// vertex so no edge is monochromatic. Lucas §6.1, one-hot encoding:
// binary variable x_{v,c} means vertex v has color c, and
//
//	H = A Σ_v (1 − Σ_c x_{v,c})² + A Σ_{(u,v)∈E} Σ_c x_{u,c} x_{v,c}
//
// Ground energy 0 ⇔ a proper coloring exists. Spins are laid out
// vertex-major: index(v, c) = v·Colors + c.
type Coloring struct {
	G      *graph.Graph
	Colors int
	// A is the penalty weight; zero selects 1 (all terms are
	// constraints, so relative weight does not matter).
	A float64
}

// Index returns the spin index of (vertex, color).
func (c Coloring) Index(v, color int) int { return v*c.Colors + color }

// Ising returns the model and offset with
// penalty(x) = E(σ) + offset ≥ 0, equality at proper colorings.
func (c Coloring) Ising() (m *ising.Model, offset float64) {
	requirePositive("Colors", c.Colors)
	a := c.A
	if a == 0 {
		a = 1
	}
	n := c.G.N()
	q := ising.NewQUBO(n * c.Colors)
	constant := 0.0
	// One-hot terms: A(1 − Σ_c x)² = A − 2A Σ x + A (Σ x)².
	for v := 0; v < n; v++ {
		constant += a
		for ci := 0; ci < c.Colors; ci++ {
			q.AddCoeff(c.Index(v, ci), c.Index(v, ci), float64(-2*a)+a) // −2A x + A x²
			for cj := ci + 1; cj < c.Colors; cj++ {
				q.AddCoeff(c.Index(v, ci), c.Index(v, cj), 2*a)
			}
		}
	}
	// Edge conflicts.
	for _, e := range c.G.Edges() {
		for ci := 0; ci < c.Colors; ci++ {
			q.AddCoeff(c.Index(e.U, ci), c.Index(e.V, ci), a)
		}
	}
	return quboIsing(q, constant)
}

// Decode assigns each vertex the color of its strongest one-hot bit
// (ties and all-off vertices take the lowest available color, greedily
// avoiding conflicts with already-decoded neighbours).
func (c Coloring) Decode(spins []int8) []int {
	n := c.G.N()
	if len(spins) != n*c.Colors {
		panic("problems: Coloring.Decode length mismatch")
	}
	colors := make([]int, n)
	for v := 0; v < n; v++ {
		chosen := -1
		for ci := 0; ci < c.Colors; ci++ {
			if spins[c.Index(v, ci)] > 0 {
				if chosen == -1 {
					chosen = ci
				} else {
					// Double-hot: ambiguous, fall through to greedy.
					chosen = -1
					break
				}
			}
		}
		if chosen == -1 {
			chosen = c.greedyColor(v, colors)
		}
		colors[v] = chosen
	}
	c.repair(colors)
	return colors
}

// repair recolors conflicted vertices to a locally free color when one
// exists, iterating until no single-vertex recoloring helps. Raw
// annealer output routinely leaves a handful of conflicts; this is the
// standard post-processing pass.
func (c Coloring) repair(colors []int) {
	adj := make([][]int, c.G.N())
	for _, e := range c.G.Edges() {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	for pass := 0; pass < c.G.N(); pass++ {
		changed := false
		for v := range adj {
			counts := make([]int, c.Colors)
			for _, u := range adj[v] {
				counts[colors[u]]++
			}
			if counts[colors[v]] == 0 {
				continue
			}
			// Min-conflicts move: strictly reduce this vertex's
			// conflict count (a free color reduces it to zero).
			best, bestCount := colors[v], counts[colors[v]]
			for ci := 0; ci < c.Colors; ci++ {
				if counts[ci] < bestCount {
					best, bestCount = ci, counts[ci]
				}
			}
			if best != colors[v] {
				colors[v] = best
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// greedyColor picks the lowest color not used by v's already-colored
// lower-index neighbours.
func (c Coloring) greedyColor(v int, colors []int) int {
	used := make([]bool, c.Colors)
	for _, e := range c.G.Edges() {
		var other int
		switch {
		case e.U == v:
			other = e.V
		case e.V == v:
			other = e.U
		default:
			continue
		}
		if other < v && colors[other] < c.Colors {
			used[colors[other]] = true
		}
	}
	for ci := 0; ci < c.Colors; ci++ {
		if !used[ci] {
			return ci
		}
	}
	return 0
}

// Conflicts counts monochromatic edges under the assignment.
func (c Coloring) Conflicts(colors []int) int {
	if len(colors) != c.G.N() {
		panic("problems: Coloring.Conflicts length mismatch")
	}
	conflicts := 0
	for _, e := range c.G.Edges() {
		if colors[e.U] == colors[e.V] {
			conflicts++
		}
	}
	return conflicts
}

// Valid reports a proper coloring.
func (c Coloring) Valid(colors []int) bool { return c.Conflicts(colors) == 0 }
