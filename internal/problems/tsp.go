package problems

import (
	"fmt"
	"math"

	"mbrim/internal/ising"
)

// TSP is the traveling salesman problem on a complete distance matrix.
// Lucas §7.2, one-hot in both directions: x_{v,t} means city v is
// visited at time t, with
//
//	H = A Σ_v (1−Σ_t x_{v,t})² + A Σ_t (1−Σ_v x_{v,t})²
//	  + B Σ_{u≠v} d_{uv} Σ_t x_{u,t} x_{v,t+1}
//
// (time wraps: the tour is a cycle). A must dominate B·max(d) so that
// breaking a constraint never pays. Spins are city-major:
// Index(v, t) = v·n + t.
type TSP struct {
	// Dist is the symmetric distance matrix; Dist[i][i] is ignored.
	Dist [][]float64
	// A is the constraint penalty; zero selects 2·B·max(d)+1.
	A float64
	// B is the distance weight; zero selects 1.
	B float64
}

// N returns the number of cities.
func (t TSP) N() int { return len(t.Dist) }

// Index returns the spin index of (city, time).
func (t TSP) Index(city, time int) int { return city*t.N() + time }

func (t TSP) validate() {
	requirePositive("cities", t.N())
	for i, row := range t.Dist {
		if len(row) != t.N() {
			panic(fmt.Sprintf("problems: TSP distance row %d has %d entries for %d cities", i, len(row), t.N()))
		}
	}
}

func (t TSP) weights() (a, b float64) {
	b = t.B
	if b == 0 {
		b = 1
	}
	a = t.A
	if a == 0 {
		maxD := 0.0
		for i := range t.Dist {
			for j := range t.Dist[i] {
				if i != j && t.Dist[i][j] > maxD {
					maxD = t.Dist[i][j]
				}
			}
		}
		a = float64(2*b*maxD) + 1
	}
	return a, b
}

// Ising returns the model and offset with H(x) = E(σ) + offset; at a
// valid tour, H = B × tour length.
func (t TSP) Ising() (m *ising.Model, offset float64) {
	t.validate()
	a, b := t.weights()
	n := t.N()
	q := ising.NewQUBO(n * n)
	constant := 0.0

	// One-hot per city over times, and per time over cities.
	oneHot := func(indices []int) {
		constant += a
		for i, ii := range indices {
			q.AddCoeff(ii, ii, -a)
			for j := i + 1; j < len(indices); j++ {
				q.AddCoeff(ii, indices[j], 2*a)
			}
		}
	}
	buf := make([]int, n)
	for v := 0; v < n; v++ {
		for ti := 0; ti < n; ti++ {
			buf[ti] = t.Index(v, ti)
		}
		oneHot(buf)
	}
	for ti := 0; ti < n; ti++ {
		for v := 0; v < n; v++ {
			buf[v] = t.Index(v, ti)
		}
		oneHot(buf)
	}

	// Distance terms over consecutive time slots (cyclic).
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			d := t.Dist[u][v]
			if d == 0 {
				continue
			}
			for ti := 0; ti < n; ti++ {
				q.AddCoeff(t.Index(u, ti), t.Index(v, (ti+1)%n), b*d)
			}
		}
	}
	return quboIsing(q, constant)
}

// Decode extracts a tour: for each time slot, the chosen city (repaired
// greedily — unassigned slots take the nearest unused city, duplicate
// assignments keep the first). The result is a permutation of cities.
func (t TSP) Decode(spins []int8) []int {
	n := t.N()
	if len(spins) != n*n {
		panic("problems: TSP.Decode length mismatch")
	}
	tour := make([]int, n)
	used := make([]bool, n)
	for ti := range tour {
		tour[ti] = -1
	}
	for ti := 0; ti < n; ti++ {
		for v := 0; v < n; v++ {
			if spins[t.Index(v, ti)] > 0 && !used[v] {
				tour[ti] = v
				used[v] = true
				break
			}
		}
	}
	// Repair: fill empty slots with the nearest unused city to the
	// previous slot's city (or the lowest unused for slot 0).
	for ti := 0; ti < n; ti++ {
		if tour[ti] != -1 {
			continue
		}
		bestV, bestD := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			d := 0.0
			if ti > 0 && tour[ti-1] >= 0 {
				d = t.Dist[tour[ti-1]][v]
			} else {
				d = float64(v)
			}
			if d < bestD {
				bestV, bestD = v, d
			}
		}
		tour[ti] = bestV
		used[bestV] = true
	}
	return tour
}

// Length returns the cyclic tour length.
func (t TSP) Length(tour []int) float64 {
	n := t.N()
	if len(tour) != n {
		panic("problems: TSP.Length length mismatch")
	}
	total := 0.0
	for i := 0; i < n; i++ {
		total += t.Dist[tour[i]][tour[(i+1)%n]]
	}
	return total
}

// ValidTour reports whether tour is a permutation of all cities.
func (t TSP) ValidTour(tour []int) bool {
	if len(tour) != t.N() {
		return false
	}
	seen := make([]bool, t.N())
	for _, v := range tour {
		if v < 0 || v >= t.N() || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}
