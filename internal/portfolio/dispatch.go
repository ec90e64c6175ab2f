package portfolio

import (
	"math"

	"mbrim/internal/core"
	"mbrim/internal/ising"
	"mbrim/internal/lattice"
)

// This file is the structure-based dispatcher: when the caller does
// not name entrants, the portfolio reads the model's row statistics
// off the lattice backend and fields engines known to suit that shape
// (the Snowball-style structure-sensitivity argument — see PAPERS.md
// and DESIGN §15 for the rule table and its rationale).

// Density above which a problem counts as dense (K-graph-like). Well
// above lattice.AutoCSRDensity (5%), which is a storage threshold, not
// a structure one.
const denseThreshold = 0.15

// Degree-CV above which a sparse problem counts as irregular — minor
// embeddings and hub-and-spoke structures have heavy-tailed degree
// distributions, while grids/chimera cells sit near zero.
const irregularCV = 0.5

// Analyze computes the dispatcher's row statistics from the model's
// stored couplings (compressed rows for a sparse problem, so this is
// O(n), not O(n²), where it matters).
func Analyze(m *ising.Model) core.StructureStats {
	n := m.N()
	coup := m.View(lattice.Auto)
	stats := core.StructureStats{N: n, NNZ: coup.NNZ()} // n ≥ 1: it is a Model
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		deg := coup.RowNNZ(i)
		d := float64(deg)
		sum += d
		sumSq += float64(d * d)
		stats.MaxDegree = max(stats.MaxDegree, deg)
	}
	stats.MeanDegree = sum / float64(n)
	if n > 1 {
		stats.Density = float64(stats.NNZ) / float64(n*(n-1))
	}
	if stats.MeanDegree > 0 {
		variance := sumSq/float64(n) - float64(stats.MeanDegree*stats.MeanDegree)
		if variance < 0 {
			variance = 0
		}
		stats.DegreeCV = math.Sqrt(variance) / stats.MeanDegree
	}
	return stats
}

// Dispatch picks a race field from structure statistics. The rules:
//
//   - Dense (density ≥ 15%, the paper's K-graph regime): bifurcation
//     dynamics and annealing shine on all-to-all couplings — dSBM, SA,
//     BRIM.
//   - Sparse and irregular (degree CV ≥ 0.5 — embeddings, hubs): local
//     moves with memory beat dynamics that equilibrate hubs slowly —
//     tabu, SA, and the divide-and-conquer hybrid that exploits the
//     cut structure.
//   - Sparse and regular (grids, chimera cells): the analog dynamics
//     propagate well — BRIM, SA, tabu.
//
// SA appears in every field: it is the robust generalist, and the race
// makes the specialist-vs-generalist bet cheap to hedge. max caps the
// field (default DefaultDispatchEntrants).
func Dispatch(stats core.StructureStats, max int) []core.PortfolioEntrant {
	if max <= 0 {
		max = DefaultDispatchEntrants
	}
	if max > MaxEntrants {
		max = MaxEntrants
	}
	var kinds []core.Kind
	switch {
	case stats.Density >= denseThreshold:
		kinds = []core.Kind{core.DSBM, core.SA, core.BRIM}
	case stats.DegreeCV >= irregularCV:
		kinds = []core.Kind{core.Tabu, core.SA, core.OursDnc}
	default:
		kinds = []core.Kind{core.BRIM, core.SA, core.Tabu}
	}
	if len(kinds) > max {
		kinds = kinds[:max]
	}
	entrants := make([]core.PortfolioEntrant, len(kinds))
	for i, k := range kinds {
		entrants[i] = core.PortfolioEntrant{Kind: string(k)}
	}
	return entrants
}
