package embed

import (
	"fmt"

	"mbrim/internal/ising"
	"mbrim/internal/lattice"
)

// CompleteOnChimera embeds a dense logical model onto a chimera C_m
// (m×m cells of shore-size couplers) using Choi's cross construction:
// logical variable v, assigned home column c_v = v/shore and position
// k_v = v mod shore, occupies
//
//   - the right-side qubits at position k_v across cell-row c_v (its
//     horizontal arm, joined by the inter-cell horizontal couplers), and
//   - the left-side qubits at position k_v down cell-column c_v (its
//     vertical arm, joined by the vertical couplers),
//
// with the two arms fused in cell (c_v, c_v) through the intra-cell
// coupler. Chains u and v meet in cell (c_u, c_v), where u's
// horizontal arm and v's vertical arm share a cell and an intra-cell
// coupler carries J_uv. Every edge used is a legal chimera coupler, so
// the result is exactly what a D-Wave-style machine would be
// programmed with — and it consumes the entire 2·shore·m² qubits for
// shore·m logical spins, the quadratic cost of Sec 4.1.1.
//
// chainStrength 0 selects the same sufficient default as Complete.
func CompleteOnChimera(m *ising.Model, shore int, chainStrength float64) *Embedding {
	n := m.N()
	if n < 2 {
		panic(fmt.Sprintf("embed: CompleteOnChimera needs n >= 2, got %d", n))
	}
	if shore < 1 {
		panic(fmt.Sprintf("embed: shore %d", shore))
	}
	cells := (n + shore - 1) / shore // grid dimension m
	if cells < 2 {
		cells = 2 // a 1×1 grid has no inter-cell couplers to build arms
	}
	chainStrength = resolveChainStrength(m, chainStrength)

	// Qubit indexing matches Chimera(): ((r·cells+c)·2+side)·shore+k.
	qubit := func(r, c, side, k int) int {
		return ((r*cells+c)*2+side)*shore + k
	}
	phys := ising.NewBuilder(cells * cells * 2 * shore)
	e := &Embedding{
		Logical:       n,
		ChainStrength: chainStrength,
		chains:        make([][]int, n),
	}

	for v := 0; v < n; v++ {
		cv, kv := v/shore, v%shore
		// Horizontal arm: right-side qubits across cell-row cv.
		chain := make([]int, 0, 2*cells)
		for c := 0; c < cells; c++ {
			chain = append(chain, qubit(cv, c, 1, kv))
			if c > 0 {
				phys.SetCoupling(qubit(cv, c-1, 1, kv), qubit(cv, c, 1, kv), chainStrength)
			}
		}
		// Vertical arm: left-side qubits down cell-column cv.
		for r := 0; r < cells; r++ {
			chain = append(chain, qubit(r, cv, 0, kv))
			if r > 0 {
				phys.SetCoupling(qubit(r-1, cv, 0, kv), qubit(r, cv, 0, kv), chainStrength)
			}
		}
		// Fuse the arms in the home cell (intra-cell coupler).
		phys.SetCoupling(qubit(cv, cv, 1, kv), qubit(cv, cv, 0, kv), chainStrength)
		e.chains[v] = chain

		// Spread the logical bias over the chain.
		if b := m.Bias(v); b != 0 {
			per := m.Mu() * b / float64(len(chain))
			for _, p := range chain { // chains are disjoint: one write per qubit
				phys.SetBias(p, per)
			}
		}
	}

	// Cross couplers: chain u's horizontal arm meets chain v's
	// vertical arm in cell (c_u, c_v).
	lat := m.View(lattice.Auto)
	for u := 0; u < n; u++ {
		cu, ku := u/shore, u%shore
		lat.Scan(u, func(v int, j float64) {
			if u > v {
				return
			}
			cv, kv := v/shore, v%shore
			// u horizontal (right side) in cell (cu, cv); v vertical
			// (left side) in the same cell.
			phys.AddCoupling(qubit(cu, cv, 1, ku), qubit(cu, cv, 0, kv), j)
		})
	}
	e.Physical = mustBuild(phys)
	return e
}

// ChimeraLegal reports whether every coupling of the embedding's
// physical model is an edge of the chimera graph it claims to live on
// — the verification a real machine's programmer performs before
// loading weights.
func (e *Embedding) ChimeraLegal(cells, shore int) bool {
	topo := Chimera(cells, cells, shore)
	n := e.Physical.N()
	if n != topo.N() {
		return false
	}
	legal := true
	lat := e.Physical.View(lattice.Auto)
	for i := 0; i < n; i++ {
		lat.Scan(i, func(j int, _ float64) {
			if j > i && topo.Weight(i, j) == 0 {
				legal = false
			}
		})
	}
	return legal
}
