package ising

import "fmt"

// This file implements the bipartition rewrite of Eq. 3 in the paper:
// an n-spin problem splits into sub-problems (J_u, g_u) and (J_l, g_l)
// where the effective biases fold the cross-coupling terms with the
// *state* of the other partition:
//
//	g_u = μ h_u + J_× σ_l        g_l = μ h_l + J_×^T σ_u
//
// With the single-pair-count energy convention used throughout this
// package, the exact identity is
//
//	E(σ) = E_u(σ_u) + E_l(σ_l) − E_×(σ)
//
// where E_× = −Σ_{i∈u, j∈l} J_ij σ_i σ_j is counted once in each
// sub-problem. Because E(σ) − E_u(σ_u) is constant in σ_u for a frozen
// σ_l, minimizing the sub-problem minimizes the global energy — which
// is why divide-and-conquer works at all, and the dependence of g on
// the frozen state is why it parallelizes so poorly (Sec 3.3).

// SubProblem is one side of a bipartition: a self-contained Ising model
// over the selected spins whose biases absorb the frozen complement,
// plus the index map back into the parent problem.
type SubProblem struct {
	// Model is the extracted sub-model. Its bias vector holds g (with
	// μ = 1), so Model.Energy on local spins is E_u as defined above.
	Model *Model
	// Index maps local spin positions to parent positions.
	Index []int
	// GlueOps counts the multiply-accumulate operations spent forming
	// the effective biases — the "glue computation" of Sec 3.3 whose
	// cost caps divide-and-conquer speedup.
	GlueOps int64
}

// Extract builds the sub-problem over the parent indices in sub, with
// the complement's spins frozen at the given global assignment. The
// indices must be distinct and in range; spins must cover the parent.
// The glue scan iterates only the nonzeros of each sub-spin's row —
// O(degree) per spin over compressed rows — and GlueOps counts nonzero
// cross terms, whatever the layout.
func Extract(parent *Model, sub []int, spins []int8) *SubProblem {
	n := parent.N()
	if len(spins) != n {
		panic("ising: Extract with wrong spin vector length")
	}
	inSub := make([]int, n) // 0 = not in sub, else local index + 1
	for local, g := range sub {
		if g < 0 || g >= n {
			panic(fmt.Sprintf("ising: Extract index %d out of range", g))
		}
		if inSub[g] != 0 {
			panic(fmt.Sprintf("ising: Extract duplicate index %d", g))
		}
		inSub[g] = local + 1
	}
	sp := &SubProblem{Index: append([]int(nil), sub...)}
	b := NewBuilder(len(sub))
	for local, g := range sub {
		gi := parent.muH[g]
		parent.c.Scan(g, func(j int, v float64) {
			if lj := inSub[j]; lj != 0 {
				if lj-1 > local {
					b.SetCoupling(local, lj-1, v)
				}
			} else {
				// Cross term: fold J_ij σ_j into the effective bias.
				gi += v * float64(spins[j])
				sp.GlueOps++
			}
		})
		b.SetBias(local, gi)
	}
	sp.Model = b.mustBuild()
	return sp
}

// Project writes the sub-problem's local spins back into the global
// assignment.
func (sp *SubProblem) Project(local []int8, global []int8) {
	if len(local) != len(sp.Index) {
		panic("ising: Project with wrong local spin length")
	}
	for i, g := range sp.Index {
		global[g] = local[i]
	}
}

// Gather extracts the sub-problem's spins from a global assignment.
func (sp *SubProblem) Gather(global []int8) []int8 {
	local := make([]int8, len(sp.Index))
	for i, g := range sp.Index {
		local[i] = global[g]
	}
	return local
}

// CrossEnergy returns E_× = −Σ J_ij σ_i σ_j over pairs that straddle
// the bipartition defined by membership in sub (as a set of parent
// indices). Together with the two sub-problem energies it reconstructs
// the global energy: E = E_u + E_l − E_×.
func CrossEnergy(parent *Model, sub []int, spins []int8) float64 {
	n := parent.N()
	mark := make([]bool, n)
	for _, g := range sub {
		mark[g] = true
	}
	e := 0.0
	for i := 0; i < n; i++ {
		if !mark[i] {
			continue
		}
		si := float64(spins[i])
		parent.c.Scan(i, func(j int, v float64) {
			if !mark[j] {
				e -= v * si * float64(spins[j])
			}
		})
	}
	return e
}

// Complement returns the parent indices not present in sub, in order.
func Complement(n int, sub []int) []int {
	mark := make([]bool, n)
	for _, g := range sub {
		mark[g] = true
	}
	out := make([]int, 0, n-len(sub))
	for i := 0; i < n; i++ {
		if !mark[i] {
			out = append(out, i)
		}
	}
	return out
}
