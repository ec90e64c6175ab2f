// Package embed models machines with only local coupling (Sec 4.1.1
// of the paper): architectures like D-Wave's, where each physical
// node couples to a handful of neighbours, so mapping a general
// n-spin problem requires *chains* of physical nodes acting as one
// logical spin. A general graph has O(n²) coupling parameters but the
// machine has O(N) couplers, so the embedding consumes O(n²) physical
// nodes — this is why "a nominal 2000 nodes is equivalent to only
// about 64 effective nodes" [24, 25], and why the paper restricts its
// architecture study to all-to-all machines.
//
// The embedding implemented here is the classic crossbar/TRIAD scheme
// for complete graphs: logical spin i becomes a ferromagnetic chain of
// n−1 physical nodes, one per potential partner; chains i and j touch
// at exactly one physical coupler, which carries J_ij. Every physical
// node has degree ≤ 3 (two chain neighbours, one cross coupler), so
// the physical model is realizable on a bounded-degree substrate.
package embed

import (
	"fmt"
	"math"

	"mbrim/internal/ising"
	"mbrim/internal/lattice"
)

// Embedding is a logical problem mapped onto a local-coupling machine.
type Embedding struct {
	// Logical is the logical spin count n; Physical the embedded model
	// with n(n−1) physical spins.
	Logical  int
	Physical *ising.Model
	// ChainStrength is the ferromagnetic coupling holding each chain
	// together.
	ChainStrength float64
	// chains[i] lists the physical indices of logical spin i's chain.
	chains [][]int
}

// node returns the physical index of chain i's member dedicated to
// partner j (i ≠ j): a row-major layout over ordered pairs.
func node(n, i, j int) int {
	if j > i {
		j--
	}
	return i*(n-1) + j
}

// Complete embeds a dense logical model onto the crossbar scheme.
// chainStrength 0 selects 1 + max_i Σ_j |J_ij| — strong enough that
// breaking a chain never pays at the ground state. Logical biases are
// spread uniformly over each chain. Requires n ≥ 2.
func Complete(m *ising.Model, chainStrength float64) *Embedding {
	n := m.N()
	if n < 2 {
		panic(fmt.Sprintf("embed: Complete needs n >= 2, got %d", n))
	}
	chainStrength = resolveChainStrength(m, chainStrength)
	lat := m.View(lattice.Auto)

	phys := ising.NewBuilder(n * (n - 1))
	e := &Embedding{
		Logical:       n,
		ChainStrength: chainStrength,
		chains:        make([][]int, n),
	}
	for i := 0; i < n; i++ {
		chain := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				chain = append(chain, node(n, i, j))
			}
		}
		e.chains[i] = chain
		// Ferromagnetic path holding the chain together.
		for k := 0; k+1 < len(chain); k++ {
			phys.SetCoupling(chain[k], chain[k+1], chainStrength)
		}
		// Spread the logical bias across the chain so no single member
		// is disproportionately pulled.
		if b := m.Bias(i); b != 0 {
			per := m.Mu() * b / float64(len(chain))
			for _, p := range chain {
				phys.SetBias(p, per)
			}
		}
	}
	// One cross coupler per logical pair.
	for i := 0; i < n; i++ {
		lat.Scan(i, func(j int, v float64) {
			if j > i {
				phys.SetCoupling(node(n, i, j), node(n, j, i), v)
			}
		})
	}
	e.Physical = mustBuild(phys)
	return e
}

// resolveChainStrength returns the chain strength an embedding of m
// uses: the given one, or for 0 the sufficient default 1 + max_i (Σ_j
// |J_ij| + |μh_i|). It panics unless the result is positive.
func resolveChainStrength(m *ising.Model, chainStrength float64) float64 {
	if chainStrength == 0 {
		lat, worst := m.View(lattice.Auto), 0.0
		for i, b := range m.MuH() {
			s := 0.0
			lat.Scan(i, func(_ int, v float64) { s += math.Abs(v) })
			s += math.Abs(b)
			if s > worst {
				worst = s
			}
		}
		chainStrength = worst + 1
	}
	if chainStrength <= 0 {
		panic(fmt.Sprintf("embed: chain strength %v", chainStrength))
	}
	return chainStrength
}

// mustBuild freezes a physical model; its couplings come from a Model
// and a validated chain strength, so an error is a caller's non-finite
// chain strength.
func mustBuild(b *ising.Builder) *ising.Model {
	m, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("embed: %v", err))
	}
	return m
}

// Chains returns the physical indices of each logical chain (do not
// mutate).
func (e *Embedding) Chains() [][]int { return e.chains }

// PhysicalNodes returns the physical spin count, n(n−1).
func (e *Embedding) PhysicalNodes() int { return e.Physical.N() }

// Decode maps a physical state to logical spins by majority vote over
// each chain (ties break to +1).
func (e *Embedding) Decode(phys []int8) []int8 {
	if len(phys) != e.Physical.N() {
		panic("embed: Decode length mismatch")
	}
	out := make([]int8, e.Logical)
	for i, chain := range e.chains {
		sum := 0
		for _, p := range chain {
			sum += int(phys[p])
		}
		if sum >= 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// Encode maps logical spins to the physical state with every chain
// intact.
func (e *Embedding) Encode(logical []int8) []int8 {
	if len(logical) != e.Logical {
		panic("embed: Encode length mismatch")
	}
	phys := make([]int8, e.Physical.N())
	for i, chain := range e.chains {
		for _, p := range chain {
			phys[p] = logical[i]
		}
	}
	return phys
}

// ChainBreaks counts chains whose members disagree — the quality
// hazard unique to embedded operation.
func (e *Embedding) ChainBreaks(phys []int8) int {
	breaks := 0
	for _, chain := range e.chains {
		first := phys[chain[0]]
		for _, p := range chain[1:] {
			if phys[p] != first {
				breaks++
				break
			}
		}
	}
	return breaks
}

// EnergyIdentityOffset returns the constant tying the two models
// together: for any chain-intact physical state,
// physical.Energy = logical.Energy − offset, where the offset is the
// ferromagnetic energy of the intact chains,
// Σ_i (len(chain_i)−1)·ChainStrength.
func (e *Embedding) EnergyIdentityOffset() float64 {
	total := 0.0
	for _, chain := range e.chains {
		total += float64(float64(len(chain)-1) * e.ChainStrength)
	}
	return total
}

// EffectiveCapacity returns the largest complete-graph size this
// scheme fits into `physical` nodes: the biggest n with n(n−1) ≤
// physical. The √N scaling is the paper's Sec 4.1.1 point.
func EffectiveCapacity(physical int) int {
	if physical < 2 {
		return 0
	}
	n := int((1 + math.Sqrt(float64(1+4*physical))) / 2)
	for n*(n-1) > physical {
		n--
	}
	return n
}
