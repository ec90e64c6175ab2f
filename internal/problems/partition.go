package problems

import (
	"fmt"
	"math"

	"mbrim/internal/ising"
)

// Partition is the number-partitioning problem: split the numbers
// into two groups whose sums are as close as possible. Lucas §2.1:
// H = (Σ aᵢσᵢ)², so the ground energy is the squared imbalance of the
// best achievable split (0 for a perfect partition).
type Partition struct {
	Numbers []float64
}

// Ising returns the model whose energy is E(σ) = (Σ aᵢσᵢ)² − Σ aᵢ²;
// offset is Σ aᵢ², so imbalance² = E + offset exactly.
func (p Partition) Ising() (m *ising.Model, offset float64) {
	requirePositive("len(Numbers)", len(p.Numbers))
	n := len(p.Numbers)
	b := ising.NewBuilder(n)
	for i := 0; i < n; i++ {
		offset += float64(p.Numbers[i] * p.Numbers[i])
		for j := i + 1; j < n; j++ {
			// (Σaσ)² = Σa² + 2Σ_{i<j} aᵢaⱼσᵢσⱼ; with E = −Σ_{i<j}Jσσ the
			// quadratic part needs J = −2aᵢaⱼ.
			b.SetCoupling(i, j, -2*p.Numbers[i]*p.Numbers[j])
		}
	}
	m, err := b.Build()
	if err != nil { // a non-finite number
		panic(fmt.Sprintf("problems: Partition: %v", err))
	}
	return m, offset
}

// Imbalance returns |Σ_{σ=+1} aᵢ − Σ_{σ=−1} aᵢ| for the assignment.
func (p Partition) Imbalance(spins []int8) float64 {
	if len(spins) != len(p.Numbers) {
		panic("problems: Partition.Imbalance length mismatch")
	}
	s := 0.0
	for i, a := range p.Numbers {
		s += float64(a * float64(spins[i]))
	}
	return math.Abs(s)
}

// Decode splits the numbers by spin sign and returns the two groups'
// index lists.
func (p Partition) Decode(spins []int8) (plus, minus []int) {
	if len(spins) != len(p.Numbers) {
		panic("problems: Partition.Decode length mismatch")
	}
	for i, s := range spins {
		if s > 0 {
			plus = append(plus, i)
		} else {
			minus = append(minus, i)
		}
	}
	return plus, minus
}
