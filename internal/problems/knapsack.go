package problems

import (
	"fmt"

	"mbrim/internal/ising"
)

// Knapsack is the 0/1 knapsack problem: choose items maximizing total
// value subject to total weight ≤ Capacity. Lucas §5.2 handles the
// inequality with a one-hot auxiliary register y_1..y_W ("the total
// weight is exactly w"):
//
//	H = A(1 − Σ_w y_w)² + A(Σ_w w·y_w − Σ_α w_α x_α)² − B Σ_α v_α x_α
//
// with A > B·max(v) so constraint violations never pay. Integer
// weights are required; the encoding uses Capacity auxiliary binary
// variables, so it is meant for modest capacities (the scaling cost of
// inequality constraints is the instructive part).
type Knapsack struct {
	// Weights and Values describe the items (same length, positive).
	Weights []int
	Values  []float64
	// Capacity is the weight budget (positive).
	Capacity int
	// A is the constraint penalty; zero selects 2·B·max(v)+1. B is the
	// value reward scale; zero selects 1.
	A, B float64
}

func (k Knapsack) validate() {
	if len(k.Weights) == 0 || len(k.Weights) != len(k.Values) {
		panic(fmt.Sprintf("problems: Knapsack with %d weights, %d values", len(k.Weights), len(k.Values)))
	}
	requirePositive("Capacity", k.Capacity)
	for i, w := range k.Weights {
		if w <= 0 {
			panic(fmt.Sprintf("problems: Knapsack weight %d = %d", i, w))
		}
		if k.Values[i] <= 0 {
			panic(fmt.Sprintf("problems: Knapsack value %d = %v", i, k.Values[i]))
		}
	}
}

func (k Knapsack) weights() (a, b float64) {
	b = k.B
	if b == 0 {
		b = 1
	}
	maxV := 0.0
	for _, v := range k.Values {
		if v > maxV {
			maxV = v
		}
	}
	a = k.A
	if a == 0 {
		a = float64(2*b*maxV) + 1
	}
	return a, b
}

// Items returns the item count; Spins the total variable count
// (items + Capacity slack bits). Item α is variable α; slack bit for
// weight w (1-based) is variable Items()+w−1.
func (k Knapsack) Items() int { return len(k.Weights) }

// Spins returns the total binary-variable count of the encoding.
func (k Knapsack) Spins() int { return len(k.Weights) + k.Capacity }

// Ising returns the model and offset with H(x) = E(σ) + offset. At a
// feasible optimum, H = −B·(total value), so the achieved value is
// −(E+offset)/B.
func (k Knapsack) Ising() (m *ising.Model, offset float64) {
	k.validate()
	a, b := k.weights()
	items := k.Items()
	total := k.Spins()
	q := ising.NewQUBO(total)
	constant := 0.0

	slack := func(w int) int { return items + w - 1 } // w in 1..Capacity

	// A(1 − Σ y)²: one-hot over the slack register.
	constant += a
	for w := 1; w <= k.Capacity; w++ {
		q.AddCoeff(slack(w), slack(w), -a)
		for w2 := w + 1; w2 <= k.Capacity; w2++ {
			q.AddCoeff(slack(w), slack(w2), 2*a)
		}
	}

	// A(Σ w·y_w − Σ w_α x_α)²: expand the square. Let S = Σ c_i z_i
	// with c = +w for slacks and −w_α for items; then S² =
	// Σ c_i² z_i + 2 Σ_{i<j} c_i c_j z_i z_j.
	coeff := make([]float64, total)
	for α, w := range k.Weights {
		coeff[α] = -float64(w)
	}
	for w := 1; w <= k.Capacity; w++ {
		coeff[slack(w)] = float64(w)
	}
	for i := 0; i < total; i++ {
		q.AddCoeff(i, i, a*coeff[i]*coeff[i])
		for j := i + 1; j < total; j++ {
			if coeff[i] != 0 && coeff[j] != 0 {
				q.AddCoeff(i, j, 2*a*coeff[i]*coeff[j])
			}
		}
	}

	// −B Σ v x: the objective.
	for α, v := range k.Values {
		q.AddCoeff(α, α, -b*v)
	}

	return quboIsing(q, constant)
}

// Decode returns the chosen item indices, repaired to feasibility by
// dropping the lowest value-per-weight items until the load fits.
func (k Knapsack) Decode(spins []int8) []int {
	if len(spins) != k.Spins() {
		panic("problems: Knapsack.Decode length mismatch")
	}
	chosen := make([]bool, k.Items())
	load := 0
	for α := 0; α < k.Items(); α++ {
		if spins[α] > 0 {
			chosen[α] = true
			load += k.Weights[α]
		}
	}
	for load > k.Capacity {
		worst, worstRatio := -1, 0.0
		for α, in := range chosen {
			if !in {
				continue
			}
			ratio := k.Values[α] / float64(k.Weights[α])
			if worst == -1 || ratio < worstRatio {
				worst, worstRatio = α, ratio
			}
		}
		chosen[worst] = false
		load -= k.Weights[worst]
	}
	var out []int
	for α, in := range chosen {
		if in {
			out = append(out, α)
		}
	}
	return out
}

// TotalWeight and TotalValue evaluate a selection.
func (k Knapsack) TotalWeight(items []int) int {
	w := 0
	for _, α := range items {
		w += k.Weights[α]
	}
	return w
}

// TotalValue sums the selected items' values.
func (k Knapsack) TotalValue(items []int) float64 {
	v := 0.0
	for _, α := range items {
		v += k.Values[α]
	}
	return v
}

// Feasible reports whether the selection fits the capacity.
func (k Knapsack) Feasible(items []int) bool {
	return k.TotalWeight(items) <= k.Capacity
}
