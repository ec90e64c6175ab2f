// Package exact provides ground-truth solvers for small Ising
// instances. The test suites use them to validate every heuristic
// engine against true optima, and the problem-encoding library uses
// them to verify that reductions preserve optimal solutions.
//
// Solve enumerates all 2^(n-1) states (σ → −σ symmetry halves the
// space when there are no biases; with biases the full 2^n is walked)
// in Gray-code order, so consecutive states differ by one spin and the
// energy updates in O(N) per state via the cached local fields.
// Practical to about n = 26 on a laptop.
package exact

import (
	"fmt"
	"math"
	"math/bits"

	"mbrim/internal/ising"
)

// MaxN is the largest instance Solve accepts. 2^30 states with O(N)
// updates is already minutes of work; anything larger is a bug in the
// caller, not a patience problem.
const MaxN = 30

// Result is the exact optimum of an instance.
type Result struct {
	Spins  []int8
	Energy float64
	// States is the number of states visited.
	States uint64
	// Degenerate reports whether more than one state attains the
	// optimum (the mirrored state does not count).
	Degenerate bool
}

// Solve returns the global minimum-energy state by exhaustive
// Gray-code enumeration. It panics if the model has more than MaxN
// spins.
func Solve(m *ising.Model) *Result {
	n := m.N()
	if n > MaxN {
		panic(fmt.Sprintf("exact: %d spins exceeds MaxN=%d", n, MaxN))
	}
	spins := make([]int8, n)
	for i := range spins {
		spins[i] = -1
	}
	fields := m.LocalFields(spins, nil)
	energy := m.EnergyFromFields(spins, fields)

	best := ising.CopySpins(spins)
	bestEnergy := energy
	degenerate := false

	// With zero biases, E(σ) = E(−σ): walking half the space suffices.
	half := true
	for i := 0; i < n; i++ {
		if m.Bias(i) != 0 {
			half = false
			break
		}
	}
	total := uint64(1) << uint(n)
	if half && n > 0 {
		total >>= 1
	}

	res := &Result{States: total}
	for i := uint64(1); i < total; i++ {
		// Gray code: state g(i) differs from g(i-1) in bit tz(i).
		k := bits.TrailingZeros64(i)
		delta := m.FlipDelta(spins, fields, k)
		m.ApplyFlip(spins, fields, k)
		energy += delta
		switch {
		case energy < bestEnergy-1e-12:
			bestEnergy = energy
			copy(best, spins)
			degenerate = false
		case math.Abs(energy-bestEnergy) <= 1e-12:
			degenerate = true
		}
	}
	res.Spins = best
	res.Energy = bestEnergy
	res.Degenerate = degenerate
	return res
}

// Verify checks that the claimed spins attain the claimed energy and
// that no single flip improves it (local optimality — a cheap sanity
// check usable at sizes where Solve is not).
func Verify(m *ising.Model, spins []int8, energy float64) error {
	if got := m.Energy(spins); math.Abs(got-energy) > 1e-9 {
		return fmt.Errorf("exact: claimed energy %v, spins give %v", energy, got)
	}
	fields := m.LocalFields(spins, nil)
	for k := 0; k < m.N(); k++ {
		if d := m.FlipDelta(spins, fields, k); d < -1e-9 {
			return fmt.Errorf("exact: flip of spin %d improves energy by %v — not even locally optimal", k, -d)
		}
	}
	return nil
}
