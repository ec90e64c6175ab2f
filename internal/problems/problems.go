// Package problems provides Ising encodings of classic NP-complete
// problems, following Lucas's catalogue ("Ising formulations of many
// NP problems", reference [36] of the paper). The paper's premise is
// that an Ising machine is a general accelerator precisely because
// every problem in the Karp set has such a formulation; this package
// makes that concrete for the library:
//
//   - number partitioning (Partition)
//   - minimum vertex cover (VertexCover)
//   - maximum independent set (IndependentSet)
//   - graph k-coloring (Coloring)
//   - boolean satisfiability (SAT, via the independent-set reduction)
//   - traveling salesman (TSP)
//
// Every encoding follows the same contract: a problem value exposes an
// Ising() method returning the model (and, where meaningful, a
// constant offset such that objective = energy + offset), a Decode
// method mapping a spin assignment back to the problem domain, and
// validators/objectives on the decoded solution. Penalty weights
// default to values that make constraint violations strictly
// unprofitable for the instance at hand; they can be overridden.
package problems

import (
	"fmt"

	"mbrim/internal/ising"
)

// requirePositive panics with a uniform message when a sizing argument
// is out of range — encodings are programmer-driven, so these are
// contract violations, not runtime errors.
func requirePositive(name string, v int) {
	if v <= 0 {
		panic(fmt.Sprintf("problems: %s must be positive, got %d", name, v))
	}
}

// quboIsing converts an encoder's QUBO and adds the encoder's constant
// to the offset. Weights so large that the model is not finite panic,
// like every other malformed instance in this package.
func quboIsing(q *ising.QUBO, constant float64) (*ising.Model, float64) {
	m, offset, err := q.ToIsing()
	if err != nil {
		panic(fmt.Sprintf("problems: %v", err))
	}
	return m, offset + constant
}
