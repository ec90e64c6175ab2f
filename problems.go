package mbrim

import (
	"io"

	"mbrim/internal/embed"
	"mbrim/internal/exact"
	"mbrim/internal/ising"
	"mbrim/internal/problems"
)

// Problem encodings (Lucas's catalogue of Ising formulations — the
// paper's reference [36]). Each type carries an Ising() encoder, a
// Decode back to the problem domain, and validators; see the package
// documentation of the corresponding methods.
type (
	// PartitionProblem is number partitioning: split numbers into two
	// equal-sum groups.
	PartitionProblem = problems.Partition
	// VertexCoverProblem is minimum vertex cover.
	VertexCoverProblem = problems.VertexCover
	// ColoringProblem is graph k-coloring.
	ColoringProblem = problems.Coloring
	// SATProblem is CNF satisfiability (independent-set reduction).
	SATProblem = problems.SAT
	// SATLiteral is a possibly negated variable in a SAT clause.
	SATLiteral = problems.Literal
	// TSPProblem is the traveling salesman problem.
	TSPProblem = problems.TSP
	// KnapsackProblem is 0/1 knapsack with a one-hot slack register
	// for the capacity inequality.
	KnapsackProblem = problems.Knapsack
)

// ExactResult is the outcome of exhaustive ground-truth search.
type ExactResult = exact.Result

// SolveExact returns the global optimum of a small instance (≤ 30
// spins) by Gray-code enumeration — the ground truth the heuristic
// engines are validated against.
func SolveExact(m *Model) *ExactResult { return exact.Solve(m) }

// ChainEmbedding is a logical problem mapped onto a bounded-degree
// (local-coupling) machine via ferromagnetic chains — the Sec 4.1.1
// regime that motivates all-to-all architectures.
type ChainEmbedding = embed.Embedding

// EmbedComplete embeds a logical model onto the crossbar chain scheme;
// chainStrength 0 selects a provably sufficient default.
func EmbedComplete(m *Model, chainStrength float64) *ChainEmbedding {
	return embed.Complete(m, chainStrength)
}

// EffectiveCapacity returns the largest complete problem a
// local-coupling machine of `physical` nodes can host (√N scaling).
func EffectiveCapacity(physical int) int { return embed.EffectiveCapacity(physical) }

// ChimeraCapacity returns the largest complete graph embeddable on a
// square chimera with the given qubit budget — 2048 qubits at shore 4
// host K_65, the paper's "about 64 effective nodes".
func ChimeraCapacity(qubits, shore int) int { return embed.ChimeraCapacity(qubits, shore) }

// ReadQUBOFile parses qbsolv's .qubo text format.
func ReadQUBOFile(r io.Reader) (*QUBO, error) { return ising.ReadQUBO(r) }
