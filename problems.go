package mbrim

import (
	"io"

	"mbrim/internal/embed"
	"mbrim/internal/exact"
	"mbrim/internal/ising"
	"mbrim/internal/problems"
	"mbrim/internal/sa"
)

// SAResult reports an Anneal run.
type SAResult = sa.Result

// Anneal runs Isakov-style simulated annealing on a model directly,
// without the Request/Solve envelope. A flip costs what the model
// stores for that spin — O(degree) on a sparse instance.
func Anneal(m *Model, sweeps int, seed uint64) *SAResult {
	return sa.Solve(m, sa.Config{Sweeps: sweeps, Seed: seed})
}

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
	// IndependentSetProblem is maximum independent set.
	IndependentSetProblem = problems.IndependentSet
	// CliqueProblem is maximum clique.
	CliqueProblem = problems.Clique
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

// VerifyLocalOptimum checks that spins attain the claimed energy and
// that no single flip improves it.
func VerifyLocalOptimum(m *Model, spins []int8, energy float64) error {
	return exact.Verify(m, spins, energy)
}

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

// ChimeraGraph returns the chimera topology (rows×cols cells of
// K_{shore,shore} plus inter-cell couplers) of the D-Wave machines the
// paper's capacity numbers refer to.
func ChimeraGraph(rows, cols, shore int) *Graph { return embed.Chimera(rows, cols, shore) }

// ChimeraCapacity returns the largest complete graph embeddable on a
// square chimera with the given qubit budget — 2048 qubits at shore 4
// host K_65, the paper's "about 64 effective nodes".
func ChimeraCapacity(qubits, shore int) int { return embed.ChimeraCapacity(qubits, shore) }

// EmbedCompleteOnChimera embeds a logical model onto the chimera fabric
// with Choi's cross-chain construction; every programmed coupler is a
// legal chimera edge.
func EmbedCompleteOnChimera(m *Model, shore int, chainStrength float64) *ChainEmbedding {
	return embed.CompleteOnChimera(m, shore, chainStrength)
}

// FromQUBO converts a QUBO to an Ising model plus the constant offset
// with Value(x) = Energy(σ) + offset under σ = 2x−1; coefficients that
// give no finite model are an error.
func FromQUBO(q *QUBO) (*Model, float64, error) { return q.ToIsing() }

// ToQUBO converts an Ising model to a QUBO plus the constant offset
// with Energy(σ) = Value(x) + offset.
func ToQUBO(m *Model) (*QUBO, float64) { return ising.FromIsing(m) }

// ReadQUBOFile parses qbsolv's .qubo text format.
func ReadQUBOFile(r io.Reader) (*QUBO, error) { return ising.ReadQUBO(r) }

// WriteQUBOFile emits q in qbsolv's .qubo text format.
func WriteQUBOFile(w io.Writer, q *QUBO) error { return ising.WriteQUBO(w, q) }
