package problems_test

import (
	"fmt"

	"mbrim/internal/exact"
	"mbrim/internal/problems"
)

// ExamplePartition solves a small number-partitioning instance
// exactly.
func ExamplePartition() {
	p := problems.Partition{Numbers: []float64{5, 4, 3, 2, 2}}
	m, offset := p.Ising()
	res := exact.Solve(m)
	fmt.Println(res.Energy+offset == 0, p.Imbalance(res.Spins))
	// Output: true 0
}

// ExampleSAT decides a tiny CNF formula.
func ExampleSAT() {
	s := problems.SAT{
		Vars: 2,
		Clauses: [][]problems.Literal{
			{{Var: 0}, {Var: 1}},
			{{Var: 0, Negated: true}},
		},
	}
	m, _ := s.Ising()
	assign := s.Decode(exact.Solve(m).Spins)
	fmt.Println(s.Satisfied(assign), assign[0], assign[1])
	// Output: true false true
}
