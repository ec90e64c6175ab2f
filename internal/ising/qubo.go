package ising

import "fmt"

// QUBO is a quadratic unconstrained binary optimization instance:
// minimize x^T Q x over x ∈ {0,1}^n. Q is stored dense; only the value
// Q_ij + Q_ji matters for i≠j and the diagonal carries linear terms,
// the usual convention. The paper notes (Sec 2.1) that a QUBO maps to
// Ising by the substitution σ_i = 2 b_i − 1; ToIsing implements exactly
// that, with Offset carrying the constant so objective values agree.
type QUBO struct {
	n int
	q []float64 // row-major n×n
}

// NewQUBO returns an n-variable QUBO with all-zero coefficients.
func NewQUBO(n int) *QUBO {
	if n <= 0 {
		panic(fmt.Sprintf("ising: NewQUBO with n=%d", n))
	}
	return &QUBO{n: n, q: make([]float64, n*n)}
}

// N returns the number of binary variables.
func (q *QUBO) N() int { return q.n }

// Coeff returns Q_ij.
func (q *QUBO) Coeff(i, j int) float64 { return q.q[i*q.n+j] }

// SetCoeff sets Q_ij = v (not symmetrized; i==j sets a linear term).
func (q *QUBO) SetCoeff(i, j int, v float64) { q.q[i*q.n+j] = v }

// AddCoeff adds v to Q_ij.
func (q *QUBO) AddCoeff(i, j int, v float64) { q.q[i*q.n+j] += v }

// Value returns x^T Q x for the given assignment.
func (q *QUBO) Value(x []bool) float64 {
	if len(x) != q.n {
		panic("ising: QUBO Value with wrong assignment length")
	}
	v := 0.0
	for i := 0; i < q.n; i++ {
		if !x[i] {
			continue
		}
		row := q.q[i*q.n : (i+1)*q.n]
		for j := 0; j < q.n; j++ {
			if x[j] {
				v += row[j]
			}
		}
	}
	return v
}

// ToIsing converts the QUBO to an Ising model and the constant offset
// such that for any assignment, Value(x) = model.Energy(σ) + offset
// with σ_i = 2 x_i − 1. Coefficients that do not give a finite model
// (a NaN, or terms whose sum overflows) are an error.
func (q *QUBO) ToIsing() (m *Model, offset float64, err error) {
	b := NewBuilder(q.n)
	h := make([]float64, q.n)
	for i := 0; i < q.n; i++ {
		ci := q.Coeff(i, i)
		offset += ci / 2
		h[i] -= ci / 2
		for j := i + 1; j < q.n; j++ {
			// Only the pair weight Q_ij + Q_ji is observable in x^T Q x.
			pair := q.Coeff(i, j) + q.Coeff(j, i)
			if pair == 0 {
				continue
			}
			offset += pair / 4
			h[i] -= pair / 4
			h[j] -= pair / 4
			b.SetCoupling(i, j, -pair/4)
		}
	}
	for i, v := range h {
		b.SetBias(i, v)
	}
	m, err = b.Build()
	return m, offset, err
}

// FromIsing converts an Ising model into an equivalent QUBO with
// offset such that model.Energy(σ) = qubo.Value(x) + offset under
// x = (σ+1)/2. It is the inverse direction of ToIsing.
func FromIsing(m *Model) (q *QUBO, offset float64) {
	// E(σ) = -Σ_{i<j} J σσ - μ Σ h σ with σ = 2x-1:
	//   -J σiσj = -4J xixj + 2J xi + 2J xj - J
	//   -μh σi  = -2μh xi + μh
	q = NewQUBO(m.N())
	offset = 0
	n := m.N()
	for i := 0; i < n; i++ {
		q.AddCoeff(i, i, -2*m.Mu()*m.Bias(i))
		offset += m.Mu() * m.Bias(i)
		m.c.Scan(i, func(j int, jij float64) {
			if j < i {
				return
			}
			q.AddCoeff(i, j, -4*jij)
			q.AddCoeff(i, i, 2*jij)
			q.AddCoeff(j, j, 2*jij)
			offset -= jij
		})
	}
	return q, offset
}
