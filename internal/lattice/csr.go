package lattice

import "fmt"

// csr is the compressed-sparse-row layout: row i's nonzeros live at
// [rowStart[i], rowStart[i+1]) of cols/vals with ascending columns.
type csr struct {
	n        int
	rowStart []int
	cols     []int
	vals     []float64
}

// FromCSR builds a backend over an existing compressed-sparse-row
// triple with ascending column order per row (violations panic). The
// slices are aliased and must not be mutated by the caller.
func FromCSR(n int, rowStart, cols []int, vals []float64) Coupling {
	if n <= 0 || len(rowStart) != n+1 || len(cols) != len(vals) || rowStart[n] != len(cols) {
		panic(fmt.Sprintf("lattice: FromCSR inconsistent layout (n=%d, rows=%d, nnz=%d/%d)",
			n, len(rowStart), len(cols), len(vals)))
	}
	for i := 0; i < n; i++ {
		if rowStart[i] > rowStart[i+1] {
			panic(fmt.Sprintf("lattice: FromCSR row %d has negative extent", i))
		}
		for k := rowStart[i] + 1; k < rowStart[i+1]; k++ {
			if cols[k] <= cols[k-1] {
				panic(fmt.Sprintf("lattice: FromCSR row %d columns not ascending", i))
			}
		}
	}
	return &csr{n: n, rowStart: rowStart, cols: cols, vals: vals}
}

func (c *csr) N() int   { return c.n }
func (c *csr) NNZ() int { return len(c.cols) }

func (c *csr) Kind() Kind { return CSR }

func (c *csr) RowNNZ(i int) int { return c.rowStart[i+1] - c.rowStart[i] }

func (c *csr) Scan(i int, fn func(j int, v float64)) {
	for k := c.rowStart[i]; k < c.rowStart[i+1]; k++ {
		fn(c.cols[k], c.vals[k])
	}
}

func (c *csr) MatVecRange(x, base, out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		acc := 0.0
		if base != nil {
			acc = base[i]
		}
		for k := c.rowStart[i]; k < c.rowStart[i+1]; k++ {
			acc += c.vals[k] * x[c.cols[k]]
		}
		out[i] = acc
	}
}

func (c *csr) FieldsRange(spins []int8, base, out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		acc := 0.0
		if base != nil {
			acc = base[i]
		}
		for k := c.rowStart[i]; k < c.rowStart[i+1]; k++ {
			acc += c.vals[k] * float64(spins[c.cols[k]])
		}
		out[i] = acc
	}
}

// energy is ising.Model.Energy's walk with the zero couplings skipped
// (see Energy): the strict upper triangle of each row in ascending
// column order, then the row's two subtractions in the walk's own form.
func (c *csr) energy(spins []int8, base []float64) float64 {
	e := 0.0
	for i, s := range spins {
		si := float64(s)
		acc := 0.0
		for k := c.rowStart[i]; k < c.rowStart[i+1]; k++ {
			if j := c.cols[k]; j > i {
				acc += c.vals[k] * float64(spins[j])
			}
		}
		e -= si * acc
		if base != nil {
			e -= base[i] * si
		}
	}
	return e
}

func (c *csr) FlipFanout(fields []float64, k int, delta float64) {
	for idx := c.rowStart[k]; idx < c.rowStart[k+1]; idx++ {
		fields[c.cols[idx]] += c.vals[idx] * delta
	}
}

func (c *csr) FlipDelta(spins []int8, fields []float64, k int, muH float64) float64 {
	return flipDelta(spins, fields, k, muH)
}
