package lattice

import "fmt"

// dense is the row-major n×n layout.
type dense struct {
	n    int
	data []float64 // row-major, symmetric, zero diagonal
	nnz  int
	pl   *planes // non-nil iff unscaled and every entry is −1, 0 or +1
}

// FromDense builds a backend over a row-major n×n symmetric matrix.
// div, when nonzero and not 1, divides every entry — the resistor
// normalization the BRIM machines apply (Ĵ = J/scale); division, not
// multiplication by a reciprocal, so the stored values match the
// historical per-engine loops bit for bit. With div 0 or 1 the dense
// layout aliases data instead of copying — callers must not mutate it.
// Auto resolves by measured density. An unscaled dense layout whose
// entries are all −1, 0 or +1 also gets the ±1 bit planes (see planes).
func FromDense(n int, data []float64, kind Kind, div float64) Coupling {
	if n <= 0 || len(data) != n*n {
		panic(fmt.Sprintf("lattice: FromDense with %d entries for n=%d", len(data), n))
	}
	nnz, unit := countEntries(data)
	switch Resolve(kind, n, nnz) {
	case CSR:
		return csrFromDense(n, data, nnz, div)
	default:
		d := &dense{n: n, data: scaleDense(data, div), nnz: nnz}
		if unit && (div == 0 || div == 1) {
			d.pl = newPlanes(n, data)
		}
		return d
	}
}

// scaleDense returns data/div, aliasing data when div is 0 or 1.
func scaleDense(data []float64, div float64) []float64 {
	if div == 0 || div == 1 {
		return data
	}
	scaled := make([]float64, len(data))
	for i, v := range data {
		scaled[i] = v / div
	}
	return scaled
}

func (d *dense) N() int   { return d.n }
func (d *dense) NNZ() int { return d.nnz }

func (d *dense) Kind() Kind { return Dense }

func (d *dense) row(i int) []float64 { return d.data[i*d.n : (i+1)*d.n] }

func (d *dense) RowNNZ(i int) int {
	c := 0
	for _, v := range d.row(i) {
		if v != 0 {
			c++
		}
	}
	return c
}

func (d *dense) Scan(i int, fn func(j int, v float64)) {
	for j, v := range d.row(i) {
		if v != 0 {
			fn(j, v)
		}
	}
}

// MatVecRange is register-blocked four rows at a time (dot4); the
// (hi−lo) mod 4 remainder rows take the one-row walk. A block reads all
// of x before any of its rows is stored: out must not alias x.
func (d *dense) MatVecRange(x, base, out []float64, lo, hi int) {
	n := d.n
	x = x[:n]
	i := lo
	for ; i+4 <= hi; i += 4 {
		var a0, a1, a2, a3 float64
		if base != nil {
			a0, a1, a2, a3 = base[i], base[i+1], base[i+2], base[i+3]
		}
		out[i], out[i+1], out[i+2], out[i+3] = dot4(d.data[i*n:(i+4)*n], x, a0, a1, a2, a3)
	}
	for ; i < hi; i++ {
		row := d.data[i*n : (i+1)*n]
		acc := 0.0
		if base != nil {
			acc = base[i]
		}
		for j := 0; j < n; j++ {
			acc += row[j] * x[j]
		}
		out[i] = acc
	}
}

// dot4 adds the dot products of four consecutive len(x)-wide rows of
// blk with x to a0..a3: one load of x[j] for the four rows, one
// accumulator each, each adding row[j]*x[j] in ascending j in the
// one-row walk's expression form, so every result keeps that walk's bits
// (the package doc says why that matters and why four chains are faster
// than one). It is a function of its own because, inlined into the row
// loop, the register allocator spills the column index every iteration;
// the rows are resliced to len(x) so the loop carries no bounds checks.
func dot4(blk, x []float64, a0, a1, a2, a3 float64) (float64, float64, float64, float64) {
	n := len(x)
	r0 := blk[:n]
	r1 := blk[n:][:n]
	r2 := blk[2*n:][:n]
	r3 := blk[3*n:][:n]
	for j, xj := range x {
		a0 += r0[j] * xj
		a1 += r1[j] * xj
		a2 += r2[j] * xj
		a3 += r3[j] * xj
	}
	return a0, a1, a2, a3
}

// FieldsRange packs the spins once and takes the popcount row wherever
// it is provably bit-identical to the float walk below (planes.field);
// every other row — and every row of a matrix without planes — walks.
func (d *dense) FieldsRange(spins []int8, base, out []float64, lo, hi int) {
	n := d.n
	spins = spins[:n]
	var stack [packStackWords]uint64
	up := d.pl.pack(spins, stack[:0])
	for i := lo; i < hi; i++ {
		acc := 0.0
		if base != nil {
			acc = base[i]
		}
		if up != nil {
			if v, ok := d.pl.field(i, up, acc); ok {
				out[i] = v
				continue
			}
		}
		row := d.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			if v := row[j]; v != 0 {
				acc += v * float64(spins[j])
			}
		}
		out[i] = acc
	}
}

// FlipFanout walks the whole row, zeros included, exactly as the dense
// model's ApplyFlip always has: adding J_kj·d = ±0 to a field that is
// never −0 is the identity, so the result matches the zero-skipping
// backends bit for bit while keeping the dense O(N) cost model.
func (d *dense) FlipFanout(fields []float64, k int, delta float64) {
	for j, v := range d.row(k) {
		fields[j] += v * delta
	}
}

func (d *dense) FlipDelta(spins []int8, fields []float64, k int, muH float64) float64 {
	return flipDelta(spins, fields, k, muH)
}
