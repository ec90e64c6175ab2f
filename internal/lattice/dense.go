package lattice

import (
	"fmt"
	"math"
)

// dense is the row-major n×n layout. It stores its entries one way,
// never both: as float64s, or — when the matrix is verified symmetric
// and every entry is −1, +0 or +1 — as the two bit planes alone
// (planes.go), 1/32 of the floats. Every Go form reads a planes row as
// the floats it stands for (rows, planes.unpack), zeros included.
type dense struct {
	n    int
	data []float64 // row-major, when the entries are floats; nil with planes
	nnz  int
	sym  bool    // J_ij and J_ji hold the same bits for every i, j; always with planes
	pl   *planes // the entries, when they are ±1 and symmetric; else nil
}

// FromDense builds a backend over a row-major n×n symmetric matrix,
// divided by div as Convert describes. With div 0 or 1 a float layout
// aliases data instead of copying — callers must not mutate it — and a
// matrix whose entries are all −1, +0 or +1 is stored as its planes,
// data not kept. Auto resolves by measured density. Symmetry is
// documented, not trusted: the dense layout compares the stored
// triangles once, and a matrix that is not its own transpose keeps its
// floats and the row-wise results Coupling promises, from the row kernel.
func FromDense(n int, data []float64, kind Kind, div float64) Coupling {
	if n <= 0 || len(data) != n*n {
		panic(fmt.Sprintf("lattice: FromDense with %d entries for n=%d", len(data), n))
	}
	nnz, unit := countEntries(data)
	d := &dense{n: n, data: data, nnz: nnz}
	if Resolve(kind, n, nnz) == CSR {
		return Convert(d, CSR, div)
	}
	d.sym = symmetricBits(n, data)
	if div != 0 && div != 1 {
		return Convert(d, Dense, div)
	}
	if unit && d.sym {
		d.data, d.pl = nil, newPlanes(n, packRows(n, data))
	}
	return d
}

// FromUpper builds the unscaled layout Auto resolves to over a row-major
// n×n matrix that holds its couplings in the strict upper triangle only,
// the diagonal and the lower triangle zero: the array ising.Builder
// fills once a call is not a ±1 set. One pass counts the triangle's
// entries and their ±1-ness. A dense ±1 matrix is then packed into
// planes and mirrored there (UnitUpper.Build's path); any other dense
// matrix is mirrored as floats, tile by tile, so it is symmetric bit for
// bit by construction and neither countEntries nor symmetricBits scans
// it again. FromDense, which takes a raw slice on trust of nothing,
// keeps both. data is owned by the result from here on.
//
// Within a tile the writes run along a row of the lower triangle and the
// reads down a column of the upper one. At a power-of-two n a column's
// 32 lines share one L1 set and evict each other either way, but an
// evicted load line is only fetched again, where an evicted store line
// is written back first (at n = 512 storing down the column is 3.8×
// slower).
func FromUpper(n int, data []float64) Coupling {
	if n <= 0 || len(data) != n*n {
		panic(fmt.Sprintf("lattice: FromUpper with %d entries for n=%d", len(data), n))
	}
	upper, other := 0, uint64(0)
	for i := 0; i < n; i++ {
		for _, v := range data[i*n+i+1 : (i+1)*n] {
			u := math.Float64bits(v)
			upper += nonzero(u)
			other |= notUnit(u)
		}
	}
	d := &dense{n: n, data: data, nnz: 2 * upper, sym: true}
	if Resolve(Auto, n, d.nnz) == CSR {
		mirrorTiles(n, data)
		return Convert(d, CSR, 0)
	}
	if other == 0 {
		words := packRows(n, data)
		mirrorUpper(n, words)
		return fromPlanes(n, words)
	}
	mirrorTiles(n, data)
	return d
}

// mirrorTiles writes the lower triangle of a row-major n×n float matrix
// as the mirror of its upper one (FromUpper).
func mirrorTiles(n int, data []float64) {
	for j0 := 0; j0 < n; j0 += symTile {
		j1 := min(j0+symTile, n)
		for i0 := 0; i0 < j1; i0 += symTile {
			for j := j0; j < j1; j++ {
				row := data[j*n : (j+1)*n]
				for i := i0; i < min(i0+symTile, j); i++ {
					row[i] = data[i*n+j]
				}
			}
		}
	}
}

// symTile is the square tile symmetricBits compares, and FromUpper
// mirrors, at a time: 32×32 float64s from each triangle are 16 KiB, so
// the strided side stays in L1.
const symTile = 32

// symmetricBits reports whether the row-major n×n matrix equals its
// transpose bit for bit — the condition under which a column sweep
// reads the very operands the row walk does. It is a Float64bits
// comparison, so +0 against −0 and two NaNs of different payload are
// both "not symmetric": such a matrix keeps the row kernel.
func symmetricBits(n int, data []float64) bool {
	for i0 := 0; i0 < n; i0 += symTile {
		i1 := min(i0+symTile, n)
		for j0 := i0; j0 < n; j0 += symTile {
			j1 := min(j0+symTile, n)
			for i := i0; i < i1; i++ {
				row := data[i*n : (i+1)*n]
				for j := max(j0, i+1); j < j1; j++ {
					if math.Float64bits(row[j]) != math.Float64bits(data[j*n+i]) {
						return false
					}
				}
			}
		}
	}
	return true
}

func (d *dense) N() int   { return d.n }
func (d *dense) NNZ() int { return d.nnz }

func (d *dense) Kind() Kind { return Dense }

// rows returns rows [i, i+k) as row-major floats: the stored array, or
// the planes unpacked into buf (k·n wide).
func (d *dense) rows(i, k int, buf []float64) []float64 {
	n := d.n
	if d.pl == nil {
		return d.data[i*n : (i+k)*n]
	}
	buf = buf[:k*n]
	for r := 0; r < k; r++ {
		d.pl.unpack(i+r, buf[r*n:(r+1)*n])
	}
	return buf
}

// rowBuf is the scratch rows needs for k rows: none over floats.
func (d *dense) rowBuf(k int) []float64 {
	if d.pl == nil {
		return nil
	}
	return make([]float64, k*d.n)
}

func (d *dense) RowNNZ(i int) int {
	if d.pl != nil {
		return int(d.pl.rowNNZ[i])
	}
	c := 0
	for _, v := range d.data[i*d.n : (i+1)*d.n] {
		if v != 0 {
			c++
		}
	}
	return c
}

func (d *dense) Scan(i int, fn func(j int, v float64)) {
	if d.pl != nil {
		d.pl.scan(i, fn)
		return
	}
	for j, v := range d.data[i*d.n : (i+1)*d.n] {
		if v != 0 {
			fn(j, v)
		}
	}
}

// sweepWidth is the number of output rows one sweep32 call carries
// (eight 4-lane registers; sweep64 carries two widths in eight 8-lane
// ones); sweepTile is how many matrix rows a sweep visits before the
// next outputs take their turn, so that a wide matrix's strided reads
// revisit 64 pages instead of n.
const (
	sweepWidth = 32
	sweepTile  = 64
)

// MatVecRange has two kernels (package doc, "What a kernel may change").
// On an AVX host a bit-symmetric matrix takes the column sweep for the
// 32-wide blocks of [lo,hi): out[i] accumulates J[j][i]·x[j], the row
// walk's operands read from row j where the outputs lie side by side,
// j tiled with the partial sums parked in out. An AVX-512F host sweeps
// the blocks in pairs (sweep64) and a trailing odd block alone (sweep32);
// each output still sums the same products in the same order. Every
// other row — the (hi−lo) mod 32 remainder, any matrix not verified
// symmetric, any other host — is register-blocked four rows at a time
// (dot4), with the (hi−lo) mod 4 rows left over on the one-row walk.
// Both kernels read x after they have written to out: out must not
// alias x. A planes layout takes no sweep: its rows are unpacked four at
// a time for dot4, a Go form kept for correctness, since every engine
// that multiplies floats by floats runs on a float copy (Floats).
func (d *dense) MatVecRange(x, base, out []float64, lo, hi int) {
	n := d.n
	x = x[:n]
	i := lo
	if useAVX && d.data != nil && d.sym && hi-lo >= sweepWidth {
		top := lo + (hi-lo)/sweepWidth*sweepWidth
		if top > n {
			panic(fmt.Sprintf("lattice: MatVecRange [%d,%d) past n=%d", lo, hi, n))
		}
		if base != nil {
			copy(out[lo:top], base[lo:top])
		} else {
			clear(out[lo:top])
		}
		for jt := 0; jt < n; jt += sweepTile {
			rows := min(sweepTile, n-jt)
			b := lo
			if useAVX512 {
				for ; b+2*sweepWidth <= top; b += 2 * sweepWidth {
					sweep64(&d.data[jt*n+b], uintptr(n)*8, &x[jt], rows, &out[b])
				}
			}
			for ; b < top; b += sweepWidth {
				sweep32(&d.data[jt*n+b], uintptr(n)*8, &x[jt], rows, &out[b])
			}
		}
		i = top
	}
	buf := d.rowBuf(4)
	for ; i+4 <= hi; i += 4 {
		var a0, a1, a2, a3 float64
		if base != nil {
			a0, a1, a2, a3 = base[i], base[i+1], base[i+2], base[i+3]
		}
		out[i], out[i+1], out[i+2], out[i+3] = dot4(d.rows(i, 4, buf), x, a0, a1, a2, a3)
	}
	for ; i < hi; i++ {
		row := d.rows(i, 1, buf)
		acc := 0.0
		if base != nil {
			acc = base[i]
		}
		for j := 0; j < n; j++ {
			acc += float64(row[j] * x[j])
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
		a0 += float64(r0[j] * xj)
		a1 += float64(r1[j] * xj)
		a2 += float64(r2[j] * xj)
		a3 += float64(r3[j] * xj)
	}
	return a0, a1, a2, a3
}

// FieldsRange packs the spins once and takes the popcount row wherever
// it is provably bit-identical to the float walk below (planes.field);
// every other row walks, a planes row over its set bits (planes.fieldWalk).
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
		if d.pl != nil {
			out[i] = d.pl.fieldWalk(i, spins, acc)
			continue
		}
		row := d.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			if v := row[j]; v != 0 {
				acc += float64(v * float64(spins[j]))
			}
		}
		out[i] = acc
	}
}

// FlipFanout walks the whole row, zeros included, exactly as the dense
// model's ApplyFlip always has: adding J_kj·d = ±0 to a field that is
// never −0 is the identity, so the result matches the zero-skipping
// backends bit for bit while keeping the dense O(N) cost model.
//
// On an AVX host a planes layout reads row k in lanes when d is ±2, the
// change of a ±1 spin: fanOutLanes adds float64(c_j)·d with c_j = pos −
// neg, which is J_kj itself — +0 for every zero, and a planes layout
// holds no −0 — so each field takes the walk's one addition of the
// walk's very term, and any field, −0 and NaN included, comes out with
// the walk's bits. Any other d walks the planes row as floats.
func (d *dense) FlipFanout(fields []float64, k int, delta float64) {
	if d.pl == nil {
		for j, v := range d.data[k*d.n : (k+1)*d.n] {
			fields[j] += float64(v * delta)
		}
		return
	}
	pos, neg := d.pl.row(k) // k out of range panics here, not in the lanes
	if useAVX && (delta == 2 || delta == -2) {
		rows := [2]int{2 * k * d.pl.words, (2*k + 1) * d.pl.words}
		d.pl.addRows(rows[:], delta, fields[:d.n])
		return
	}
	for j := range fields[:d.n] {
		fields[j] += float64(unit(pos[j>>6], neg[j>>6], uint(j)) * delta)
	}
}

// energy is the float walk every other arm of Energy answers for: per
// row the strict upper triangle in ascending column order, zeros
// included, then the row's two subtractions.
func (d *dense) energy(spins []int8, base []float64) float64 {
	e := 0.0
	buf := d.rowBuf(1)
	for i, s := range spins {
		row := d.rows(i, 1, buf)
		si := float64(s)
		acc := 0.0
		for j := i + 1; j < d.n; j++ {
			acc += float64(row[j] * float64(spins[j]))
		}
		e -= float64(si * acc)
		if base != nil {
			e -= float64(base[i] * si)
		}
	}
	return e
}
