package lattice

import (
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// csr is the compressed-sparse-row layout, stored for lanes (sliced
// ELLPACK, four lanes; package doc, "Backends"). Within each
// KernelChunk window the rows are ordered by (entry count, index), and
// each run of four consecutive ordered rows is a lane group; a window
// of r rows is led by (−r) mod 4 empty dummy lanes, so every group has
// four lanes and every group's lanes are ordered by length. Position
// p = 4·group + lane. A group is as wide as its longest (last) lane, and
// its entries are interleaved slot by slot: entry t of lane l is
// cols/vals[4·(start[group]+t) + l], each row's columns ascending. The
// slots past a lane's length hold column 0 and value 0 and are never
// read as entries.
type csr struct {
	n     int
	nnz   int
	order []int32   // order[p]: the row at position p; −1 for a dummy lane
	pos   []int32   // pos[i]: row i's position
	lens  []int32   // lens[p]: the entry count of position p
	start []int     // start[g]: group g's first slot; start[groups] is the slot count
	cols  []int32   // 4 per slot
	vals  []float64 // 4 per slot
}

// newCSR lays out the lane groups of n rows of the given lengths, with
// every slot padding: the caller fills each row's entries through at.
func newCSR(n int, rowLen func(i int) int) *csr {
	if n <= 0 || n > math.MaxInt32-3 { // positions run to n+2, as int32
		panic(fmt.Sprintf("lattice: a compressed layout of %d rows", n))
	}
	places := (n + 3) &^ 3
	c := &csr{
		n:     n,
		order: make([]int32, places),
		pos:   make([]int32, n),
		lens:  make([]int32, places),
		start: make([]int, places/4+1),
	}
	var keys [KernelChunk]uint64
	for w := 0; w < n; w += KernelChunk {
		rows := min(KernelChunk, n-w)
		key := keys[:rows]
		for k := range key {
			m := rowLen(w + k)
			if m < 0 || m > n {
				panic(fmt.Sprintf("lattice: row %d of %d has %d entries", w+k, n, m))
			}
			c.nnz += m
			key[k] = uint64(m)<<32 | uint64(w+k)
		}
		slices.Sort(key)
		p := w
		for ; p < w+(-rows&3); p++ {
			c.order[p] = -1
		}
		for _, kv := range key {
			i := int32(kv)
			c.order[p], c.pos[i], c.lens[p] = i, int32(p), int32(kv>>32)
			p++
		}
	}
	for g := range places / 4 {
		c.start[g+1] = c.start[g] + int(c.lens[4*g+3])
	}
	slots := 4 * c.start[places/4]
	c.cols, c.vals = make([]int32, slots), make([]float64, slots)
	return c
}

// at returns where row i's entries sit: entry t is cols/vals[k + 4t],
// for t < m.
func (c *csr) at(i int) (k, m int) {
	p := int(c.pos[i])
	return 4*c.start[p>>2] + p&3, int(c.lens[p])
}

// fill stores src's entries divided by div, as src.Scan yields them.
// Each row must yield src.RowNNZ entries with columns in [0, n) — the
// lanes gather x[col] unchecked — or fill panics.
func (c *csr) fill(src Coupling, div float64) {
	var i, k, end int
	put := func(j int, v float64) {
		if k == end || uint(j) >= uint(c.n) {
			panic(fmt.Sprintf("lattice: row %d scans past its length or to column %d of %d", i, j, c.n))
		}
		c.cols[k], c.vals[k] = int32(j), v/div
		k += 4
	}
	for ; i < c.n; i++ {
		var m int
		k, m = c.at(i)
		end = k + 4*m
		src.Scan(i, put)
		if k != end {
			panic(fmt.Sprintf("lattice: row %d scans short of its length", i))
		}
	}
}

// FromCSR builds a backend over a compressed-sparse-row triple: every
// column in [0, n), off the diagonal, ascending within its row
// (violations panic). The entries are copied into lane groups; the
// slices are not retained.
func FromCSR(n int, rowStart, cols []int, vals []float64) Coupling {
	if n <= 0 || len(rowStart) != n+1 || len(cols) != len(vals) || rowStart[0] != 0 || rowStart[n] != len(cols) {
		panic(fmt.Sprintf("lattice: FromCSR inconsistent layout (n=%d, rows=%d, nnz=%d/%d)",
			n, len(rowStart), len(cols), len(vals)))
	}
	for i := 0; i < n; i++ {
		if rowStart[i] > rowStart[i+1] {
			panic(fmt.Sprintf("lattice: FromCSR row %d has negative extent", i))
		}
		prev := -1
		for _, j := range cols[rowStart[i]:rowStart[i+1]] {
			if j <= prev || j >= n || j == i {
				panic(fmt.Sprintf("lattice: FromCSR row %d: column %d after %d (columns ascend in [0,%d), off the diagonal)", i, j, prev, n))
			}
			prev = j
		}
	}
	c := newCSR(n, func(i int) int { return rowStart[i+1] - rowStart[i] })
	for i := 0; i < n; i++ {
		k, _ := c.at(i)
		for e := rowStart[i]; e < rowStart[i+1]; e++ {
			c.cols[k], c.vals[k] = int32(cols[e]), vals[e]
			k += 4
		}
	}
	return c
}

func (c *csr) N() int   { return c.n }
func (c *csr) NNZ() int { return c.nnz }

func (c *csr) Kind() Kind { return CSR }

func (c *csr) RowNNZ(i int) int { return int(c.lens[c.pos[i]]) }

func (c *csr) Scan(i int, fn func(j int, v float64)) {
	for k, m := c.at(i); m > 0; k, m = k+4, m-1 {
		fn(int(c.cols[k]), c.vals[k])
	}
}

// walk fills out[i] for row i at position p: base[i] (or +0) plus each
// entry times x[col], ascending, every product and sum rounded on its
// own — the one-row walk, the form that defines the bits csrLanes
// reproduces.
func (c *csr) walk(x, base, out []float64, i, p int) {
	acc := 0.0
	if base != nil {
		acc = base[i]
	}
	k := 4*c.start[p>>2] + p&3
	for m := c.lens[p]; m > 0; m-- {
		acc += float64(c.vals[k] * x[c.cols[k]])
		k += 4
	}
	out[i] = acc
}

// MatVecRange takes each whole window of [lo,hi) a group at a time —
// through csrLanes on an AVX host, four rows per register and two groups
// in flight, else the walk over the same groups — and walks the rows of
// a partial window one by one. The lengths are checked here, in Go: the
// lanes load x, base and out unchecked.
func (c *csr) MatVecRange(x, base, out []float64, lo, hi int) {
	if lo < 0 || hi > c.n || len(x) < c.n || len(out) < hi || (base != nil && len(base) < hi) {
		panic(fmt.Sprintf("lattice: MatVecRange [%d,%d) on n=%d with %d x, %d base, %d out", lo, hi, c.n, len(x), len(base), len(out)))
	}
	for i := lo; i < hi; {
		wEnd := min(i&^(KernelChunk-1)+KernelChunk, c.n)
		if i&(KernelChunk-1) == 0 && hi >= wEnd {
			c.window(x, base, out, i, wEnd)
			i = wEnd
			continue
		}
		for e := min(wEnd, hi); i < e; i++ {
			c.walk(x, base, out, i, int(c.pos[i]))
		}
	}
}

// window fills the rows [w, wEnd) of one whole window: csrLanes takes
// its groups from position lanes on, and the walk everything before — a
// group led by dummy lanes, or every group on a host without AVX.
func (c *csr) window(x, base, out []float64, w, wEnd int) {
	lanes, end := w, w+(wEnd-w+3)&^3
	if !useAVX {
		lanes = end
	} else if (wEnd-w)&3 != 0 {
		lanes += 4
	}
	if lanes < end {
		var b *float64
		if base != nil {
			b = &base[0]
		}
		csrLanes(unsafe.SliceData(c.cols), unsafe.SliceData(c.vals), &c.start[lanes/4], &c.lens[lanes], &c.order[lanes],
			&x[0], b, &out[0], (end-lanes)/4)
	}
	for p := w; p < lanes; p++ {
		if i := c.order[p]; i >= 0 {
			c.walk(x, base, out, int(i), p)
		}
	}
}

func (c *csr) FieldsRange(spins []int8, base, out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		acc := 0.0
		if base != nil {
			acc = base[i]
		}
		for k, m := c.at(i); m > 0; k, m = k+4, m-1 {
			acc += float64(c.vals[k] * float64(spins[c.cols[k]]))
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
		for k, m := c.at(i); m > 0; k, m = k+4, m-1 {
			if j := int(c.cols[k]); j > i {
				acc += float64(c.vals[k] * float64(spins[j]))
			}
		}
		e -= float64(si * acc)
		if base != nil {
			e -= float64(base[i] * si)
		}
	}
	return e
}

func (c *csr) FlipFanout(fields []float64, k int, delta float64) {
	for idx, m := c.at(k); m > 0; idx, m = idx+4, m-1 {
		fields[c.cols[idx]] += float64(c.vals[idx] * delta)
	}
}
