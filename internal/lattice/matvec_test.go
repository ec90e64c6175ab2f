package lattice

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"mbrim/internal/rng"
)

// refMatVec is the one-row ascending-column walk both dense kernels
// must reproduce bit for bit — dense.MatVecRange as it stood before the
// four-row blocks and the column sweep, kept here as the reference.
func refMatVec(n int, data, x, base, out []float64, lo, hi int) {
	x = x[:n]
	for i := lo; i < hi; i++ {
		row := data[i*n : (i+1)*n]
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

// refCSRWalk is the one-row walk over a compressed-row triple that
// csr.MatVecRange must reproduce bit for bit — the CSR kernel as it
// stood before the lane groups, kept here as the reference.
func refCSRWalk(rowStart, cols []int, vals, x, base, out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		acc := 0.0
		if base != nil {
			acc = base[i]
		}
		for k := rowStart[i]; k < rowStart[i+1]; k++ {
			acc += vals[k] * x[cols[k]]
		}
		out[i] = acc
	}
}

// walker is a reference for checkMatVec: out[lo:hi] by a one-row walk.
type walker func(x, base, out []float64, lo, hi int)

func denseWalk(n int, data []float64) walker {
	return func(x, base, out []float64, lo, hi int) { refMatVec(n, data, x, base, out, lo, hi) }
}

func csrWalk(rowStart, cols []int, vals []float64) walker {
	return func(x, base, out []float64, lo, hi int) { refCSRWalk(rowStart, cols, vals, x, base, out, lo, hi) }
}

// sameBits is Float64bits equality, except that any NaN equals any NaN:
// which operand's payload survives an add or multiply of two different
// NaNs is the instruction's (and the register allocator's) choice, on
// the row walk as much as on the blocks, so no kernel can promise it.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// specials are the values where a reordered, split or fused sum would
// show first: both zeros, NaN, both infinities, subnormals, and a pair
// whose product needs the rounding an FMA would skip.
var specials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040,
	1 + 0x1p-30, 1e300, -1e300,
}

// arm is one setting of the kernel switches.
type arm struct {
	name        string
	avx, avx512 bool
}

// arms are the kernel switches this host can prove, widest first: as
// detected, then the ymm lanes alone (an AVX-512F host proves sweep32
// beside sweep64), then the Go forms (an AVX host proves the portable
// walks too). A host without AVX has only the last.
var arms = func() []arm {
	var a []arm
	if useAVX512 {
		a = append(a, arm{"zmm", true, true})
	}
	if useAVX {
		a = append(a, arm{"ymm", true, false})
	}
	return append(a, arm{"go", false, false})
}()

// armName names the arm the switches are set to now.
func armName() string {
	for _, a := range arms {
		if a.avx == useAVX && a.avx512 == useAVX512 {
			return a.name
		}
	}
	return "?"
}

// eachArm runs fn once on every arm and restores the switches: the
// proofs of the two kernels useAVX512 splits, the dense mat-vec and the
// latch stage.
func eachArm(fn func()) { runArms(arms, fn) }

// lanesAndGo runs fn on the widest arm and on the Go forms: the proofs
// of the kernels useAVX alone dispatches, which would run the widest
// arm's code again on the ymm one.
func lanesAndGo(fn func()) {
	as := arms
	if len(as) > 2 {
		as = []arm{as[0], as[len(as)-1]}
	}
	runArms(as, fn)
}

func runArms(as []arm, fn func()) {
	avx, avx512 := useAVX, useAVX512
	defer func() { useAVX, useAVX512 = avx, avx512 }()
	for _, a := range as {
		useAVX, useAVX512 = a.avx, a.avx512
		fn()
	}
}

// TestKernelArms logs the arms the proofs run on this host, so a runner
// without AVX-512F (or AVX) shows in the log rather than passing on
// fewer arms in silence.
func TestKernelArms(t *testing.T) {
	var names []string
	for _, a := range arms {
		names = append(names, a.name)
	}
	if useAVX512 && !useAVX {
		t.Fatal("useAVX512 without useAVX")
	}
	t.Logf("kernel arms: %s", strings.Join(names, " "))
}

// checkMatVec compares MatVecRange over [lo,hi) with the row walk ref
// (over the view's entries as the walk should see them), on every
// arm, and checks that nothing outside the range is written.
func checkMatVec(t *testing.T, c Coupling, n int, ref walker, x, base []float64, lo, hi int) {
	t.Helper()
	const poison = 12345.5
	got, want := make([]float64, n), make([]float64, n)
	for i := range want {
		want[i] = poison
	}
	ref(x, base, want, lo, hi)
	eachArm(func() {
		for i := range got {
			got[i] = poison
		}
		c.MatVecRange(x, base, got, lo, hi)
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("n=%d [%d,%d) %s row %d: got %v (%#x), row walk %v (%#x)", n, lo, hi, armName(), i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	})
}

// residueRanges returns (lo,hi) pairs covering every pair of residues
// mod 4 that n admits — so every dot4 block count and every remainder
// length — then the column sweep's edges: a start on a 64-row offset,
// on a 32-row one between them, and one past each, by every width
// around one 32-row block and one and two 64-row blocks (so a pair of
// blocks with and without a trailing one) and the rest of the matrix;
// plus the empty range.
func residueRanges(n int) [][2]int {
	var rs [][2]int
	for lo := 0; lo < 4 && lo <= n; lo++ {
		for back := 0; back < 4; back++ {
			if hi := n - back; hi >= lo {
				rs = append(rs, [2]int{lo, hi})
			}
		}
	}
	for _, lo := range []int{0, 1, 31, 32, 33, 64, 65, 96} {
		for _, w := range []int{0, 1, 31, 32, 33, 63, 64, 65, 96, 127, 128, 129, n - lo} {
			if w >= 0 && lo+w <= n {
				rs = append(rs, [2]int{lo, lo + w})
			}
		}
	}
	return append(rs, [2]int{n / 2, n / 2})
}

func TestMatVecBlockedMatchesRowWalk(t *testing.T) {
	const div = 3.7
	// 515 is past two KernelChunks and is nine 64-row sweep tiles, the
	// last partial; the rest are the block-edge sizes of dot4 (4) and of
	// the sweeps (32, 64, 128).
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 31, 32, 33, 63, 64, 65, 95, 96, 97, 127, 128, 129, 160, 192, 515} {
		r := rng.New(uint64(n) + 70)
		unit := randSym(n, 0.8, uint64(n)+71)
		weighted := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := r.Float64()*4 - 2
				if r.Intn(5) == 0 {
					v = specials[r.Intn(len(specials))]
				}
				weighted[i*n+j], weighted[j*n+i] = v, v
			}
		}
		scaled := make([]float64, n*n)
		for i, v := range weighted {
			scaled[i] = v / div
		}
		views := []struct {
			name string
			c    Coupling
			ref  []float64
		}{
			{"unscaled", FromDense(n, weighted, Dense, 0), weighted},
			{"scaled", FromDense(n, weighted, Dense, div), scaled},
			{"planes", FromDense(n, unit, Dense, 0), unit},
		}
		if views[2].c.(*dense).pl == nil {
			t.Fatalf("n=%d: ±1 matrix built no planes", n)
		}

		plain := randVec(n, uint64(n)+72)
		spiked := randVec(n, uint64(n)+73)
		for i := range spiked {
			if i%3 == 0 {
				spiked[i] = specials[(i/3)%len(specials)]
			}
		}
		finite := randVec(n, uint64(n)+74)
		negZero := randVec(n, uint64(n)+75)
		for i := range negZero {
			if i%2 == 0 {
				negZero[i] = math.Copysign(0, -1)
			}
		}
		for _, v := range views {
			for _, x := range [][]float64{plain, spiked} {
				for _, base := range [][]float64{nil, finite, negZero} {
					for _, rg := range residueRanges(n) {
						checkMatVec(t, v.c, n, denseWalk(n, v.ref), x, base, rg[0], rg[1])
					}
					walk := make([]float64, n)
					refMatVec(n, v.ref, x, base, walk, 0, n)
					eachArm(func() {
						out := make([]float64, n)
						MatVec(v.c, x, base, out, 1)
						for i := range out {
							if !sameBits(out[i], walk[i]) {
								t.Fatalf("n=%d %s %s row %d: MatVec %v, row walk %v", n, v.name, armName(), i, out[i], walk[i])
							}
						}
					})
				}
			}
		}
	}
}

// TestMatVecRangeWritesOnlyItsRange pins the Coupling contract every
// caller that shares one out slice between ranges relies on (sbm's
// per-chip rows): on every layout, out outside [lo,hi)
// keeps its poison. The matrix is ±1, so its dense layout is planes and
// walks; its float copy (Floats) is what the column sweep runs on. 70
// rows are two sweep blocks and a remainder, 576 nine whole 64-row
// tiles: the sweep parks partial sums in out, and must park them
// nowhere else.
func TestMatVecRangeWritesOnlyItsRange(t *testing.T) {
	for _, n := range []int{37, 70, 576} {
		data := randSym(n, 0.5, 80)
		x, base := randVec(n, 81), randVec(n, 82)
		b := allBackends(t, n, data, 0)
		for _, c := range []Coupling{b[Dense], b[CSR], Floats(b[Dense])} {
			for _, rg := range residueRanges(n) {
				checkMatVec(t, c, n, denseWalk(n, data), x, base, rg[0], rg[1])
			}
		}
	}
}

// TestAsymmetricMatrixKeepsRowKernel: FromDense is exported over a raw
// slice, and a column sweep of a matrix that is not its own transpose
// would silently compute Jᵀx. The dense arm compares the two triangles
// bit for bit at construction and only a symmetric matrix may sweep; a
// flipped sign, a differing last bit, a zero of the other sign or a NaN
// of another payload each keep the row walk's answer, on a matrix of two
// sweep blocks and a remainder and on one of nine 64-row tiles.
func TestAsymmetricMatrixKeepsRowKernel(t *testing.T) {
	for _, n := range []int{70, 576} {
		asymmetricKeepsRowKernel(t, n)
	}
}

func asymmetricKeepsRowKernel(t *testing.T, n int) {
	const div = 3.7
	r := rng.New(90)
	symm := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := r.Float64()*4 - 2
			symm[i*n+j], symm[j*n+i] = v, v
		}
	}
	symm[5*n+60], symm[60*n+5] = 0, 0
	nan := math.Float64frombits(0x7ff8000000000001)
	symm[7*n+66], symm[66*n+7] = nan, nan
	x, base := randVec(n, 91), randVec(n, 92)

	cases := []struct {
		name string
		edit func(d []float64)
		sym  bool
	}{
		{"symmetric", func(d []float64) {}, true},
		{"flipped sign", func(d []float64) { d[3*n+40] = -d[3*n+40] }, false},
		{"low bit", func(d []float64) { d[50*n+10] = math.Float64frombits(math.Float64bits(d[50*n+10]) ^ 1) }, false},
		{"zero sign", func(d []float64) { d[60*n+5] = math.Copysign(0, -1) }, false},
		{"NaN payload", func(d []float64) { d[66*n+7] = math.Float64frombits(0x7ff8000000000002) }, false},
		{"both", func(d []float64) {
			d[3*n+40] = -d[3*n+40]
			d[50*n+10] = math.Float64frombits(math.Float64bits(d[50*n+10]) ^ 1)
		}, false},
	}
	for _, tc := range cases {
		data := append([]float64(nil), symm...)
		tc.edit(data)
		scaled := make([]float64, len(data))
		for i, v := range data {
			scaled[i] = v / div
		}
		for _, v := range []struct {
			div float64
			ref []float64
		}{{0, data}, {div, scaled}} {
			c := FromDense(n, data, Dense, v.div)
			if got := c.(*dense).sym; got != tc.sym {
				t.Fatalf("n=%d %s div=%v: sym = %v, want %v", n, tc.name, v.div, got, tc.sym)
			}
			for _, rg := range residueRanges(n) {
				checkMatVec(t, c, n, denseWalk(n, v.ref), x, base, rg[0], rg[1])
			}
			walk, got := make([]float64, n), make([]float64, n)
			refMatVec(n, v.ref, x, base, walk, 0, n)
			MatVec(c, x, base, got, 4)
			for i := range got {
				if !sameBits(got[i], walk[i]) {
					t.Fatalf("n=%d %s div=%v: MatVec row %d: got %v, row walk %v", n, tc.name, v.div, i, got[i], walk[i])
				}
			}
		}
	}
}

// csrRows draws a compressed-row triple whose rows differ in length as
// much as a lane group can see — empty rows, a row of n−1 entries, a few
// half-full ones, and short rows of every length, in random order — over
// random values with the specials mixed in.
func csrRows(n int, seed uint64) (rowStart, cols []int, vals []float64) {
	r := rng.New(seed)
	rowStart = make([]int, n+1)
	for i := 0; i < n; i++ {
		p := r.Float64() * min(1, 24/float64(n))
		switch k := r.Intn(8); {
		case i == n/2:
			p = 1
		case k == 0:
			p = 0
		case k == 1:
			p = 0.5
		}
		for j := 0; j < n; j++ {
			if j != i && r.Float64() < p {
				v := r.Float64()*4 - 2
				if r.Intn(5) == 0 {
					v = specials[r.Intn(len(specials))]
				}
				cols, vals = append(cols, j), append(vals, v)
			}
		}
		rowStart[i+1] = len(cols)
	}
	return rowStart, cols, vals
}

// TestCSRLanesMatchWalk is the proof of csrLanes, the way sweep32's and
// tanhLanes' are proved: on both kernels, at every size to 70 and around
// one and two windows, unscaled and rescaled, every row of every range —
// each residue mod 4, window edges, partial windows — carries the
// one-row walk's bits, for x holding ±0, subnormals, ±Inf and NaN and a
// base that is nil, −0 or holds ±Inf; nothing outside the range moves.
func TestCSRLanesMatchWalk(t *testing.T) {
	const div = 3.7
	sizes := []int{255, 256, 257, 515}
	for n := 1; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		rowStart, cols, vals := csrRows(n, uint64(n)+300)
		scaled := make([]float64, len(vals))
		for k, v := range vals {
			scaled[k] = v / div
		}
		c := FromCSR(n, rowStart, cols, vals)
		views := []struct {
			c   Coupling
			ref walker
		}{
			{c, csrWalk(rowStart, cols, vals)},
			{Convert(c, CSR, div), csrWalk(rowStart, cols, scaled)},
		}
		plain, spiked := randVec(n, uint64(n)+301), randVec(n, uint64(n)+302)
		for i := range spiked {
			if i%3 != 1 {
				spiked[i] = specials[(i/3+i)%len(specials)]
			}
		}
		negZero, infs := make([]float64, n), randVec(n, uint64(n)+303)
		for i := range negZero {
			negZero[i] = math.Copysign(0, -1)
			if i%5 == 0 {
				infs[i] = math.Inf(1 - 2*(i/5%2))
			}
		}
		ranges := residueRanges(n)
		for _, lo := range []int{0, 1, 255, 256, 257} {
			for _, hi := range []int{255, 256, 257, 511, 512, 513, n - 1, n} {
				if lo <= hi && hi <= n {
					ranges = append(ranges, [2]int{lo, hi})
				}
			}
		}
		for _, v := range views {
			for _, x := range [][]float64{plain, spiked} {
				for _, base := range [][]float64{nil, negZero, infs} {
					for _, rg := range ranges {
						checkMatVec(t, v.c, n, v.ref, x, base, rg[0], rg[1])
					}
				}
			}
		}
	}
}

// TestLaneGroupLayout pins what csrLanes and the admission fence
// (Footprint) take for granted: each window's positions hold its
// rows, dummies first, ordered by length, so A3 ≤ B0 between
// neighbouring groups; a group is as wide as its last lane; and the
// padding is at most 3·min(nnz, windows·(n−1)) slots.
func TestLaneGroupLayout(t *testing.T) {
	for _, n := range []int{1, 3, 5, 70, 255, 256, 257, 515, 1030} {
		rowStart, cols, vals := csrRows(n, uint64(n)+400)
		c := FromCSR(n, rowStart, cols, vals).(*csr)
		for w := 0; w < n; w += KernelChunk {
			rows := min(KernelChunk, n-w)
			for p := w; p < w+(rows+3)&^3; p++ {
				i := int(c.order[p])
				if dummy := p < w+(-rows&3); dummy != (i < 0) || (!dummy && (i < w || i >= w+rows || int(c.pos[i]) != p)) {
					t.Fatalf("n=%d: position %d holds row %d", n, p, i)
				}
				if i >= 0 && int(c.lens[p]) != rowStart[i+1]-rowStart[i] {
					t.Fatalf("n=%d: position %d has length %d, row %d %d", n, p, c.lens[p], i, rowStart[i+1]-rowStart[i])
				}
				if p > w && c.lens[p] < c.lens[p-1] {
					t.Fatalf("n=%d: window %d not ordered by length at %d", n, w, p)
				}
			}
		}
		for g := 0; g+1 < len(c.start); g++ {
			if c.start[g+1]-c.start[g] != int(c.lens[4*g+3]) {
				t.Fatalf("n=%d: group %d is %d slots wide, its last lane %d", n, g, c.start[g+1]-c.start[g], c.lens[4*g+3])
			}
		}
		windows := (n + KernelChunk - 1) / KernelChunk
		if pad := len(c.cols) - c.nnz; pad > 3*min(c.nnz, windows*(n-1)) {
			t.Errorf("n=%d: %d slots of padding over %d entries", n, pad, c.nnz)
		}
	}
}

// FuzzMatVecRange drives every dense arm and the CSR lanes from raw
// bytes: size (up to 160: two-plus sweep tiles, up to five sweep blocks,
// a remainder; mode bit 4 adds 416, up to nine 64-row tiles; a CSR
// matrix may take a second window), range, scaling,
// which entries a CSR matrix keeps, and every entry, x and base value as
// arbitrary float64 bit patterns; every row must carry the row walk's
// bits and nothing outside the range may be written. A CSR matrix is
// also checked over [0, n), the range that takes the lanes.
func FuzzMatVecRange(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), []byte{0})
	f.Add(uint8(64), uint8(1), uint8(62), uint8(1), []byte("four rows share each load of x and keep one sum each"))
	f.Add(uint8(95), uint8(3), uint8(90), uint8(2), []byte{0xff, 0xf0, 0, 0, 0, 0, 0, 1, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 0x80})
	f.Add(uint8(128), uint8(1), uint8(127), uint8(3), []byte("the resistor conducts both ways: row j holds four outputs side by side"))
	f.Add(uint8(70), uint8(0), uint8(70), uint8(5), []byte{0xff, 0xf0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0x5a})
	f.Add(uint8(41), uint8(200), uint8(90), uint8(15), []byte("four rows to a lane group, sorted by length, masked past their ends"))
	f.Add(uint8(3), uint8(0), uint8(255), uint8(12), []byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 0x01, 0, 0, 0, 0, 0, 0, 0, 0xc3})
	f.Add(uint8(95), uint8(32), uint8(64), uint8(0), []byte("a 32-row offset between two 64-row ones"))
	f.Add(uint8(128), uint8(0), uint8(65), uint8(2), []byte("one pair of blocks, then a row"))
	f.Add(uint8(129), uint8(1), uint8(128), uint8(1), []byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0x3f, 0xf0, 0, 0, 0, 0, 0, 1, 0x11})
	f.Add(uint8(159), uint8(33), uint8(127), uint8(3), []byte("three blocks at an odd start: a pair, a trailing one, the walk"))
	f.Add(uint8(159), uint8(65), uint8(129), uint8(17), []byte("nine tiles of sixty-four columns, parked between them"))
	f.Add(uint8(100), uint8(63), uint8(255), uint8(16), []byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 0, 0x00, 0x0f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, size, from, span, mode uint8, raw []byte) {
		n := int(size)%160 + 1
		if mode&16 != 0 {
			n += 416
		}
		if mode&12 == 12 {
			n += KernelChunk
		}
		lo := int(from) % (n + 1)
		hi := lo + int(span)%(n-lo+1)
		for len(raw) < 8 {
			raw = append(raw, byte(len(raw)))
		}
		at := 0
		next := func() float64 {
			var w [8]byte
			for k := range w {
				w[k] = raw[at%len(raw)] + byte(at/len(raw))
				at++
			}
			return math.Float64frombits(binary.BigEndian.Uint64(w[:]))
		}
		data := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := next()
				data[i*n+j], data[j*n+i] = v, v
			}
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = next()
		}
		var base []float64
		if mode&1 != 0 {
			base = make([]float64, n)
			for i := range base {
				base[i] = next()
			}
		}
		div := 0.0
		if mode&2 != 0 {
			div = 3.7
		}
		if mode&4 == 0 {
			ref := data
			if div != 0 {
				ref = make([]float64, len(data))
				for i, v := range data {
					ref[i] = v / div
				}
			}
			checkMatVec(t, FromDense(n, data, Dense, div), n, denseWalk(n, ref), x, base, lo, hi)
			return
		}
		// The CSR arm keeps entry (i, j) where bit (i+j) mod 8 of a raw
		// byte is set, so rows of every length occur side by side.
		rowStart := make([]int, n+1)
		var cols []int
		var vals, scaled []float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j != i && raw[(i*n+j)%len(raw)]>>((i+j)&7)&1 != 0 {
					v := data[i*n+j]
					cols, vals = append(cols, j), append(vals, v)
					if div != 0 {
						v /= div
					}
					scaled = append(scaled, v)
				}
			}
			rowStart[i+1] = len(cols)
		}
		c := Convert(FromCSR(n, rowStart, cols, vals), CSR, div)
		ref := csrWalk(rowStart, cols, scaled)
		checkMatVec(t, c, n, ref, x, base, lo, hi)
		checkMatVec(t, c, n, ref, x, base, 0, n)
	})
}
