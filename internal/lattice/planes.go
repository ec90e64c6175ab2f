package lattice

import (
	"math"
	"math/bits"
)

// planes is how the dense layout stores a ±1 matrix: each row as two bit
// planes — pos marks the +1 entries, neg the −1 entries, (n+63)/64 words
// each — and nothing else, 1/32 of the float64 rows. A field over ±1
// spins is AND + popcount instead of a float multiply-add per entry. A
// layout holds planes only when the matrix is verified symmetric and
// every entry is exactly −1, +0 or +1 (the paper's K-graph family); any
// other matrix, −0 entries included, is stored as floats.
type planes struct {
	words  int      // per plane per row
	bits   []uint64 // row i: pos at [2·i·words, +words), neg right after
	rowNNZ []int32
}

// exactBase bounds the base values the popcount row accepts: an integer
// below 2⁵¹ plus at most n < 2⁵¹ unit steps stays under 2⁵³, where
// every integer — and so every partial sum of the float walk — is
// exactly representable.
const exactBase = 1 << 51

// packStackWords spin words (4096 spins) pack into a stack buffer;
// larger vectors allocate.
const packStackWords = 64

// planeWords is the words per plane of a row of n entries.
func planeWords(n int) int { return (n + 63) / 64 }

// countEntries counts the nonzero entries of a row-major matrix and
// reports whether every one of them is exactly −1, +0 or +1. Nothing
// branches on an entry (nonzero, notUnit).
func countEntries(data []float64) (nnz int, unit bool) {
	var other uint64
	for _, v := range data {
		u := math.Float64bits(v)
		nnz += nonzero(u)
		other |= notUnit(u)
	}
	return nnz, other == 0
}

// nonzero is 1 for the bits of an entry other than ±0, else 0.
func nonzero(u uint64) int { return int((u<<1 | -(u << 1)) >> 63) }

// notUnit is 0 for the bits of −1, +0 and +1, and nonzero for any other
// entry: for those three the lowest exponent bit says whether the rest
// spell 1 or 0, and the last term flags a sign bit without it, −0.
func notUnit(u uint64) uint64 {
	return u&^signBit ^ 0x3FF0000000000000&-(u>>52&1) | u>>63&^(u>>52)
}

// unit is the entry at bit b of a pos and a neg plane word, as the float
// it stands for: +1.0, −1.0 or +0.0.
func unit(pos, neg uint64, b uint) float64 {
	q := neg >> (b & 63) & 1
	return math.Float64frombits((pos>>(b&63)|q)&1*0x3FF0000000000000 | q<<63)
}

// packRows packs a row-major n×n matrix whose entries are all −1, +0
// or +1 into planes. Branch-free on the entry values: for those three
// the lowest exponent bit says nonzero and the sign bit says which
// plane. Four entries share one variable shift.
func packRows(n int, data []float64) []uint64 {
	w := planeWords(n)
	out := make([]uint64, 2*n*w)
	for i := 0; i < n; i++ {
		row := data[i*n : (i+1)*n]
		dst := out[2*i*w : 2*(i+1)*w]
		for k := 0; k < w; k++ {
			chunk := row[k*64 : min(n, k*64+64)]
			var nz, sign uint64
			b := 0
			for ; b+4 <= len(chunk); b += 4 {
				c := chunk[b : b+4 : b+4]
				u0, u1 := math.Float64bits(c[0]), math.Float64bits(c[1])
				u2, u3 := math.Float64bits(c[2]), math.Float64bits(c[3])
				nz |= (u0>>52&1 | u1>>51&2 | u2>>50&4 | u3>>49&8) << (uint(b) & 63)
				sign |= (u0>>63 | u1>>62&2 | u2>>61&4 | u3>>60&8) << (uint(b) & 63)
			}
			for ; b < len(chunk); b++ {
				u := math.Float64bits(chunk[b])
				nz |= (u >> 52 & 1) << (uint(b) & 63)
				sign |= (u >> 63) << (uint(b) & 63)
			}
			dst[k], dst[w+k] = nz&^sign, nz&sign
		}
	}
	return out
}

// newPlanes takes words, both triangles of an n-row matrix in the planes
// layout, and counts its rows.
func newPlanes(n int, words []uint64) *planes {
	p := &planes{words: planeWords(n), bits: words, rowNNZ: make([]int32, n)}
	for i := range p.rowNNZ {
		pos, neg := p.row(i)
		c := 0
		for k, v := range pos {
			c += bits.OnesCount64(v | neg[k])
		}
		p.rowNNZ[i] = int32(c)
	}
	return p
}

// nnz is the entry count, both triangles.
func (p *planes) nnz() int {
	t := 0
	for _, c := range p.rowNNZ {
		t += int(c)
	}
	return t
}

// mirrorUpper ORs the transpose of the strict upper triangle held in
// words (n rows in the planes layout, nothing on or below the diagonal)
// into the lower one, 64×64 bits at a time: block (I, J), I ≤ J, of
// either plane is read as 64 row words, transposed, and ORed into the
// rows of block J at word I. A diagonal block ORs into the rows it was
// read from, which it may: it was read whole first.
func mirrorUpper(n int, words []uint64) {
	w := planeWords(n)
	var blk [64]uint64
	for plane := 0; plane < 2; plane++ {
		at := func(row, word int) *uint64 { return &words[2*row*w+plane*w+word] }
		for bi := 0; bi < w; bi++ {
			rows := min(64, n-64*bi)
			for bj := bi; bj < w; bj++ {
				for t := range blk {
					blk[t] = 0
					if t < rows {
						blk[t] = *at(64*bi+t, bj)
					}
				}
				transpose64(&blk)
				for t := 0; t < min(64, n-64*bj); t++ {
					*at(64*bj+t, bi) |= blk[t]
				}
			}
		}
	}
}

// transpose64 transposes a 64×64 bit matrix in place, bit c of word r
// trading places with bit r of word c: halves, then quarters, down to
// single bits, each round swapping the off-diagonal sub-blocks of every
// 2j×2j block (the recursive exchange of Hacker's Delight §7-3).
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j, m = j>>1, m^m<<(j>>1) {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>j ^ a[k+j]) & m
			a[k+j] ^= t
			a[k] ^= t << j
		}
	}
}

// row returns the two planes of row i.
func (p *planes) row(i int) (pos, neg []uint64) {
	r := p.bits[2*i*p.words : 2*(i+1)*p.words]
	return r[:p.words], r[p.words:]
}

// unpack writes row i into dst (n wide) as the floats the planes stand
// for, zeros as +0: four entries a lookup of nibbleFloats.
func (p *planes) unpack(i int, dst []float64) {
	pos, neg := p.row(i)
	for k := 0; 64*k < len(dst); k++ {
		ps, ng := pos[k], neg[k]
		chunk := dst[64*k : min(len(dst), 64*k+64)]
		b := 0
		for ; b+4 <= len(chunk); b += 4 {
			f := &nibbleFloats[ps&15|ng&15<<4]
			c := chunk[b : b+4 : b+4]
			c[0], c[1], c[2], c[3] = f[0], f[1], f[2], f[3]
			ps, ng = ps>>4, ng>>4
		}
		for ; b < len(chunk); b++ {
			chunk[b] = unit(ps, ng, 0)
			ps, ng = ps>>1, ng>>1
		}
	}
}

// nibbleFloats[p | g<<4] holds the four entries whose pos bits are p and
// neg bits g, as floats.
var nibbleFloats = func() (t [256][4]float64) {
	for x := range t {
		for b := range t[x] {
			t[x][b] = unit(uint64(x), uint64(x>>4), uint(b))
		}
	}
	return t
}()

// scan calls fn for every nonzero entry of row i, ascending.
func (p *planes) scan(i int, fn func(j int, v float64)) {
	pos, neg := p.row(i)
	for k, ng := range neg {
		for m := pos[k] | ng; m != 0; m &= m - 1 {
			b := uint(bits.TrailingZeros64(m))
			fn(k<<6|int(b), nonzeroAt(ng, b))
		}
	}
}

// nonzeroAt is a nonzero entry at bit b as the float it stands for: −1
// where the neg word has bit b, else +1.
func nonzeroAt(neg uint64, b uint) float64 {
	return math.Float64frombits(0x3FF0000000000000 | neg>>(b&63)<<63)
}

// fieldWalk is FieldsRange's float walk over row i: acc plus each
// nonzero entry times float64(spins[j]), ascending, every product and sum
// rounded on its own.
func (p *planes) fieldWalk(i int, spins []int8, acc float64) float64 {
	pos, neg := p.row(i)
	for k, ng := range neg {
		for m := pos[k] | ng; m != 0; m &= m - 1 {
			b := uint(bits.TrailingZeros64(m))
			acc += float64(nonzeroAt(ng, b) * float64(spins[k<<6|int(b)]))
		}
	}
	return acc
}

// addRows adds float64(float64(c_i)·scale) to out[i] for every column i,
// where c_i counts the plane rows at word offsets rows[0], rows[2], …
// that have bit i set, minus those at rows[1], rows[3], …: 1 to
// fanOutRows pairs, each offset the start of some row's pos or neg plane,
// and out one row wide. fanOutLanes takes the whole groups of four
// columns; the len(out) mod 4 rest counts here. AVX hosts only.
func (p *planes) addRows(rows []int, scale float64, out []float64) {
	q := len(out) / 4
	if q > 0 {
		fanOutLanes(&p.bits[0], &rows[0], len(rows)/2, &out[0], q, scale)
	}
	for i := 4 * q; i < len(out); i++ {
		c := 0
		for r := 0; r < len(rows); r += 2 {
			c += int(p.bits[rows[r]+i>>6]>>(i&63)&1) - int(p.bits[rows[r+1]+i>>6]>>(i&63)&1)
		}
		out[i] += float64(float64(c) * scale)
	}
}

// pack writes the up-spin mask of spins into buf (grown if short) and
// returns it, or nil when p is nil or some spin is not ±1 — the caller
// then takes the float walk, so a stray 0 or 2 is never mis-packed.
func (p *planes) pack(spins []int8, buf []uint64) []uint64 {
	if p == nil {
		return nil
	}
	if cap(buf) < p.words {
		buf = make([]uint64, p.words)
	}
	buf = buf[:p.words]
	var bad uint8
	for k := range buf {
		var up uint64
		for b, s := range spins[k*64 : min(len(spins), k*64+64)] {
			t := uint8(s + 1) // 0 for −1, 2 for +1; anything else sets another bit
			bad |= t &^ 2
			up |= uint64(t>>1&1) << (uint(b) & 63)
		}
		buf[k] = up
	}
	if bad != 0 {
		return nil
	}
	return buf
}

// exactInt reports whether b is an integer the popcount paths may add
// to without rounding (NaN and ±Inf fail the bound).
func exactInt(b float64) bool {
	return math.Abs(b) < exactBase && float64(int64(b)) == b
}

// field returns b + Σ_j J_ij·σ_j for the packed spins, with the bits of
// the ascending-column float walk, or ok=false when that is not
// provable and the caller must walk. With b an integer below 2⁵¹ every
// partial sum of the walk is an exact integer, so the walk's result is
// the true sum — which 2·agree − nnz is, agree counting the entries
// whose sign matches their spin's. Only the sign of a zero needs care:
// a walk that reaches zero gets there by x + (−x) = +0, and so does
// b + float64(−b); a walk over an empty row never adds, so b is
// returned untouched and a −0 base survives.
func (p *planes) field(i int, up []uint64, b float64) (v float64, ok bool) {
	nnz := int(p.rowNNZ[i])
	if nnz == 0 {
		return b, true
	}
	if !exactInt(b) {
		return 0, false
	}
	pos, neg := p.row(i)
	pos, neg = pos[:len(up)], neg[:len(up)]
	agree := 0
	for k, u := range up {
		agree += bits.OnesCount64(pos[k]&u | neg[k]&^u)
	}
	return b + float64(2*agree-nnz), true
}

// energy returns E(σ) = −Σ_{i<j} J_ij σ_i σ_j − Σ_i base_i σ_i as an
// exact integer, or ok=false when the spins are not all ±1 or the
// bases not integers small enough that |E| stays below 2⁵³ for every
// order of summation.
func (p *planes) energy(spins []int8, base []float64, nnz int) (e float64, ok bool) {
	var stack [packStackWords]uint64
	up := p.pack(spins, stack[:0])
	if up == nil {
		return 0, false
	}
	var lin, mag int64 // Σ base_i σ_i and Σ |base_i|
	for i, b := range base {
		if !exactInt(b) {
			return 0, false
		}
		v := int64(b)
		lin += v * int64(spins[i])
		if v < 0 {
			v = -v
		}
		if mag += v; mag >= 1<<52 {
			return 0, false
		}
	}
	if mag+int64(nnz) >= 1<<53 {
		return 0, false
	}
	var quad int64 // Σ_{i<j} J_ij σ_i σ_j over the columns above the diagonal
	for i := range spins {
		pos, neg := p.row(i)
		mask := ^uint64(0) << uint((i+1)&63)
		agree, cnt := 0, 0
		for k := (i + 1) >> 6; k < len(up); k++ {
			ps, ng := pos[k]&mask, neg[k]&mask
			agree += bits.OnesCount64(ps&up[k] | ng&^up[k])
			cnt += bits.OnesCount64(ps | ng)
			mask = ^uint64(0)
		}
		quad += int64(spins[i]) * int64(2*agree-cnt)
	}
	return float64(-quad - lin), true
}

// UnitUpper collects the strict upper triangle of an n×n matrix whose
// entries are all −1, 0 or +1 straight into the planes the dense layout
// stores such a matrix as, never as floats: what ising.Builder's dense
// phase writes while every call is a ±1 set. Build mirrors it into the
// layout; Spill hands the entries over as floats when a call turns out
// not to be one.
type UnitUpper struct {
	n, words int
	bits     []uint64 // planes layout, bits above the diagonal only
}

// NewUnitUpper returns an empty n-spin triangle: 2·n·⌈n/64⌉ words.
func NewUnitUpper(n int) *UnitUpper {
	w := planeWords(n)
	return &UnitUpper{n: n, words: w, bits: make([]uint64, 2*n*w)}
}

// Set makes entry (i, j), i < j < n, v when v is −1, +1 or either zero
// (which clears it), and reports whether it was; any other v stores
// nothing. The indices are checked only as the slice is. Nothing
// branches on v but the verdict: the lowest exponent bit says nonzero
// and the sign bit says which plane.
func (u *UnitUpper) Set(i, j int, v float64) bool {
	f := math.Float64bits(v)
	nz := f >> 52 & 1
	if f&^signBit != nz*0x3FF0000000000000 {
		return false
	}
	w := u.bits[2*i*u.words+j>>6:]
	m := uint64(1) << (j & 63)
	p, sg := -nz&m, -(f >> 63)
	w[0] = w[0]&^m | p&^sg
	w[u.words] = w[u.words]&^m | p&sg
	return true
}

// SetWord makes word k of row i — the entries at columns 64k … 64k+63 —
// +1 where pos has a bit, −1 where neg has one and 0 elsewhere: 64 Sets
// at once. The two words must not share a bit, nor mark a column at or
// below the diagonal or at n and past it; the indices are checked only
// as the slice is.
func (u *UnitUpper) SetWord(i, k int, pos, neg uint64) {
	w := u.bits[2*i*u.words+k:]
	w[0], w[u.words] = pos, neg
}

// Spill writes the entries into a new row-major n×n array, above the
// diagonal only, as the floats they stand for: what FromUpper takes.
// u is spent.
func (u *UnitUpper) Spill() []float64 {
	n := u.n
	data := make([]float64, n*n)
	p := planes{words: u.words, bits: u.bits}
	for i := 0; i < n; i++ {
		row := data[i*n : (i+1)*n]
		p.scan(i, func(j int, v float64) { row[j] = v })
	}
	u.bits = nil
	return data
}

// Build mirrors the triangle and returns the layout Auto resolves to
// for it, as FromUpper would for the same entries: the planes alone,
// or compressed rows read off them where the count resolves to CSR. u
// is spent; the result owns its words.
func (u *UnitUpper) Build() Coupling {
	mirrorUpper(u.n, u.bits)
	c := fromPlanes(u.n, u.bits)
	u.bits = nil
	return c
}

// fromPlanes is the layout Auto resolves to over a symmetric matrix in
// the planes layout, which it owns.
func fromPlanes(n int, words []uint64) Coupling {
	p := newPlanes(n, words)
	d := &dense{n: n, nnz: p.nnz(), sym: true, pl: p}
	if Resolve(Auto, n, d.nnz) == CSR {
		return Convert(d, CSR, 0)
	}
	return d
}
