package lattice

import (
	"math"
	"math/bits"
)

// planes is the ±1 fast path of the dense backend: every row stored a
// second time as two bit planes — pos marks the +1 entries, neg the −1
// entries, (n+63)/64 words each — so a field over ±1 spins is AND +
// popcount instead of a float multiply-add per entry. The planes exist
// only when every stored entry is exactly −1, 0 or +1 (the paper's
// K-graph family); any other matrix carries a nil *planes and pays
// nothing.
type planes struct {
	words  int      // per plane per row
	bits   []uint64 // row i: pos at [2·i·words, +words), neg right after
	rowNNZ []int32
	// negZero says some entry is −0, whose sign is in neither plane.
	negZero bool
}

// exactBase bounds the base values the popcount row accepts: an integer
// below 2⁵¹ plus at most n < 2⁵¹ unit steps stays under 2⁵³, where
// every integer — and so every partial sum of the float walk — is
// exactly representable.
const exactBase = 1 << 51

// packStackWords spin words (4096 spins) pack into a stack buffer;
// larger vectors allocate.
const packStackWords = 64

// countEntries counts the nonzero entries of a row-major matrix and
// reports whether every one of them is exactly ±1. Nothing branches on
// an entry: its magnitude bits are nonzero unless it is ±0, and for −1,
// ±0 and +1 the lowest exponent bit says whether the rest spell 1 or 0.
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

// notUnit is 0 for the bits of −1, ±0 and +1, and nonzero for any other
// entry.
func notUnit(u uint64) uint64 { return u&^signBit ^ 0x3FF0000000000000&-(u>>52&1) }

// newPlanes packs a row-major n×n matrix whose entries are all −1, 0
// or +1. Branch-free on the entry values: for those three the lowest
// exponent bit says nonzero and the sign bit says which plane. Four
// entries share one variable shift; this pass is most of what a view
// of a ±1 matrix costs over one without planes.
func newPlanes(n int, data []float64) *planes {
	w := (n + 63) / 64
	p := &planes{words: w, bits: make([]uint64, 2*n*w), rowNNZ: make([]int32, n)}
	var negZero uint64
	for i := 0; i < n; i++ {
		row := data[i*n : (i+1)*n]
		dst := p.bits[2*i*w : 2*(i+1)*w]
		nnz := 0
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
			dst[k], dst[w+k] = nz&^sign, nz&sign // −0 has the sign bit but not nz
			negZero |= sign &^ nz
			nnz += bits.OnesCount64(nz)
		}
		p.rowNNZ[i] = int32(nnz)
	}
	p.negZero = negZero != 0
	return p
}

// row returns the two planes of row i.
func (p *planes) row(i int) (pos, neg []uint64) {
	r := p.bits[2*i*p.words : 2*(i+1)*p.words]
	return r[:p.words], r[p.words:]
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
