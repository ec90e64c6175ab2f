package lattice

import (
	"math"
	"math/bits"
)

// fanOutShift sets where KeptFields.Flip stops fanning out: more than
// n>>fanOutShift flipped signs recompute with Fields. Both arms give the
// same bits, so it is a constant; only tests write it, to force one arm
// (0: every flip fans out; 64: none does). The lanes fan a row out in
// about 1/260 of Fields' time at n = 512 and 1/540 at n = 2000
// (BenchmarkFanOut): Fields starts to pay past n/2 and n/3.7 flips, and
// n/4 is short of both.
var fanOutShift = 2

// KeptFields keeps out = Fields(c, spins, base) current for a spin
// vector that changes a few signs at a time — the force of a discrete
// simulated bifurcation machine (internal/sbm). Where planes.field answers
// every row, the fields of the new spins are those of the old ones plus
// 2·σ_j·J_ji for each flipped j (σ_j − (−σ_j) = 2σ_j): a pass over out per
// 127 flipped rows read from the planes (four float rows off AVX)
// instead of a pass over the matrix (package doc, "±1 planes" and "The
// flip fan-out").
type KeptFields struct {
	c    Coupling
	base []float64
	d    *dense // the layout whose flipped rows fan out exactly, or nil
	// fast says Energy may answer from the fields: the fields are exact
	// and planes.energy would answer for every ±1 spin vector.
	fast bool
}

// KeepFields returns the keeper of c's fields over base (nil means
// zero). The fan-out is taken when c is a planes layout (symmetric, by
// construction) and every base is an integer exactInt accepts, except a −0
// on an empty row: planes.field hands that row its base untouched, and
// adding even a zero term would turn −0 into +0. Otherwise every Flip
// that changed a sign recomputes with Fields.
func KeepFields(c Coupling, base []float64) *KeptFields {
	k := &KeptFields{c: c, base: base}
	d, ok := c.(*dense)
	if !ok || d.pl == nil {
		return k
	}
	var mag int64 // Σ |base_i|, as planes.energy bounds it
	for i, b := range base {
		if !exactInt(b) || (math.Float64bits(b) == signBit && d.pl.rowNNZ[i] == 0) {
			return k
		}
		mag += int64(math.Abs(b))
	}
	k.d = d
	k.fast = mag < 1<<52 && mag+int64(d.nnz) < 1<<53
	for i := 0; i < d.n && k.fast; i++ { // a diagonal entry is not read off the fields
		pos, neg := d.pl.row(i)
		k.fast = (pos[i>>6]|neg[i>>6])>>(i&63)&1 == 0
	}
	return k
}

// Flip brings out from the fields of the spins before a change to those
// of spins, where flipped lists every index whose sign changed — every
// entry of spins ±1 — with the bits Fields(c, spins, base) has.
func (k *KeptFields) Flip(spins []int8, flipped []int32, out []float64) {
	switch {
	case len(flipped) == 0:
	case k.d != nil && len(flipped) <= k.d.n>>fanOutShift:
		if useAVX {
			k.d.fanOutPlanes(spins, flipped, out)
		} else {
			k.d.fanOut(spins, flipped, out)
		}
	default:
		Fields(k.c, spins, k.base, out, 1)
	}
}

// Energy returns Energy(c, spins, base) for ±1 spins whose fields out
// holds. Where the fields are exact it is read off them in O(n):
// Σ_i σ_i·(out_i + base_i) = 2·Σ_{i<j} J_ij σ_i σ_j + 2·Σ_i base_i σ_i on a
// symmetric matrix with a zero diagonal, so the energy is minus half of
// it, an integer summed in int64 — the value planes.energy computes, and
// so its bits.
func (k *KeptFields) Energy(spins []int8, out []float64) float64 {
	if !k.fast {
		return Energy(k.c, spins, k.base)
	}
	var t int64
	for i, f := range out[:len(spins)] {
		v := int64(f)
		if k.base != nil {
			v += int64(k.base[i])
		}
		t += int64(spins[i]) * v
	}
	return float64(-t / 2)
}

// fanOut adds 2·σ_j·J_ji to out[i] for every j in flipped and every i,
// four planes rows a pass over out, each entry read as the float it
// stands for. Every term is ±2 or ±0 and every partial sum an integer
// below 2⁵³, so any order of the additions gives the bits of the
// ascending walk — but for a zero's sign: a ±0 term added to +0 or to a
// nonzero value changes nothing, and no field here is −0 (KeepFields).
// A short last pass repeats its last row with weight 0, whose ±0 terms
// are such terms.
func (d *dense) fanOut(spins []int8, flipped []int32, out []float64) {
	out = out[:d.n]
	row := func(l int) ([]uint64, []uint64, float64) {
		j := int(flipped[min(l, len(flipped)-1)])
		w := 0.0
		if l < len(flipped) {
			w = float64(2 * spins[j])
		}
		pos, neg := d.pl.row(j)
		return pos, neg, w
	}
	for len(flipped) > 0 {
		p0, n0, w0 := row(0)
		p1, n1, w1 := row(1)
		p2, n2, w2 := row(2)
		p3, n3, w3 := row(3)
		for i := range out {
			k, b := i>>6, uint(i)
			out[i] += ((float64(w0*unit(p0[k], n0[k], b)) + float64(w1*unit(p1[k], n1[k], b))) +
				float64(w2*unit(p2[k], n2[k], b))) + float64(w3*unit(p3[k], n3[k], b))
		}
		flipped = flipped[min(4, len(flipped)):]
	}
}

// fanOutRows is the most flipped rows one pass of fanOutPlanes counts:
// fanOutLanes' counters are signed bytes.
const fanOutRows = 127

// fanOutPlanes is fanOut read from the ±1 planes, the sixth lane kernel:
// row j's term at column i is +2 where the plane of σ_j's sign (pos for
// +1, neg for −1) has bit i, −2 where the other plane has it and ±0
// elsewhere, so up to fanOutRows rows a pass add 2·(the first count minus
// the second) to out[i]. That is the exact sum fanOut reaches in its own
// order, and a count of 0 adds +0, which leaves a field that is never −0
// as it was.
func (d *dense) fanOutPlanes(spins []int8, flipped []int32, out []float64) {
	var rows [2 * fanOutRows]int
	w := d.pl.words
	spins = spins[:d.n] // a flipped index past n panics here, not in the lanes
	for len(flipped) > 0 {
		m := min(len(flipped), fanOutRows)
		for r, j := range flipped[:m] {
			plus, minus := 2*int(j)*w, (2*int(j)+1)*w
			if spins[j] < 0 {
				plus, minus = minus, plus
			}
			rows[2*r], rows[2*r+1] = plus, minus
		}
		d.pl.addRows(rows[:2*m], 2, out[:d.n])
		flipped = flipped[m:]
	}
}

// UpperSums returns Σ_{i<j} J_ij and Σ_{i<j} J_ij² with the bits of the
// walk over each row's stored entries above the diagonal, ascending, each
// square rounded on its own. With ±1 planes every partial sum of that
// walk is an integer below 2⁵³, so the two are popcounts: the +1 entries
// minus the −1 entries, and both together.
func UpperSums(c Coupling) (sum, sumSq float64) {
	if d, ok := c.(*dense); ok && d.pl != nil {
		var pos, neg int
		for i := 0; i < d.n; i++ {
			ps, ng := d.pl.row(i)
			mask := ^uint64(0) << uint((i+1)&63)
			for k := (i + 1) >> 6; k < len(ps); k++ {
				pos += bits.OnesCount64(ps[k] & mask)
				neg += bits.OnesCount64(ng[k] & mask)
				mask = ^uint64(0)
			}
		}
		return float64(pos - neg), float64(pos + neg)
	}
	for i := 0; i < c.N(); i++ {
		c.Scan(i, func(j int, v float64) {
			if j > i {
				sum += v
				sumSq += float64(v * v)
			}
		})
	}
	return sum, sumSq
}
