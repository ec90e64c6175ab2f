package lattice

import "math"

// The owned tanh (package doc, "The nonlinearity"): tanh(|x|) is
// −expm1(−2|x|)/(2 + expm1(−2|x|)), on one evaluation path with one
// division and no small-argument branch (a subnormal comes back exact):
//
//	a  = min(|x|, TanhSaturation)          t = −2a
//	k  = round(t/ln2)                       by adding and subtracting tanhBias
//	r  = (t − k·ln2Hi) − k·ln2Lo            |r| ≤ ln2/2; k·ln2Hi is exact
//	em = r + r²·q(r)                        expm1(r); q is the degree-11 Taylor
//	                                        polynomial of (eʳ−1−r)/r², Estrin form
//	p  = 2ᵏ·em                              so expm1(t) = p + (2ᵏ − 1) ∈ [−1, 0]
//	y  = (p + (2ᵏ − 1))/(p + (2ᵏ + 1))      −tanh(a) = expm1(t)/(2 + expm1(t))
//
// and tanh(x) is |y| with x's sign bit. A NaN is returned as it came.

// TanhSaturation is the magnitude from which Tanh returns exactly ±1: a
// round number just past 19.0616, where the true tanh comes within half
// an ulp of 1.
const TanhSaturation = 19.0625

const (
	tanhInvLn2 = 1.44269504088896338700e+00 // 0x3ff71547652b82fe
	tanhLn2Hi  = 6.93147180369123816490e-01 // 0x3fe62e42fee00000: 21 significant bits, so k·ln2Hi is exact for |k| < 2³²
	tanhLn2Lo  = 1.90821492927058770002e-10 // 0x3dea39ef35793c76: ln2 − ln2Hi
	// Adding tanhBias to a value of magnitude below 2⁵¹ rounds it to the
	// nearest integer (ties to even; Go never leaves round-to-nearest) and
	// leaves that integer plus 1023 in the sum's low mantissa bits, so the
	// bits shifted left by 52 are the double 2ᵏ.
	tanhBias = 0x1.8p52 + 1023

	signBit = 1 << 63
)

// tanhQ[n] = 1/(n+2)!, the Taylor coefficients of q(r) = (eʳ − 1 − r)/r².
// Past r¹¹ the series contributes less than 0.1 ulp of expm1 at |r| = ln2/2.
var tanhQ = [12]float64{
	1.0 / 2, 1.0 / 6, 1.0 / 24, 1.0 / 120, 1.0 / 720, 1.0 / 5040,
	1.0 / 40320, 1.0 / 362880, 1.0 / 3628800, 1.0 / 39916800,
	1.0 / 479001600, 1.0 / 6227020800,
}

// tanhGo is the form that defines the bits. Every product is wrapped in
// an explicit float64 conversion, which the Go spec makes a rounding
// point: no compiler may fuse it into the addition beside it, on arm64,
// ppc64 and s390x as on amd64 at GOAMD64=v3. Nothing here calls into
// package math beyond the bit casts. tanhLanes (tanh_amd64.s) is the
// same operations in the same order on four doubles at a time.
func tanhGo(x float64) float64 {
	if x != x {
		return x
	}
	a := math.Float64frombits(math.Float64bits(x) &^ signBit)
	if a > TanhSaturation {
		a = TanhSaturation
	}
	t := float64(-2 * a)
	kb := float64(t*tanhInvLn2) + tanhBias
	k := kb - tanhBias
	r := (t - float64(k*tanhLn2Hi)) - float64(k*tanhLn2Lo)

	c := &tanhQ
	r2 := float64(r * r)
	q01 := (c[0] + float64(c[1]*r)) + float64((c[2]+float64(c[3]*r))*r2)
	q23 := (c[4] + float64(c[5]*r)) + float64((c[6]+float64(c[7]*r))*r2)
	q45 := (c[8] + float64(c[9]*r)) + float64((c[10]+float64(c[11]*r))*r2)
	r4 := float64(r2 * r2)
	q := (q01 + float64(q23*r4)) + float64(q45*float64(r4*r4))
	em := r + float64(q*r2)

	s := math.Float64frombits(math.Float64bits(kb) << 52)
	p := float64(em * s)
	y := (p + (s - 1)) / (p + (s + 1))
	return math.Float64frombits(math.Float64bits(y)&^signBit | math.Float64bits(x)&signBit)
}

// Tanh replaces every x[i] by tanh(x[i]): odd bit for bit, exactly ±1
// from |x| = TanhSaturation on (±Inf included), ±0 for ±0, a NaN
// unchanged, monotone, within 2.5 ulp of the true value
// (TestTanhAccuracy). On an AVX host the whole groups of four go through
// the lanes; the len mod 4 elements left over, and every element on any
// other host, go through tanhGo — the same bits either way, so a value
// does not depend on where in a slice, or in which worker's range, it
// was evaluated.
func Tanh(x []float64) {
	i := 0
	if groups := len(x) / 4; useAVX && groups > 0 {
		tanhLanes(&x[0], groups, &tanhTab)
		i = groups * 4
	}
	for ; i < len(x); i++ {
		x[i] = tanhGo(x[i])
	}
}

// tanhTab is tanhLanes' constant table: the sign masks and each constant
// of tanhGo broadcast to four lanes, so every packed instruction takes
// its constant as a 32-byte memory operand. Built from the same Go
// constants, so the two forms cannot disagree about a coefficient.
// tanh_amd64.s indexes the rows by position.
var tanhTab = func() (tab [21][4]uint64) {
	row := 0
	add := func(b uint64) {
		tab[row] = [4]uint64{b, b, b, b}
		row++
	}
	add(^uint64(signBit))
	add(signBit)
	for _, c := range [...]float64{TanhSaturation, -2, tanhInvLn2, tanhBias, tanhLn2Hi, tanhLn2Lo} {
		add(math.Float64bits(c))
	}
	for _, c := range tanhQ {
		add(math.Float64bits(c))
	}
	add(math.Float64bits(1))
	return tab
}()
