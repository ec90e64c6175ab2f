package lattice

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"mbrim/internal/rng"
)

// layoutPalette holds the vector values a planes row read as floats must
// meet as the float row does: both zeros, both infinities (0·Inf is a
// NaN), NaN, subnormals, and ordinary values of both signs.
var layoutPalette = []float64{
	0, math.Copysign(0, -1), 1, -1, 2, -3.5, 0.1, 1e300, -1e300,
	math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324, 0x1p-1040,
}

// divPalette holds the divisors Convert's rescale must divide by: a
// subnormal among them, whose reciprocal is infinite, so a product by the
// reciprocal turns a zero entry into a NaN where the quotient is +0.
var divPalette = []float64{3.7, -2.5, 0.1, 1e300, 5e-324, 1e-310, math.Inf(1)}

// floatLayout is the float layout of a symmetric matrix, built by hand:
// what the planes layout of the same ±1 matrix is held to.
func floatLayout(n int, data []float64) *dense {
	nnz, _ := countEntries(data)
	return &dense{n: n, data: slices.Clone(data), nnz: nnz, sym: true}
}

// scanned returns every (j, bits) Scan yields for row i.
func scanned(c Coupling, i int) [][2]uint64 {
	var out [][2]uint64
	c.Scan(i, func(j int, v float64) { out = append(out, [2]uint64{uint64(j), math.Float64bits(v)}) })
	return out
}

// checkPlanesLayout builds what FuzzPlanesLayout describes from raw and
// holds the layout FromDense stores to the float layout of the same
// matrix on every method, by Float64bits on both kernels, and the
// builder's two paths (straight into planes; spilled to floats) to the
// layout FromDense picks.
func checkPlanesLayout(t *testing.T, n int, raw []byte) {
	t.Helper()
	at := 0
	next := func() byte {
		var b byte
		if len(raw) > 0 {
			b = raw[at%len(raw)] + byte(at/len(raw))
		}
		at++
		return b
	}
	mode := next()
	data := make([]float64, n*n)
	negZero, diag := false, false
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := []float64{0, 1, -1, 1, -1, 0, 1, -1}[next()%8]
			if v == 0 && mode&1 != 0 && next()%8 == 0 {
				v, negZero = math.Copysign(0, -1), true
			}
			data[i*n+j], data[j*n+i] = v, v
		}
	}
	if mode&2 != 0 && n > 1 { // a ±1 entry on the diagonal
		i := int(next()) % n
		data[i*n+i], diag = float64(1-2*int(next()&1)), true
	}
	if e := int(next()) % (n + 1); e < n {
		clearVertex(n, data, e) // an empty row
	}
	c := FromDense(n, data, Dense, 0).(*dense)
	if planar := !negZero; (c.pl != nil) != planar || (c.data != nil) == planar {
		t.Fatalf("n=%d −0 %v: planes %v, floats %v", n, negZero, c.pl != nil, c.data != nil)
	}
	ref := floatLayout(n, data)

	if !negZero && !diag {
		// The builder's paths: every pair set twice, the second call final.
		upper := func() *UnitUpper {
			u := NewUnitUpper(n)
			for _, final := range []bool{false, true} {
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						v := float64(int(next()%3) - 1)
						if final {
							v = data[i*n+j]
						}
						if !u.Set(i, j, v) {
							t.Fatalf("Set refused %v", v)
						}
					}
				}
			}
			return u
		}
		want := FromDense(n, slices.Clone(data), Auto, 0)
		if got := upper().Build(); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: UnitUpper.Build differs from FromDense (kinds %v, %v)", n, got.Kind(), want.Kind())
		}
		if got := FromUpper(n, upper().Spill()); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: FromUpper of the spilled planes differs from FromDense (kinds %v, %v; nnz %d, %d)",
				n, got.Kind(), want.Kind(), got.NNZ(), want.NNZ())
		}
		if n > 1 && NewUnitUpper(n).Set(0, 1, 0.5) {
			t.Fatal("Set took 0.5")
		}
	}

	if c.N() != n || c.NNZ() != ref.NNZ() || c.Kind() != Dense {
		t.Fatalf("n=%d: N %d NNZ %d kind %v, floats %d", n, c.N(), c.NNZ(), c.Kind(), ref.NNZ())
	}
	for i := 0; i < n; i++ {
		if c.RowNNZ(i) != ref.RowNNZ(i) || !slices.Equal(scanned(c, i), scanned(ref, i)) {
			t.Fatalf("n=%d row %d: %d entries %v, floats %d %v", n, i, c.RowNNZ(i), scanned(c, i), ref.RowNNZ(i), scanned(ref, i))
		}
	}
	fl := Floats(c).(*dense)
	if fl.pl != nil || !fl.sym || fl.nnz != c.nnz {
		t.Fatalf("n=%d: Floats holds planes %v, sym %v, nnz %d", n, fl.pl != nil, fl.sym, fl.nnz)
	}
	for k, v := range fl.data {
		if math.Float64bits(v) != math.Float64bits(data[k]) {
			t.Fatalf("n=%d: Floats entry %d is %v, the matrix %v", n, k, v, data[k])
		}
	}

	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s n=%d %s index %d: %v (%#x), floats %v (%#x)", armName(), n, what, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	vec := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = layoutPalette[int(next())%len(layoutPalette)]
		}
		return v
	}
	x, base, fields := vec(), vec(), vec()
	ints := make([]float64, n)
	for i := range ints {
		ints[i] = float64(int(next()%9) - 4)
	}
	spins := make([]int8, n)
	for i := range spins {
		spins[i] = int8(1 - 2*int(next()&1))
	}
	stray := slices.Clone(spins)
	stray[int(next())%n] = []int8{0, 2, -128}[next()%3]
	lo := int(next()) % n
	ranges := append(residueRanges(n), [2]int{lo, lo + int(next())%(n-lo+1)})
	flips := make([][]int32, 3)
	for r := range flips {
		for j := 0; j < n; j++ {
			if next()%4 == 0 {
				flips[r] = append(flips[r], int32(j))
			}
		}
	}

	eachArm(func() {
		const poison = 12345.5
		run := func(f func(c Coupling, out []float64)) (got, want []float64) {
			got, want = make([]float64, n), make([]float64, n)
			for i := range got {
				got[i], want[i] = poison, poison
			}
			f(c, got)
			f(ref, want)
			return got, want
		}
		for _, r := range ranges {
			for _, b := range [][]float64{nil, base} {
				got, want := run(func(c Coupling, out []float64) { c.MatVecRange(x, b, out, r[0], r[1]) })
				same(fmt.Sprintf("MatVecRange [%d,%d) base %v", r[0], r[1], b != nil), got, want)
			}
			for _, b := range [][]float64{nil, ints, base} {
				for _, s := range [][]int8{spins, stray} {
					got, want := run(func(c Coupling, out []float64) { c.FieldsRange(s, b, out, r[0], r[1]) })
					same(fmt.Sprintf("FieldsRange [%d,%d)", r[0], r[1]), got, want)
				}
			}
		}
		for k := 0; k < n; k++ {
			for _, d := range []float64{2, -2, 0.5} {
				got, want := slices.Clone(fields), slices.Clone(fields)
				c.FlipFanout(got, k, d)
				ref.FlipFanout(want, k, d)
				same(fmt.Sprintf("FlipFanout row %d by %v", k, d), got, want)
			}
		}
		for _, b := range [][]float64{nil, ints, base} {
			for _, s := range [][]int8{spins, stray} {
				same("Energy", []float64{Energy(c, s, b)}, []float64{Energy(ref, s, b)})
			}
		}
		// The kept fields of c over flips of ±1 spins are the float
		// layout's recomputed fields, and so is the energy read off them.
		kept, s := KeepFields(c, ints), slices.Clone(spins)
		out := make([]float64, n)
		Fields(c, s, ints, out, 1)
		for _, flipped := range flips {
			for _, j := range flipped {
				s[j] = -s[j]
			}
			kept.Flip(s, flipped, out)
			want := make([]float64, n)
			Fields(ref, s, ints, want, 1)
			same("KeptFields", out, want)
			same("KeptFields.Energy", []float64{kept.Energy(s, out)}, []float64{Energy(ref, s, ints)})
		}
	})
	sum, sumSq := UpperSums(c)
	wSum, wSq := UpperSums(ref)
	if math.Float64bits(sum) != math.Float64bits(wSum) || math.Float64bits(sumSq) != math.Float64bits(wSq) {
		t.Fatalf("n=%d: UpperSums (%v, %v), floats (%v, %v)", n, sum, sumSq, wSum, wSq)
	}
	// Convert, to compressed rows and rescaled, against the quotients: a
	// compressed row keeps every entry, a dense one's Scan the nonzero.
	for _, to := range []Kind{CSR, Dense} {
		div := divPalette[int(next())%len(divPalette)]
		got := Convert(c, to, div)
		for i := 0; i < n; i++ {
			var want [][2]uint64
			for j, v := range data[i*n : (i+1)*n] {
				if q := v / div; (to == CSR && v != 0) || (to == Dense && q != 0) {
					want = append(want, [2]uint64{uint64(j), math.Float64bits(q)})
				}
			}
			if g := scanned(got, i); !slices.Equal(g, want) {
				t.Fatalf("n=%d Convert to %v by %v row %d: %v, quotients %v", n, to, div, i, g, want)
			}
		}
	}
}

// FuzzPlanesLayout is the differential of the planes as storage: from raw
// bytes, a symmetric matrix of +1, −1 and zeros over n = 1 + size mod 130
// spins — across the 64-column words — with −0 entries (so a float
// layout) in some inputs, a ±1 diagonal entry and an empty row in others;
// vectors of ±0, ±Inf, NaN, subnormals and ordinary values; ±1 and stray
// spins; every residue range mod 4 and around the 32-row sweep blocks.
// The layout FromDense stores must answer every Coupling method, Convert,
// Floats, UpperSums, KeepFields and Energy with the float layout's bits on
// both kernels (a NaN only has to be a NaN); UnitUpper, built or spilled,
// must be what FromDense stores.
func FuzzPlanesLayout(f *testing.F) {
	f.Add(uint8(0), []byte{})
	r := rng.New(3300)
	for _, n := range []int{1, 2, 3, 4, 5, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 130} {
		for mode := 0; mode < 4; mode++ {
			raw := make([]byte, 96)
			for i := range raw {
				raw[i] = byte(r.Intn(256))
			}
			raw[0] = byte(mode)
			f.Add(uint8(n-1), raw)
		}
	}
	f.Fuzz(func(t *testing.T, size uint8, raw []byte) {
		checkPlanesLayout(t, 1+int(size)%130, raw)
	})
}
