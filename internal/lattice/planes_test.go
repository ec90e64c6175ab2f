package lattice

import (
	"fmt"
	"math"
	"testing"

	"mbrim/internal/rng"
)

// refFields is the ascending-column float walk the popcount row must
// reproduce bit for bit — the dense FieldsRange as it stood before the
// planes, kept here as the reference.
func refFields(n int, data []float64, spins []int8, base, out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		acc := 0.0
		if base != nil {
			acc = base[i]
		}
		for j, v := range data[i*n : (i+1)*n] {
			if v != 0 {
				acc += v * float64(spins[j])
			}
		}
		out[i] = acc
	}
}

// refEnergy is the float walk every arm of Energy answers for, with
// base_i = μh_i.
func refEnergy(n int, data []float64, spins []int8, base []float64) float64 {
	e := 0.0
	for i := 0; i < n; i++ {
		si := float64(spins[i])
		acc := 0.0
		for j := i + 1; j < n; j++ {
			acc += data[i*n+j] * float64(spins[j])
		}
		e -= si * acc
		if base != nil {
			e -= base[i] * si
		}
	}
	return e
}

// basePalette holds every kind of base value the contract names: the
// eligible ones (zeros of both signs, integers up to the bound) and the
// ones that must send a row to the float walk.
var basePalette = []float64{
	0, math.Copysign(0, -1), 1, -3, 7, 1 << 50, -(1 << 50),
	0.1, -2.5, 1 << 51, 1 << 52, -(1 << 52), math.NaN(), math.Inf(1), math.Inf(-1),
}

// clearVertex zeroes row and column v, leaving an empty row.
func clearVertex(n int, data []float64, v int) {
	for j := 0; j < n; j++ {
		data[v*n+j], data[j*n+v] = 0, 0
	}
}

// checkFields compares FieldsRange over [lo,hi) with the reference by
// Float64bits, and that nothing outside the range is written.
func checkFields(t *testing.T, c Coupling, n int, data []float64, spins []int8, base []float64, lo, hi int) {
	t.Helper()
	const sentinel = 12345.5
	got, want := make([]float64, n), make([]float64, n)
	for i := range got {
		got[i], want[i] = sentinel, sentinel
	}
	c.FieldsRange(spins, base, got, lo, hi)
	refFields(n, data, spins, base, want, lo, hi)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d [%d,%d) row %d: got %v (%#x), walk %v (%#x)", n, lo, hi, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestFieldsPlanesMatchFloatWalk(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130, 515} {
		for _, density := range []float64{1, 0.4} {
			data := randSym(n, density, uint64(n))
			if n > 2 {
				clearVertex(n, data, n/2) // an empty row
			}
			d := FromDense(n, data, Dense, 0)
			if d.(*dense).pl == nil {
				t.Fatalf("n=%d: ±1 matrix built no planes", n)
			}
			bases := map[string][]float64{"nil": nil}
			for _, b := range basePalette {
				v := make([]float64, n)
				for i := range v {
					v[i] = b
				}
				bases[fmt.Sprint(b, math.Signbit(b))] = v
			}
			mixed := make([]float64, n)
			for i := range mixed {
				mixed[i] = basePalette[i%len(basePalette)]
			}
			bases["mixed"] = mixed

			spinSets := map[string][]int8{"pm1": randSpins(n, 9)}
			for name, stray := range map[string]int8{"zero": 0, "two": 2, "min": -128} {
				s := randSpins(n, 10)
				s[n-1] = stray
				spinSets[name] = s
			}
			for _, base := range bases {
				for _, spins := range spinSets {
					for _, r := range [][2]int{{0, n}, {n / 3, 2 * n / 3}, {n - 1, n}, {n / 2, n / 2}} {
						checkFields(t, d, n, data, spins, base, r[0], r[1])
					}
				}
			}
		}
	}
}

// TestCountEntriesClassifies: the branch-free count agrees with the
// comparisons it replaced on every kind of entry. A −0 is no entry, and
// no planes entry either: its sign would be lost.
func TestCountEntriesClassifies(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		data []float64
		nnz  int
		unit bool
	}{
		{nil, 0, true},
		{[]float64{0, 0, 0, 0}, 0, true},
		{[]float64{1, -1, 0, 1, 1}, 4, true},
		{[]float64{0, negZero, 0, 0}, 0, false},
		{[]float64{1, -1, 0, negZero, 1, 1}, 4, false},
		{[]float64{1, 2}, 2, false},
		{[]float64{0.5, 0}, 1, false},
		{[]float64{-1, 1.5}, 2, false},
		{[]float64{3, -3}, 2, false},
		{[]float64{math.Nextafter(1, 2), 1}, 2, false},
		{[]float64{math.SmallestNonzeroFloat64, 0}, 1, false},
		{[]float64{math.NaN(), 1}, 2, false},
		{[]float64{math.Inf(-1)}, 1, false},
		{[]float64{math.MaxFloat64, negZero}, 1, false},
	} {
		if nnz, unit := countEntries(tc.data); nnz != tc.nnz || unit != tc.unit {
			t.Errorf("countEntries(%v) = %d, %v; want %d, %v", tc.data, nnz, unit, tc.nnz, tc.unit)
		}
	}
}

func TestNonUnitMatrixBuildsNoPlanes(t *testing.T) {
	n := 70
	data := randSym(n, 1, 3)
	data[5*n+9], data[9*n+5] = 0.5, 0.5
	if d := FromDense(n, data, Dense, 0).(*dense); d.pl != nil || d.nnz != n*(n-1) {
		t.Fatalf("one 0.5 entry: planes %v, nnz %d", d.pl != nil, d.nnz)
	}
	// The dense view of an ineligible matrix is still the one struct
	// allocation it was before the planes existed.
	if a := testing.AllocsPerRun(20, func() { FromDense(n, data, Dense, 0) }); a != 1 {
		t.Errorf("FromDense on a weighted matrix allocates %v times, want 1", a)
	}
	// A scaled view never carries planes, unit entries or not.
	if d := FromDense(n, randSym(n, 1, 3), Dense, 3.7).(*dense); d.pl != nil {
		t.Error("J/scale view built planes")
	}
	// FieldsRange on an eligible matrix packs on the stack.
	d := FromDense(n, randSym(n, 1, 3), Dense, 0)
	spins, out := randSpins(n, 4), make([]float64, n)
	if a := testing.AllocsPerRun(20, func() { d.FieldsRange(spins, nil, out, 0, n) }); a != 0 {
		t.Errorf("FieldsRange through the planes allocates %v times, want 0", a)
	}
}

func TestEnergyPlanesMatchFloatWalk(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 130} {
		data := randSym(n, 0.7, uint64(n)+40)
		if n > 2 {
			clearVertex(n, data, 1)
		}
		d := FromDense(n, data, Dense, 0)
		r := rng.New(uint64(n))
		ints := make([]float64, n)
		for i := range ints {
			ints[i] = float64(r.Intn(9) - 4)
		}
		negZero := make([]float64, n)
		for i := range negZero {
			negZero[i] = math.Copysign(0, -1)
		}
		frac := append([]float64(nil), ints...)
		frac[n-1] = 0.25
		huge := append([]float64(nil), ints...)
		huge[0] = 1 << 52
		stray := randSpins(n, 6)
		stray[0] = 0
		for name, tc := range map[string]struct {
			base  []float64
			spins []int8
			walks bool
		}{
			"nil":      {nil, randSpins(n, 5), false},
			"integers": {ints, randSpins(n, 5), false},
			"neg zero": {negZero, randSpins(n, 5), false},
			"fraction": {frac, randSpins(n, 5), true},
			"too big":  {huge, randSpins(n, 5), true},
			"stray":    {ints, stray, true},
		} {
			got := Energy(d, tc.spins, tc.base)
			want := refEnergy(n, data, tc.spins, tc.base)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("n=%d %s: Energy %v (%#x), walk %v (%#x)", n, name,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
			// The planes arm answers exactly where it may.
			dd := d.(*dense)
			if _, ok := dd.pl.energy(tc.spins, tc.base, dd.nnz); ok == tc.walks {
				t.Errorf("n=%d %s: planes answered=%v, want %v", n, name, ok, !tc.walks)
			}
		}
		// CSR needs no planes: it runs the walk itself over its stored
		// entries (TestEnergyArmsAgree holds it to the walk's bits). A
		// mis-sized call is a bug in the caller, under either layout.
		for _, c := range []Coupling{d, FromDense(n, data, CSR, 0)} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("n=%d %v: Energy took %d spins", n, c.Kind(), n+1)
					}
				}()
				Energy(c, randSpins(n+1, 5), nil)
			}()
		}
	}
}

// FuzzFieldsPlanes drives the exactness contract from raw bytes: matrix
// entries, spins (strays included) and bases (from basePalette) all come
// from the input, and every row must carry the float walk's bits.
func FuzzFieldsPlanes(f *testing.F) {
	f.Add(uint8(1), []byte{0})
	f.Add(uint8(65), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add(uint8(130), []byte("the popcount row and the float walk must agree"))
	f.Fuzz(func(t *testing.T, size uint8, raw []byte) {
		n := int(size)%140 + 1
		if len(raw) == 0 {
			raw = []byte{0}
		}
		at := 0
		next := func() byte { b := raw[at%len(raw)] + byte(at/len(raw)); at++; return b }
		data := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := float64(int(next()%3) - 1)
				data[i*n+j], data[j*n+i] = v, v
			}
		}
		spins := make([]int8, n)
		for i := range spins {
			switch b := next(); {
			case b < 120:
				spins[i] = 1
			case b < 240:
				spins[i] = -1
			default:
				spins[i] = int8(b) // a stray: the call must fall back
			}
		}
		var base []float64
		if next()%4 != 0 {
			base = make([]float64, n)
			for i := range base {
				base[i] = basePalette[int(next())%len(basePalette)]
			}
		}
		lo := int(next()) % n
		hi := lo + int(next())%(n-lo+1)
		d := FromDense(n, data, Dense, 0)
		checkFields(t, d, n, data, spins, base, 0, n)
		checkFields(t, d, n, data, spins, base, lo, hi)
		got := Energy(d, spins, base)
		if want := refEnergy(n, data, spins, base); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: Energy %v (%#x), walk %v (%#x)", n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
