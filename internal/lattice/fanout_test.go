package lattice

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mbrim/internal/rng"
)

// keptCase is a coupling and base KeptFields is held to Fields over, and
// whether it must fan out.
type keptCase struct {
	name   string
	c      Coupling
	base   []float64
	fanOut bool
}

// keptCases covers an n-spin ±1 matrix with an empty row (n > 2): a nil
// base, integer biases, a −0 on a coupled row, a nonzero diagonal entry
// (whose energy is not read off the fields) — all fanned out — and the
// cases that must keep today's path: a −0 on the empty row, a fractional
// bias and the CSR layout.
func keptCases(n int) []keptCase {
	data := randSym(n, 0.7, uint64(n)+2900)
	empty := -1
	if n > 2 {
		empty = n / 2
		clearVertex(n, data, empty)
	}
	d := FromDense(n, data, Dense, 0)
	ints := make([]float64, n)
	for i := range ints {
		ints[i] = float64(i%7 - 3)
	}
	with := func(i int, v float64) []float64 {
		b := slices.Clone(ints)
		b[i] = v
		return b
	}
	negZero := math.Copysign(0, -1)
	diag := slices.Clone(data)
	diag[0] = 1
	cases := []keptCase{
		{"nil", d, nil, true},
		{"integer", d, ints, true},
		{"diagonal", FromDense(n, diag, Dense, 0), ints, true},
		{"fractional", d, with(n-1, 0.5), false},
		{"csr", FromDense(n, data, CSR, 0), ints, false},
	}
	if slices.ContainsFunc(data[:n], func(v float64) bool { return v != 0 }) { // row 0 is coupled
		cases = append(cases, keptCase{"−0 on a coupled row", d, with(0, negZero), true})
	}
	if empty >= 0 {
		cases = append(cases, keptCase{"−0 on an empty row", d, with(empty, negZero), false})
	}
	return cases
}

// checkKept compares the kept fields with Fields and the energy read off
// them with Energy, by Float64bits.
func checkKept(t *testing.T, what string, kc keptCase, k *KeptFields, spins []int8, out []float64) {
	t.Helper()
	want := make([]float64, len(out))
	Fields(kc.c, spins, kc.base, want, 1)
	for i := range out {
		if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s %s shift %d row %d: kept %v (%#x), Fields %v (%#x)", kc.name, what, fanOutShift, i,
				out[i], math.Float64bits(out[i]), want[i], math.Float64bits(want[i]))
		}
	}
	if e, w := k.Energy(spins, out), Energy(kc.c, spins, kc.base); math.Float64bits(e) != math.Float64bits(w) {
		t.Fatalf("%s %s shift %d: energy %v (%#x), Energy %v (%#x)", kc.name, what, fanOutShift, e, math.Float64bits(e), w, math.Float64bits(w))
	}
}

// TestKeptFieldsMatchFields is the fan-out's differential: after every
// change of signs the kept fields carry Fields' bits and Energy reads
// Energy's, on both kernels, with the crossover forced to each arm in
// turn and at its own place. The signs change twice over: random sets of
// every size from none to all (past fanOutRows at n = 2000), and the
// steps of a bifurcation run, whose early steps flip more than n/16 signs
// and late ones few. n covers the lanes' partial quads and words (7, 9,
// 63, 65) and a K2000; there the cases that never fan out are left to the
// smaller n, since their every change is Fields itself.
func TestKeptFieldsMatchFields(t *testing.T) {
	own := fanOutShift
	defer func() { fanOutShift = own }()
	for _, n := range []int{1, 2, 3, 7, 9, 63, 64, 65, 512, 2000} {
		for _, kc := range keptCases(n) {
			if k := KeepFields(kc.c, kc.base); (k.d != nil) != kc.fanOut {
				t.Fatalf("n=%d %s: fans out %v, want %v", n, kc.name, k.d != nil, kc.fanOut)
			}
			if n > 512 && !kc.fanOut {
				continue
			}
			for _, shift := range []int{0, own, 64} {
				fanOutShift = shift
				lanesAndGo(func() {
					r := rng.New(uint64(n))
					spins := randSpins(n, uint64(n)+1)
					out := make([]float64, n)
					Fields(kc.c, spins, kc.base, out, 1)
					k := KeepFields(kc.c, kc.base)
					for round, size := range []int{0, 1, 2, 3, 4, 5, 7, n / 16, n/16 + 1, n / 4, n} {
						size = min(size, n)
						flipped := make([]int32, 0, size)
						for _, j := range r.Perm(n)[:size] {
							flipped = append(flipped, int32(j))
						}
						slices.Sort(flipped)
						for _, j := range flipped {
							spins[j] = -spins[j]
						}
						k.Flip(spins, flipped, out)
						checkKept(t, fmt.Sprintf("n=%d %s round %d (%d flips)", n, armName(), round, size), kc, k, spins, out)
					}

					b := Bifurcation{A0: 1, C0: 0.5 / math.Sqrt(float64(n)), Dt: 0.5}
					x, y := randVec(n, uint64(n)+2), randVec(n, uint64(n)+3)
					for i := range x {
						x[i], y[i] = 0.1*x[i], 0.1*y[i]
						spins[i] = -1
						if x[i] >= 0 {
							spins[i] = 1
						}
					}
					Fields(kc.c, spins, kc.base, out, 1)
					flipped := make([]int32, n)
					const steps = 120
					for step := 0; step < steps; step++ {
						k.Flip(spins, b.Step(x, y, out, spins, flipped, float64(step)/steps), out)
						checkKept(t, fmt.Sprintf("n=%d %s step %d", n, armName(), step), kc, k, spins, out)
					}
				})
			}
		}
	}
}

// fieldPalette holds the fields FlipFanout must carry through with the
// walk's bits whatever they are: both zeros above all, and the values
// where an addition could show a different operand.
var fieldPalette = []float64{
	0, math.Copysign(0, -1), math.Copysign(0, -1), 2, -2, 1, 0.5, -3.25, 1 << 53,
	1e300, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324,
}

// flipWalk is dense.FlipFanout's walk over a row-major matrix: the Go
// form the planes must reproduce.
func flipWalk(n int, data, fields []float64, k int, delta float64) {
	for j, v := range data[k*n : (k+1)*n] {
		fields[j] += float64(v * delta)
	}
}

// checkFanOutPlanes builds what FuzzFanOutPlanes describes from raw and
// holds both fan-outs to their Go forms by Float64bits.
func checkFanOutPlanes(t *testing.T, n, flips int, raw []byte) {
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
	withNegZero := next()%2 == 0
	data := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := []float64{0, 1, -1, 1, -1, 0, 1, -1}[next()%8]
			if v == 0 && withNegZero && next()%4 == 0 {
				v = math.Copysign(0, -1)
			}
			data[i*n+j], data[j*n+i] = v, v
		}
	}
	if e := int(next()) % (n + 1); e < n {
		clearVertex(n, data, e) // an empty row
	}
	d := FromDense(n, data, Dense, 0).(*dense) // floats where an entry is −0
	spins, base := make([]int8, n), make([]float64, n)
	for i := range spins {
		spins[i] = int8(1 - 2*int(next()&1))
		base[i] = float64(int(next()%9) - 4)
	}
	out := make([]float64, n)
	Fields(d, spins, base, out, 1)
	flipped := make([]int32, 0, flips)
	for _, j := range rng.New(uint64(next())).Perm(n)[:flips] {
		flipped = append(flipped, int32(j))
		spins[j] = -spins[j]
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s n=%d %s column %d: %v (%#x), Go form %v (%#x)", armName(), n, what, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}

	want := slices.Clone(out)
	if d.pl != nil {
		d.fanOut(spins, flipped, want)
	} else {
		Fields(d, spins, base, want, 1) // what Flip does on a float layout
	}
	k := int(next()) % n
	delta := float64(2 - 4*int(next()&1))
	fields := make([]float64, n)
	for i := range fields {
		fields[i] = fieldPalette[int(next())%len(fieldPalette)]
	}
	walked := slices.Clone(fields)
	flipWalk(n, data, walked, k, delta)
	lanesAndGo(func() {
		got := slices.Clone(out)
		KeepFields(d, base).Flip(spins, flipped, got)
		same(fmt.Sprintf("%d rows fanned out", len(flipped)), got, want)
		got = slices.Clone(fields)
		d.FlipFanout(got, k, delta)
		same(fmt.Sprintf("FlipFanout of row %d by %v", k, delta), got, walked)
	})
}

// FuzzFanOutPlanes is the proof of fanOutLanes, as FuzzSBMStep is
// sbmStep's. From raw bytes: a symmetric matrix of +1, −1 and zeros over
// n = 1 + size mod 130 spins — every tail of a quad and of a 64-column
// word — with −0 entries (so a float layout) in half the inputs and an
// empty row in most,
// ±1 spins, integer bases and a set of flips mod (n+1) flipped rows, past
// one pass's fanOutRows at the largest n. On both kernels, with every
// flip set fanned out, KeptFields.Flip must carry dense.fanOut's bits,
// and FlipFanout of one row by ±2 the walk's over fields of every kind,
// −0 and NaN included.
func FuzzFanOutPlanes(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	r := rng.New(3100)
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 66, 100, 127, 128, 129, 130} {
		for _, flips := range []int{0, 1, 12, n} {
			raw := make([]byte, 64)
			for i := range raw {
				raw[i] = byte(r.Intn(256))
			}
			raw[0] = byte(flips % 2) // −0 entries in every other seed
			f.Add(uint8(n-1), uint8(flips), raw)
		}
	}
	f.Fuzz(func(t *testing.T, size, flips uint8, raw []byte) {
		defer func(s int) { fanOutShift = s }(fanOutShift)
		fanOutShift = 0
		n := 1 + int(size)%130
		checkFanOutPlanes(t, n, int(flips)%(n+1), raw)
	})
}

// TestFlipFanoutKeepsZeroSigns pins the one decision FlipFanout's planes
// arm makes about zeros. A −0 field is no reason to walk: the lanes add
// float64(J_kj)·d, which for a zero entry is +0·d — −0 when d = −2 — the
// walk's very term, so a −0 field stays −0 or becomes +0 exactly as the
// walk has it. A −0 entry has no planes arm to take: its sign is in
// neither plane, the lanes would add +0·d where the walk adds −0·d, and
// so a matrix that holds one is stored as floats.
func TestFlipFanoutKeepsZeroSigns(t *testing.T) {
	const n = 70
	negZero := math.Copysign(0, -1)
	data := randSym(n, 0.5, 7)
	mixed := slices.Clone(data)
	mixed[3*n+5], mixed[5*n+3] = negZero, negZero
	for _, tc := range []struct {
		name   string
		data   []float64
		planes bool
	}{{"+0 zeros", data, true}, {"a −0 entry", mixed, false}} {
		d := FromDense(n, tc.data, Dense, 0).(*dense)
		if (d.pl != nil) != tc.planes || (d.data != nil) == tc.planes {
			t.Fatalf("%s: planes %v, floats %v", tc.name, d.pl != nil, d.data != nil)
		}
		for _, k := range []int{3, 5, n - 1} {
			for _, delta := range []float64{2, -2, 0.5} {
				fields := make([]float64, n)
				for i := range fields {
					fields[i] = negZero
				}
				want := slices.Clone(fields)
				flipWalk(n, tc.data, want, k, delta)
				lanesAndGo(func() {
					got := slices.Clone(fields)
					d.FlipFanout(got, k, delta)
					for j := range want {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("%s %s row %d by %v column %d: %v (%#x), walk %v (%#x)", tc.name, armName(), k, delta, j,
								got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
						}
					}
				})
			}
		}
	}
	if !useAVX {
		return
	}
	// Why a −0 entry is floats: the lanes over its planes part from the walk.
	fields := []float64{negZero, negZero, negZero, negZero}
	lanes, walked := slices.Clone(fields), slices.Clone(fields)
	withNegZero := []float64{0, negZero, 1, 1, negZero, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0}
	p := newPlanes(4, packRows(4, withNegZero))
	p.addRows([]int{0, p.words}, -2, lanes)
	flipWalk(4, withNegZero, walked, 0, -2)
	if math.Float64bits(lanes[1]) == math.Float64bits(walked[1]) {
		t.Fatalf("the lanes and the walk agree on a −0 entry (%v): nothing to guard", lanes[1])
	}
}

// TestUpperSumsMatchWalk: the popcount sums of a ±1 matrix carry the
// walk's bits, and every other view walks.
func TestUpperSumsMatchWalk(t *testing.T) {
	walk := func(n int, data []float64) (sum, sumSq float64) {
		for i := 0; i < n; i++ {
			for _, v := range data[i*n+i+1 : (i+1)*n] {
				if v != 0 {
					sum += v
					sumSq += float64(v * v)
				}
			}
		}
		return sum, sumSq
	}
	for _, n := range []int{1, 2, 3, 63, 64, 65, 130} {
		for _, density := range []float64{1, 0.4, 0} {
			unit := randSym(n, density, uint64(n)+7)
			negZero := slices.Clone(unit)
			if n > 1 {
				negZero[1] = math.Copysign(0, -1) // a −0 entry is no entry, and makes floats
			}
			weighted := slices.Clone(unit)
			for i := range weighted {
				weighted[i] *= 0.3
			}
			planes := FromDense(n, unit, Dense, 0)
			if planes.(*dense).pl == nil {
				t.Fatalf("n=%d: a ±1 matrix built no planes", n)
			}
			for _, tc := range []struct {
				name string
				c    Coupling
				data []float64
			}{
				{"planes", planes, unit},
				{"csr", FromDense(n, unit, CSR, 0), unit},
				{"−0 floats", FromDense(n, negZero, Dense, 0), negZero},
				{"weighted", FromDense(n, weighted, Dense, 0), weighted},
			} {
				name := tc.name
				sum, sumSq := UpperSums(tc.c)
				wSum, wSq := walk(n, tc.data)
				if math.Float64bits(sum) != math.Float64bits(wSum) || math.Float64bits(sumSq) != math.Float64bits(wSq) {
					t.Fatalf("n=%d density %v %s: sums (%v, %v), walk (%v, %v)", n, density, name, sum, sumSq, wSum, wSq)
				}
			}
		}
	}
}
