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
// Energy's, with the crossover forced to each arm in turn and at its own
// place. The signs change twice over: random sets of every size from
// none to all, and the steps of a bifurcation run on both kernels, whose
// early steps flip more than n/16 signs and late ones few.
func TestKeptFieldsMatchFields(t *testing.T) {
	defer func(s int) { fanOutShift = s }(fanOutShift)
	for _, n := range []int{1, 2, 3, 63, 64, 65, 512} {
		for _, kc := range keptCases(n) {
			if k := KeepFields(kc.c, kc.base); (k.d != nil) != kc.fanOut {
				t.Fatalf("n=%d %s: fans out %v, want %v", n, kc.name, k.d != nil, kc.fanOut)
			}
			for _, shift := range []int{0, 4, 64} {
				fanOutShift = shift
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
					checkKept(t, fmt.Sprintf("n=%d round %d (%d flips)", n, round, size), kc, k, spins, out)
				}

				bothKernels(func() {
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
						checkKept(t, fmt.Sprintf("n=%d avx=%v step %d", n, useAVX, step), kc, k, spins, out)
					}
				})
			}
		}
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
			if n > 1 {
				unit[1] = math.Copysign(0, -1) // a −0 entry is no entry
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
