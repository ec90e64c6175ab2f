package lattice

import (
	"math"
	"reflect"
	"testing"

	"mbrim/internal/rng"
)

// randSym builds an n×n symmetric row-major matrix with zero diagonal
// where each upper pair is nonzero with probability density, values
// ±1 like the K-graph family (density 1 gives a complete graph).
func randSym(n int, density float64, seed uint64) []float64 {
	r := rng.New(seed)
	data := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < density {
				v := float64(r.Spin())
				data[i*n+j] = v
				data[j*n+i] = v
			}
		}
	}
	return data
}

func randSpins(n int, seed uint64) []int8 {
	r := rng.New(seed)
	s := make([]int8, n)
	for i := range s {
		s[i] = r.Spin()
	}
	return s
}

func allBackends(t *testing.T, n int, data []float64, div float64) map[Kind]Coupling {
	t.Helper()
	return map[Kind]Coupling{
		Dense: FromDense(n, data, Dense, div),
		CSR:   FromDense(n, data, CSR, div),
	}
}

// TestKindString pins the names outcomes and the core.backend_solves
// label report a layout under.
func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Auto: "auto", Dense: "dense", CSR: "csr", Kind(7): "Kind(7)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestResolveByDensity(t *testing.T) {
	// 5% of 100×100 = 500 stored entries is the CSR cutoff.
	if got := Resolve(Auto, 100, 500); got != CSR {
		t.Errorf("Auto at cutoff density -> %v, want csr", got)
	}
	if got := Resolve(Auto, 100, 501); got != Dense {
		t.Errorf("Auto above cutoff -> %v, want dense", got)
	}
	for _, k := range []Kind{Dense, CSR} {
		if got := Resolve(k, 100, 0); got != k {
			t.Errorf("Resolve(%v) = %v, want pass-through", k, got)
		}
	}
}

func TestFromDenseAutoPicksByDensity(t *testing.T) {
	n := 64
	if k := FromDense(n, randSym(n, 1, 1), Auto, 0).Kind(); k != Dense {
		t.Errorf("complete graph resolved to %v, want dense", k)
	}
	if k := FromDense(n, randSym(n, 0.02, 1), Auto, 0).Kind(); k != CSR {
		t.Errorf("2%%-density graph resolved to %v, want csr", k)
	}
}

func TestBackendStructure(t *testing.T) {
	n := 37
	data := randSym(n, 0.3, 7)
	nnz, _ := countEntries(data)
	for kind, c := range allBackends(t, n, data, 0) {
		if c.Kind() != kind {
			t.Errorf("%v: Kind() = %v", kind, c.Kind())
		}
		if c.N() != n || c.NNZ() != nnz {
			t.Errorf("%v: N=%d NNZ=%d, want %d/%d", kind, c.N(), c.NNZ(), n, nnz)
		}
		for i := 0; i < n; i++ {
			prev := -1
			cnt := 0
			c.Scan(i, func(j int, v float64) {
				if j <= prev {
					t.Fatalf("%v: row %d columns not ascending (%d after %d)", kind, i, j, prev)
				}
				prev = j
				cnt++
				if v != data[i*n+j] {
					t.Fatalf("%v: entry (%d,%d) = %v, want %v", kind, i, j, v, data[i*n+j])
				}
			})
			if cnt != c.RowNNZ(i) {
				t.Errorf("%v: row %d scanned %d entries, RowNNZ says %d", kind, i, cnt, c.RowNNZ(i))
			}
		}
	}
}

func TestDivScalesLikeTheEngines(t *testing.T) {
	n := 16
	data := randSym(n, 1, 3)
	const scale = 3.7
	for kind, c := range allBackends(t, n, data, scale) {
		c.Scan(0, func(j int, v float64) {
			if want := data[j] / scale; v != want {
				t.Fatalf("%v: scaled entry (0,%d) = %v, want %v", kind, j, v, want)
			}
		})
	}
}

// TestConvertRelaysEntryForEntry: from either layout to either layout,
// scaled or not, Convert stores what FromDense would have stored from
// the array — the same entries in the same order with the same bits, the
// same symmetry verdict, planes exactly on an unscaled ±1 dense result —
// and hands back its argument when there is nothing to do.
func TestConvertRelaysEntryForEntry(t *testing.T) {
	weighted := randSym(37, 0.3, 7)
	for i, v := range weighted {
		weighted[i] = v * (0.25 + float64(i%7))
	}
	tiny := randSym(9, 1, 2)
	for i, v := range tiny {
		tiny[i] = v * math.SmallestNonzeroFloat64 // a quotient that underflows stays an entry
	}
	for name, data := range map[string][]float64{"±1": randSym(70, 0.6, 1), "weighted": weighted, "tiny": tiny, "empty": make([]float64, 16)} {
		n := int(math.Sqrt(float64(len(data))))
		for _, div := range []float64{0, 1, 3.7} {
			for from, src := range allBackends(t, n, data, 0) {
				for to, want := range allBackends(t, n, data, div) {
					got := Convert(src, to, div)
					if got.Kind() != to || got.N() != n || got.NNZ() != want.NNZ() {
						t.Fatalf("%s %v→%v /%v: kind %v n %d nnz %d, want nnz %d", name, from, to, div, got.Kind(), got.N(), got.NNZ(), want.NNZ())
					}
					if (div == 0 || div == 1) && from == to && got != src {
						t.Errorf("%s %v→%v /%v: an unscaled view of the stored layout was rebuilt", name, from, to, div)
					}
					for i := 0; i < n; i++ {
						var a, b []float64
						got.Scan(i, func(j int, v float64) { a = append(a, float64(j), v) })
						want.Scan(i, func(j int, v float64) { b = append(b, float64(j), v) })
						if len(a) != len(b) || got.RowNNZ(i) != want.RowNNZ(i) {
							t.Fatalf("%s %v→%v /%v: row %d has %d entries, want %d", name, from, to, div, i, len(a)/2, len(b)/2)
						}
						for k := range a {
							if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
								t.Fatalf("%s %v→%v /%v: row %d entry %d = %v, want %v", name, from, to, div, i, k/2, a[k], b[k])
							}
						}
					}
					if d, ok := got.(*dense); ok {
						w := want.(*dense)
						if d.sym != w.sym || (d.pl != nil) != (w.pl != nil) {
							t.Errorf("%s %v→%v /%v: sym %v planes %v, want %v %v", name, from, to, div, d.sym, d.pl != nil, w.sym, w.pl != nil)
						}
					}
				}
			}
		}
	}
	// Auto resolves by the source's own density.
	if k := Convert(FromDense(64, randSym(64, 0.02, 1), Dense, 0), Auto, 0).Kind(); k != CSR {
		t.Errorf("a 2%%-dense matrix converted to %v under Auto", k)
	}
}

func TestFlipDeltaAndFanout(t *testing.T) {
	n := 24
	data := randSym(n, 0.5, 11)
	spins := randSpins(n, 12)
	for kind, c := range allBackends(t, n, data, 0) {
		fields := make([]float64, n)
		Fields(c, spins, nil, fields, 1)
		// ΔE from the rule must match a brute-force energy difference.
		k := 5
		muH := 0.25
		want := 2 * float64(spins[k]) * (fields[k] + muH)
		if got := FlipDelta(spins, fields, k, muH); got != want {
			t.Errorf("%v: FlipDelta = %v, want %v", kind, got, want)
		}
		// Fanout must land the fields exactly where a recompute does.
		old := spins[k]
		spins[k] = -spins[k]
		c.FlipFanout(fields, k, -2*float64(old))
		fresh := make([]float64, n)
		Fields(c, spins, nil, fresh, 1)
		for i := range fields {
			if i == k {
				continue // L_k does not depend on σ_k; fanout leaves it stale by design
			}
			if math.Abs(fields[i]-fresh[i]) > 1e-12 {
				t.Errorf("%v: field %d after fanout %v, recompute %v", kind, i, fields[i], fresh[i])
			}
		}
		spins[k] = old
	}
}

func TestFromCSRRejectsBadLayout(t *testing.T) {
	for name, fn := range map[string]func(){
		"short rowStart": func() { FromCSR(2, []int{0, 0}, nil, nil) },
		"nnz mismatch":   func() { FromCSR(1, []int{0, 1}, []int{0}, nil) },
		"descending":     func() { FromCSR(3, []int{0, 2, 2, 2}, []int{2, 1}, []float64{1, 2}) },
		"col == n":       func() { FromCSR(3, []int{0, 1, 1, 1}, []int{3}, []float64{1}) },
		"col == -1":      func() { FromCSR(3, []int{0, 1, 1, 1}, []int{-1}, []float64{1}) },
		"col == i":       func() { FromCSR(3, []int{0, 0, 1, 1}, []int{1}, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FromCSR %s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestCSRMatVecRangeRejectsShortSlices: the lanes load x, base and out
// unchecked, so a short slice must be a Go panic before they run — on
// both kernels, over a whole window, where the lanes would take it.
func TestCSRMatVecRangeRejectsShortSlices(t *testing.T) {
	const n = 300
	c := FromDense(n, randSym(n, 0.03, 5), CSR, 0)
	full := make([]float64, n)
	for name, fn := range map[string]func(){
		"short x":    func() { c.MatVecRange(full[:n-1], nil, make([]float64, n), 0, n) },
		"short out":  func() { c.MatVecRange(full, nil, make([]float64, KernelChunk-1), 0, KernelChunk) },
		"short base": func() { c.MatVecRange(full, full[:KernelChunk-1], make([]float64, n), 0, KernelChunk) },
		"hi past n":  func() { c.MatVecRange(append(full, 0), nil, make([]float64, n+1), 0, n+1) },
	} {
		lanesAndGo(func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MatVecRange with %s (%s) did not panic", name, armName())
				}
			}()
			fn()
		})
	}
}

// TestFromUpperIsFromDense: mirroring the upper triangle and counting it
// in one pass gives what FromDense gives for the whole symmetric matrix —
// the same entries, count, symmetry and planes, or the same compressed
// rows where the count resolves to CSR — for ±1 and weighted matrices,
// whole and partial tiles.
func TestFromUpperIsFromDense(t *testing.T) {
	for _, n := range []int{1, 2, 31, 33, 64, 100, 130} {
		for _, tc := range []struct {
			name    string
			density float64
			scale   float64
		}{{"complete", 1, 1}, {"sparse", 0.02, 1}, {"weighted", 0.6, 0.5}} {
			full := randSym(n, tc.density, uint64(n))
			for k := range full {
				full[k] *= tc.scale
			}
			upper := make([]float64, n*n)
			for i := 0; i < n; i++ {
				copy(upper[i*n+i+1:(i+1)*n], full[i*n+i+1:(i+1)*n])
			}
			got, want := FromUpper(n, upper), FromDense(n, full, Auto, 0)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d %s: FromUpper differs from FromDense (kinds %v, %v; nnz %d, %d)",
					n, tc.name, got.Kind(), want.Kind(), got.NNZ(), want.NNZ())
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("FromUpper with wrong size did not panic")
		}
	}()
	FromUpper(3, make([]float64, 8))
}

func TestFromDenseRejectsBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromDense with wrong size did not panic")
		}
	}()
	FromDense(3, make([]float64, 8), Dense, 0)
}
