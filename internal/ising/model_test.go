package ising

import (
	"math"
	"testing"
	"testing/quick"

	"mbrim/internal/lattice"
	"mbrim/internal/rng"
)

// randomBuilder collects a fully connected model with integer couplings
// in [-3,3] and biases in [-2,2], the regime the benchmarks live in.
func randomBuilder(n int, r *rng.Source) *Builder {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.SetCoupling(i, j, float64(r.Intn(7)-3))
		}
		b.SetBias(i, float64(r.Intn(5)-2))
	}
	return b
}

func randomModel(n int, r *rng.Source) *Model { return randomBuilder(n, r).mustBuild() }

// naiveEnergy is the textbook O(N^2) reference implementation.
func naiveEnergy(m *Model, s []int8) float64 {
	e := 0.0
	for i := 0; i < m.N(); i++ {
		for j := i + 1; j < m.N(); j++ {
			e -= m.Coupling(i, j) * float64(s[i]) * float64(s[j])
		}
		e -= m.Mu() * m.Bias(i) * float64(s[i])
	}
	return e
}

func TestNewModelPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBuilder(0) did not panic")
		}
	}()
	NewBuilder(0)
}

// TestBuildRejects: everything untrusted input can get wrong is an error
// from Build — the first one — and never a panic or a model.
func TestBuildRejects(t *testing.T) {
	for name, feed := range map[string]func() *Builder{
		"self-coupling":   func() *Builder { b := NewBuilder(3); b.SetCoupling(1, 1, 1); return b },
		"index range":     func() *Builder { b := NewBuilder(2); b.SetCoupling(0, 5, 1); return b },
		"negative index":  func() *Builder { b := NewBuilder(2); b.SetCoupling(-1, 1, 1); return b },
		"bias range":      func() *Builder { b := NewBuilder(2); b.SetBias(2, 1); return b },
		"NaN coupling":    func() *Builder { b := NewBuilder(3); b.SetCoupling(0, 1, math.NaN()); return b },
		"Inf coupling":    func() *Builder { b := NewBuilder(3); b.SetCoupling(0, 1, math.Inf(-1)); return b },
		"NaN bias":        func() *Builder { b := NewBuilder(3); b.SetBias(0, math.NaN()); return b },
		"Inf μ":           func() *Builder { b := NewBuilder(3); b.SetMu(math.Inf(1)); return b },
		"overwritten NaN": func() *Builder { b := NewBuilder(3); b.SetCoupling(0, 1, math.NaN()); b.SetCoupling(0, 1, 1); return b },
	} {
		t.Run(name, func(t *testing.T) {
			b := feed()
			if m, err := b.Build(); err == nil {
				t.Fatalf("Build accepted it: %v", m)
			}
			if _, err := b.Build(); err == nil {
				t.Fatal("the second Build forgot the error")
			}
		})
	}
	b := NewBuilder(2)
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("a builder built twice: two models would share one array")
	}
}

func TestSetCouplingSymmetric(t *testing.T) {
	b := NewBuilder(4)
	b.SetCoupling(1, 3, 7)
	b.SetCoupling(3, 1, -2.5) // the same pair: the last write wins
	m := b.mustBuild()
	if m.Coupling(3, 1) != -2.5 || m.Coupling(1, 3) != -2.5 {
		t.Fatal("SetCoupling is not symmetric")
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
}

func TestEnergyMatchesNaive(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(40)
		m := randomModel(n, r)
		s := RandomSpins(n, r)
		got := m.Energy(s)
		want := naiveEnergy(m, s)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("n=%d: Energy=%v naive=%v", n, got, want)
		}
	}
}

func TestEnergyFromFieldsMatchesEnergy(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(40)
		m := randomModel(n, r)
		s := RandomSpins(n, r)
		f := m.LocalFields(s, nil)
		if d := math.Abs(m.EnergyFromFields(s, f) - m.Energy(s)); d > 1e-9 {
			t.Fatalf("n=%d: EnergyFromFields differs by %v", n, d)
		}
	}
}

func TestLocalFieldsDefinition(t *testing.T) {
	r := rng.New(3)
	n := 17
	m := randomModel(n, r)
	s := RandomSpins(n, r)
	f := m.LocalFields(s, nil)
	for i := 0; i < n; i++ {
		want := 0.0
		for j := 0; j < n; j++ {
			want += m.Coupling(i, j) * float64(s[j])
		}
		if math.Abs(f[i]-want) > 1e-9 {
			t.Fatalf("field %d: got %v want %v", i, f[i], want)
		}
	}
}

func TestLocalFieldsReusesBuffer(t *testing.T) {
	r := rng.New(4)
	m := randomModel(8, r)
	s := RandomSpins(8, r)
	buf := make([]float64, 8)
	out := m.LocalFields(s, buf)
	if &out[0] != &buf[0] {
		t.Fatal("LocalFields allocated despite adequate buffer")
	}
}

func TestFlipDeltaMatchesRecompute(t *testing.T) {
	// Invariant from DESIGN.md: ΔE from the cached local field equals
	// the full energy recomputation, for any flip.
	r := rng.New(5)
	f := func(seed uint32, flips uint8) bool {
		rr := rng.New(uint64(seed))
		n := 3 + rr.Intn(30)
		m := randomModel(n, rr)
		s := RandomSpins(n, rr)
		fields := m.LocalFields(s, nil)
		e := m.Energy(s)
		for step := 0; step < int(flips%40)+1; step++ {
			k := rr.Intn(n)
			delta := m.FlipDelta(s, fields, k)
			m.ApplyFlip(s, fields, k)
			e += delta
			if math.Abs(e-m.Energy(s)) > 1e-6 {
				return false
			}
		}
		return true
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyFlipUpdatesFieldsConsistently(t *testing.T) {
	r := rng.New(6)
	n := 25
	m := randomModel(n, r)
	s := RandomSpins(n, r)
	fields := m.LocalFields(s, nil)
	for step := 0; step < 200; step++ {
		k := r.Intn(n)
		m.ApplyFlip(s, fields, k)
	}
	fresh := m.LocalFields(s, nil)
	for i := range fresh {
		if math.Abs(fresh[i]-fields[i]) > 1e-6 {
			t.Fatalf("field %d drifted: cached %v fresh %v", i, fields[i], fresh[i])
		}
	}
}

func TestImprovingFlipLowersEnergy(t *testing.T) {
	// The "wrong spin" criterion of Eq. 4: σ_k (Σ J σ) < 0 with zero
	// bias means flipping k improves energy.
	r := rng.New(7)
	n := 20
	b := randomBuilder(n, r)
	for i := 0; i < n; i++ {
		b.SetBias(i, 0)
	}
	m := b.mustBuild()
	s := RandomSpins(n, r)
	fields := m.LocalFields(s, nil)
	for k := 0; k < n; k++ {
		wrong := float64(s[k])*fields[k] < 0
		delta := m.FlipDelta(s, fields, k)
		if wrong && delta >= 0 {
			t.Fatalf("spin %d is wrong by Eq. 4 but flip delta is %v", k, delta)
		}
		if !wrong && delta < 0 {
			t.Fatalf("spin %d is right by Eq. 4 but flip delta is %v", k, delta)
		}
	}
}

func TestBiasAsExtraSpinEquivalence(t *testing.T) {
	// Footnote 4 of the paper: the bias term μ h_i σ_i can be folded
	// into a coupling J_{i,n+1} to an extra spin fixed at +1.
	r := rng.New(8)
	n := 12
	m := randomModel(n, r)
	eb := NewBuilder(n + 1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			eb.SetCoupling(i, j, m.Coupling(i, j))
		}
		eb.SetCoupling(i, n, m.Mu()*m.Bias(i))
	}
	ext := eb.mustBuild()
	for trial := 0; trial < 10; trial++ {
		s := RandomSpins(n, r)
		se := append(CopySpins(s), 1)
		if d := math.Abs(m.Energy(s) - ext.Energy(se)); d > 1e-9 {
			t.Fatalf("extra-spin folding broke energy by %v", d)
		}
	}
}

// TestValidateCatchesAsymmetry: there is no asymmetric matrix to catch —
// a pair written both ways round is one pair, and both triangles of
// every layout read the value it folded to.
func TestValidateCatchesAsymmetry(t *testing.T) {
	for _, n := range []int{3, 40} { // the dense array, the list
		b := NewBuilder(n)
		b.SetCoupling(0, 1, 1)
		b.SetCoupling(1, 0, -4)
		b.SetCoupling(2, 1, 0.5)
		b.SetCoupling(1, 2, 0.75)
		m := b.mustBuild()
		for _, kind := range []lattice.Kind{lattice.Auto, lattice.Dense, lattice.CSR} {
			v := m.As(kind)
			if v.Coupling(0, 1) != -4 || v.Coupling(1, 0) != -4 || v.Coupling(1, 2) != 0.75 || v.Coupling(2, 1) != 0.75 {
				t.Fatalf("n=%d %v: J01=%v J10=%v J12=%v J21=%v", n, kind, v.Coupling(0, 1), v.Coupling(1, 0), v.Coupling(1, 2), v.Coupling(2, 1))
			}
		}
	}
}

// TestValidateCatchesNaN: validation is Build's, and a NaN does not get
// past it even when a later write covers it.
func TestValidateCatchesNaN(t *testing.T) {
	b := NewBuilder(3)
	b.SetCoupling(0, 1, math.NaN())
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a NaN coupling")
	}
}

func TestEnergyPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Energy with short spins did not panic")
		}
	}()
	NewBuilder(4).mustBuild().Energy(make([]int8, 3))
}
