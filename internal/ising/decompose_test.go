package ising

import (
	"math"
	"testing"
	"testing/quick"

	"mbrim/internal/lattice"
	"mbrim/internal/rng"
)

func TestEq3EnergyIdentity(t *testing.T) {
	// The central identity of Sec 3.2: for any bipartition and any
	// state, E = E_u + E_l − E_× exactly.
	f := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		n := 2 + r.Intn(30)
		m := randomModel(n, r)
		s := RandomSpins(n, r)
		k := 1 + r.Intn(n-1)
		perm := r.Perm(n)
		upper := perm[:k]
		lower := Complement(n, upper)

		spUpper := Extract(m, upper, s)
		spLower := Extract(m, lower, s)
		eu := spUpper.Model.Energy(spUpper.Gather(s))
		el := spLower.Model.Energy(spLower.Gather(s))
		ex := CrossEnergy(m, upper, s)
		return math.Abs(m.Energy(s)-(eu+el-ex)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSubProblemMinimizesGlobal(t *testing.T) {
	// Minimizing the sub-problem with the complement frozen minimizes
	// the global energy: E_total − E_u is constant in σ_u.
	r := rng.New(11)
	n := 10
	m := randomModel(n, r)
	s := RandomSpins(n, r)
	upper := []int{0, 2, 4, 6}
	sp := Extract(m, upper, s)

	work := CopySpins(s)
	var diffs []float64
	for mask := 0; mask < 1<<len(upper); mask++ {
		local := make([]int8, len(upper))
		for i := range local {
			if mask&(1<<i) != 0 {
				local[i] = 1
			} else {
				local[i] = -1
			}
		}
		sp.Project(local, work)
		diffs = append(diffs, m.Energy(work)-sp.Model.Energy(local))
	}
	for _, d := range diffs[1:] {
		if math.Abs(d-diffs[0]) > 1e-6 {
			t.Fatalf("E_total − E_u is not constant in σ_u: %v vs %v", d, diffs[0])
		}
	}
}

func TestExtractEffectiveBias(t *testing.T) {
	// g_u = μ h_u + J_× σ_l, element by element.
	r := rng.New(12)
	n := 9
	b := randomBuilder(n, r)
	b.SetMu(2)
	m := b.mustBuild()
	s := RandomSpins(n, r)
	upper := []int{1, 3, 8}
	sp := Extract(m, upper, s)
	lower := Complement(n, upper)
	for local, g := range upper {
		want := m.Mu() * m.Bias(g)
		for _, l := range lower {
			want += m.Coupling(g, l) * float64(s[l])
		}
		if math.Abs(sp.Model.Bias(local)-want) > 1e-9 {
			t.Fatalf("g[%d]: got %v want %v", local, sp.Model.Bias(local), want)
		}
	}
	if sp.Model.Mu() != 1 {
		t.Fatal("sub-problem must carry μ=1 (bias already scaled)")
	}
}

func TestExtractKeepsInternalCouplings(t *testing.T) {
	r := rng.New(13)
	m := randomModel(8, r)
	s := RandomSpins(8, r)
	upper := []int{2, 5, 7}
	sp := Extract(m, upper, s)
	for a := 0; a < len(upper); a++ {
		for b := a + 1; b < len(upper); b++ {
			if sp.Model.Coupling(a, b) != m.Coupling(upper[a], upper[b]) {
				t.Fatalf("internal coupling (%d,%d) not preserved", a, b)
			}
		}
	}
}

func TestGlueOpsCount(t *testing.T) {
	// Dense model: every (sub, complement) pair with a nonzero coupling
	// costs one glue op. randomModel may have zeros (weight 0 occurs),
	// so compare against an explicit count.
	r := rng.New(14)
	n := 20
	m := randomModel(n, r)
	s := RandomSpins(n, r)
	upper := r.Perm(n)[:8]
	sp := Extract(m, upper, s)
	lower := Complement(n, upper)
	var want int64
	for _, u := range upper {
		for _, l := range lower {
			if m.Coupling(u, l) != 0 {
				want++
			}
		}
	}
	if sp.GlueOps != want {
		t.Fatalf("GlueOps = %d, want %d", sp.GlueOps, want)
	}
}

func TestProjectGatherRoundTrip(t *testing.T) {
	r := rng.New(15)
	m := randomModel(12, r)
	s := RandomSpins(12, r)
	sub := []int{0, 4, 9, 11}
	sp := Extract(m, sub, s)
	local := sp.Gather(s)
	for i := range local {
		local[i] = -local[i]
	}
	sp.Project(local, s)
	back := sp.Gather(s)
	for i := range back {
		if back[i] != local[i] {
			t.Fatal("Project/Gather round trip mismatch")
		}
	}
}

func TestExtractPanicsOnDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Extract with duplicate indices did not panic")
		}
	}()
	Extract(NewBuilder(4).mustBuild(), []int{1, 1}, make([]int8, 4))
}

func TestExtractPanicsOnRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Extract with out-of-range index did not panic")
		}
	}()
	Extract(NewBuilder(4).mustBuild(), []int{5}, make([]int8, 4))
}

func TestComplement(t *testing.T) {
	got := Complement(6, []int{1, 4})
	want := []int{0, 2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("Complement length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Complement = %v, want %v", got, want)
		}
	}
}

func TestWholeProblemExtract(t *testing.T) {
	// Extracting all indices reproduces the original problem exactly
	// (no glue, same energies).
	r := rng.New(16)
	n := 10
	m := randomModel(n, r)
	s := RandomSpins(n, r)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	sp := Extract(m, all, s)
	if sp.GlueOps != 0 {
		t.Fatalf("whole-problem extract has %d glue ops", sp.GlueOps)
	}
	if math.Abs(sp.Model.Energy(s)-m.Energy(s)) > 1e-9 {
		t.Fatal("whole-problem extract changed the energy")
	}
}

func TestExtractLayoutsAgree(t *testing.T) {
	// The regression pinned by the lattice refactor: the glue scan over
	// either layout's row iterator (the same problem, As each kind) must
	// reproduce Extract over the stored one exactly — same sub-model,
	// same effective biases, and the same GlueOps ledger (only nonzero
	// cross terms ever counted).
	r := rng.New(15)
	for _, density := range []float64{1.0, 0.2} {
		n := 24
		b := NewBuilder(n)
		b.SetMu(1.5)
		for i := 0; i < n; i++ {
			b.SetBias(i, r.Float64()-0.5)
			for j := i + 1; j < n; j++ {
				if r.Float64() < density {
					b.SetCoupling(i, j, float64(r.Spin()))
				}
			}
		}
		m := b.mustBuild()
		s := RandomSpins(n, r)
		sub := r.Perm(n)[:9]
		ref := Extract(m, sub, s)
		for _, kind := range []lattice.Kind{lattice.Dense, lattice.CSR} {
			sp := Extract(m.As(kind), sub, s)
			if sp.GlueOps != ref.GlueOps {
				t.Errorf("density %v, %v: GlueOps = %d, dense Extract %d",
					density, kind, sp.GlueOps, ref.GlueOps)
			}
			for a := 0; a < len(sub); a++ {
				if sp.Model.Bias(a) != ref.Model.Bias(a) {
					t.Fatalf("density %v, %v: bias[%d] = %v, want %v",
						density, kind, a, sp.Model.Bias(a), ref.Model.Bias(a))
				}
				for b := a + 1; b < len(sub); b++ {
					if sp.Model.Coupling(a, b) != ref.Model.Coupling(a, b) {
						t.Fatalf("density %v, %v: coupling (%d,%d) differs", density, kind, a, b)
					}
				}
			}
		}
	}
}
