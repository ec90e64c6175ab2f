package ising

import (
	"fmt"
	"math"
	"testing"

	"mbrim/internal/lattice"
	"mbrim/internal/rng"
)

// The storage differential. A Model used to be a mutable row-major n×n
// array with its own loops; it is now a header over whichever
// lattice.Coupling its couplings resolve to. refModel is that old Model
// — the array and the loops, verbatim — kept test-only (the way
// refMatVec and rowChip were) as the arithmetic every storage must
// reproduce bit for bit. A script is a problem as a call sequence; it
// is played into a refModel and into a Builder, and the built model,
// re-laid under each layout, is held to the reference by Float64bits.
//
// The one place a bit may differ is a coupling left at −0: the array
// kept the sign, the builder stores no such entry (no layout can tell
// one from an absent coupling). normalize makes the reference agree;
// TestNegativeZeroCouplingIsNoCoupling pins what that changes.

type refModel struct {
	n  int
	j  []float64 // row-major n×n, symmetric, zero diagonal
	h  []float64
	mu float64
}

func newRef(n int) *refModel {
	return &refModel{n: n, j: make([]float64, n*n), h: make([]float64, n), mu: 1}
}

func (m *refModel) setCoupling(i, j int, v float64) {
	m.j[i*m.n+j] = v
	m.j[j*m.n+i] = v
}

func (m *refModel) row(i int) []float64 { return m.j[i*m.n : (i+1)*m.n] }

// normalize rewrites −0 couplings as +0.
func (m *refModel) normalize() {
	for k, v := range m.j {
		if v == 0 {
			m.j[k] = 0
		}
	}
}

func (m *refModel) nnz() int {
	c := 0
	for _, v := range m.j {
		if v != 0 {
			c++
		}
	}
	return c
}

func (m *refModel) energy(spins []int8) float64 {
	e := 0.0
	for i := 0; i < m.n; i++ {
		row := m.row(i)
		si := float64(spins[i])
		acc := 0.0
		for j := i + 1; j < m.n; j++ {
			acc += row[j] * float64(spins[j])
		}
		e -= si * acc
		e -= m.mu * m.h[i] * si
	}
	return e
}

func (m *refModel) localFields(spins []int8) []float64 {
	out := make([]float64, m.n)
	// Symmetric accumulation: touch each J_ij once, update both fields.
	for i := 0; i < m.n; i++ {
		row := m.row(i)
		si := float64(spins[i])
		li := out[i]
		for j := i + 1; j < m.n; j++ {
			v := row[j]
			if v == 0 {
				continue
			}
			sj := float64(spins[j])
			li += v * sj
			out[j] += v * si
		}
		out[i] = li
	}
	return out
}

func (m *refModel) flipDelta(spins []int8, fields []float64, k int) float64 {
	return 2 * float64(spins[k]) * (fields[k] + m.mu*m.h[k])
}

func (m *refModel) applyFlip(spins []int8, fields []float64, k int) {
	old := float64(spins[k])
	spins[k] = -spins[k]
	d := -2 * old
	row := m.row(k)
	for j := 0; j < m.n; j++ {
		fields[j] += row[j] * d
	}
}

func (m *refModel) energyFromFields(spins []int8, fields []float64) float64 {
	e := 0.0
	for i := 0; i < m.n; i++ {
		si := float64(spins[i])
		e -= 0.5*fields[i]*si + m.mu*m.h[i]*si
	}
	return e
}

func (m *refModel) maxRowNorm2() float64 {
	mx := 0.0
	for i := 0; i < m.n; i++ {
		s := 0.0
		for _, v := range m.row(i) {
			s += v * v
		}
		if s > mx {
			mx = s
		}
	}
	return math.Sqrt(mx)
}

func (m *refModel) crossEnergy(sub []int, spins []int8) float64 {
	mark := make([]bool, m.n)
	for _, g := range sub {
		mark[g] = true
	}
	e := 0.0
	for i := 0; i < m.n; i++ {
		if !mark[i] {
			continue
		}
		row := m.row(i)
		si := float64(spins[i])
		for j := 0; j < m.n; j++ {
			if mark[j] {
				continue
			}
			e -= row[j] * si * float64(spins[j])
		}
	}
	return e
}

func (m *refModel) toQUBO() (*QUBO, float64) {
	q := NewQUBO(m.n)
	offset := 0.0
	for i := 0; i < m.n; i++ {
		q.AddCoeff(i, i, -2*m.mu*m.h[i])
		offset += m.mu * m.h[i]
		row := m.row(i)
		for j := i + 1; j < m.n; j++ {
			jij := row[j]
			if jij == 0 {
				continue
			}
			q.AddCoeff(i, j, -4*jij)
			q.AddCoeff(i, i, 2*jij)
			q.AddCoeff(j, j, 2*jij)
			offset -= jij
		}
	}
	return q, offset
}

// extract is Extract over the array: the sub-model, and the glue count.
func (m *refModel) extract(sub []int, spins []int8) (*refModel, int64) {
	inSub := make([]int, m.n)
	for local, g := range sub {
		inSub[g] = local + 1
	}
	out, glue := newRef(len(sub)), int64(0)
	for local, g := range sub {
		gi := m.mu * m.h[g]
		for j, v := range m.row(g) {
			if v == 0 {
				continue
			}
			if lj := inSub[j]; lj != 0 {
				if lj-1 > local {
					out.setCoupling(local, lj-1, v)
				}
			} else {
				gi += v * float64(spins[j])
				glue++
			}
		}
		out.h[local] = gi
	}
	return out, glue
}

// A script is a problem as the calls that state it.
type script struct {
	name string
	n    int
	mu   float64
	h    []float64
	ops  []scriptOp
}

type scriptOp struct {
	i, j int
	v    float64
}

func (s *script) set(i, j int, v float64) { s.ops = append(s.ops, scriptOp{i, j, v}) }

// play runs the script into the reference and into a builder.
func (s *script) play() (*refModel, *Builder) {
	ref, b := newRef(s.n), NewBuilder(s.n)
	ref.mu = s.mu
	b.SetMu(s.mu)
	for i, v := range s.h {
		ref.h[i] = v
		b.SetBias(i, v)
	}
	for _, o := range s.ops {
		ref.setCoupling(o.i, o.j, o.v)
		b.SetCoupling(o.i, o.j, o.v)
	}
	return ref, b
}

// randomScript draws a problem on n spins at the given density: ±1
// couplings when unit, else weights in ±[0.1, 3.1); every pair at most
// once, in row-major order.
func randomScript(name string, n int, density float64, unit bool, r *rng.Source) *script {
	s := &script{name: fmt.Sprintf("%s n=%d", name, n), n: n, mu: 1, h: make([]float64, n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !r.Bool(density) {
				continue
			}
			v := float64(r.Spin())
			if !unit {
				v *= 0.1 + 3*r.Float64()
			}
			s.set(i, j, v)
		}
	}
	return s
}

// storageScripts is the seeded instance set of the differential.
func storageScripts() []*script {
	r := rng.New(22)
	negZero := math.Copysign(0, -1)
	var out []*script
	for _, n := range []int{1, 2, 17, 64, 70} {
		out = append(out, randomScript("K-graph ±1", n, 1, true, r))
	}
	out = append(out,
		randomScript("sparse ±1", 130, 0.02, true, r),
		randomScript("sparse weighted", 90, 0.03, false, r),
		randomScript("dense weighted", 41, 0.7, false, r),
	)

	biased := randomScript("biased, fractional μ", 33, 0.5, false, r)
	biased.mu = 0.5
	for i := range biased.h {
		biased.h[i] = []float64{negZero, 0, 0.25, -7, 3, -1e-9}[r.Intn(6)]
	}
	intBiased := randomScript("±1 with integer biases", 66, 0.9, true, r)
	intBiased.mu = -2
	for i := range intBiased.h {
		intBiased.h[i] = float64(r.Intn(9) - 4)
	}
	out = append(out, biased, intBiased)

	// Spins 5..10 couple among themselves; every other row is empty.
	island := &script{name: "isolated spins, empty rows", n: 40, mu: 1, h: make([]float64, 40)}
	for i := 5; i <= 10; i++ {
		for j := i + 1; j <= 10; j++ {
			island.set(j, i, 0.5+r.Float64())
		}
	}
	island.h[0], island.h[39] = 2, -1.5
	out = append(out, island)

	// ±1 sets along a row: row 0 across it, row 2 a stretch later
	// overwritten by a zero, a weight and the other sign.
	// At n = 400 the calls stay a list. At n = 40 a list of ±1 sets would
	// outgrow the planes from its first block, so the calls go there from
	// the first one and spill at the weight.
	for _, n := range []int{40, 400} {
		s := &script{name: fmt.Sprintf("±1 rows n=%d", n), n: n, mu: 1, h: make([]float64, n)}
		for j := 1; j < n; j++ {
			s.set(0, j, float64(r.Spin()))
		}
		for j := 3; j < 39; j++ {
			s.set(2, j, float64(r.Spin()))
		}
		s.set(2, 10, 0)
		s.set(2, 11, 0.5)
		s.set(2, 12, -1)
		s.set(2, 12, 1)
		s.set(0, n-1, 0)
		out = append(out, s)
	}
	// A dense ±1 problem that stays in the planes through overwrites and
	// zeros.
	over := randomScript("K-graph ±1, overwritten", 50, 1, true, r)
	for k := 0; k < 200; k++ {
		if i, j := r.Intn(50), r.Intn(50); i != j {
			over.set(i, j, float64(r.Intn(3)-1))
		}
	}
	// ±1 sets at 4.5 %: the list moves to the planes at 512 calls, where
	// its next block would outgrow them, and Build compresses the planes,
	// since the count still resolves to CSR.
	early := randomScript("±1 past the planes' size", 200, 0.045, true, r)
	out = append(out, over, early)

	// Pairs written several times in both orders, overwritten by zeros
	// of both signs — once on few spins (the calls land in the dense
	// array) and once on many (they stay a list). Only the last call on a
	// pair may count, so a fold out of call order shows.
	for _, n := range []int{12, 150} {
		d := &script{name: fmt.Sprintf("overwrites and zeros n=%d", n), n: n, mu: 1, h: make([]float64, n)}
		for k := 0; k < 40; k++ {
			i, j := r.Intn(n), r.Intn(n)
			if i == j {
				continue
			}
			switch k % 8 {
			case 0:
				d.set(i, j, 0.1)
				d.set(j, i, 0.2)
				d.set(i, j, 0.3)
			case 1:
				d.set(i, j, 5)
				d.set(j, i, 0.3)
				d.set(i, j, 0.1)
			case 2:
				d.set(i, j, 0.7)
				d.set(j, i, -1.25)
			case 3:
				d.set(i, j, 1.75)
				d.set(j, i, 0)
			case 4:
				d.set(i, j, 3)
				d.set(i, j, 0)
			case 5:
				d.set(j, i, negZero)
			case 6:
				d.set(i, j, 2)
				d.set(i, j, negZero)
			case 7:
				d.set(i, j, -2)
				d.set(j, i, -2)
			}
		}
		out = append(out, d)
	}
	return out
}

// sameBits compares by representation, except that two NaNs (an energy
// of a fuzzed model whose sums overflow both ways) need not share a
// payload.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkStorage holds built, under its stored layout and re-laid as
// each of the two, to the (normalized) reference on everything a Model
// answers.
func checkStorage(t testing.TB, name string, ref *refModel, built *Model) {
	t.Helper()
	n := ref.n
	r := rng.New(uint64(n)*977 + uint64(len(name)))
	spins := RandomSpins(n, r)
	sub := r.Perm(n)[:(n+1)/2]
	refQ, refOff := ref.toQUBO()
	refSub, refGlue := ref.extract(sub, spins)
	for _, kind := range []lattice.Kind{lattice.Auto, lattice.Dense, lattice.CSR} {
		m := built.As(kind)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s, stored %v as %v: %s", name, built.c.Kind(), kind, fmt.Sprintf(format, args...))
		}
		if kind != lattice.Auto && m.c.Kind() != kind {
			fail("View is %v", m.c.Kind())
		}
		if m.N() != n || m.NNZ() != ref.nnz() || !sameBits(m.Mu(), ref.mu) {
			fail("n=%d nnz=%d μ=%v, want %d %d %v", m.N(), m.NNZ(), m.Mu(), n, ref.nnz(), ref.mu)
		}
		for i := 0; i < n; i++ {
			if !sameBits(m.Bias(i), ref.h[i]) || !sameBits(m.MuH()[i], ref.mu*ref.h[i]) {
				fail("bias %d = %v (μh %v), want %v", i, m.Bias(i), m.MuH()[i], ref.h[i])
			}
			for j := 0; j < n; j++ {
				if !sameBits(m.Coupling(i, j), ref.j[i*n+j]) {
					fail("J(%d,%d) = %v, want %v", i, j, m.Coupling(i, j), ref.j[i*n+j])
				}
			}
		}
		if got, want := m.Energy(spins), ref.energy(spins); !sameBits(got, want) {
			fail("Energy %v (%#x), want %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got, want := m.MaxRowNorm2(), ref.maxRowNorm2(); !sameBits(got, want) {
			fail("MaxRowNorm2 %v, want %v", got, want)
		}
		if got, want := CrossEnergy(m, sub, spins), ref.crossEnergy(sub, spins); !sameBits(got, want) {
			fail("CrossEnergy %v, want %v", got, want)
		}

		// A flip sequence: fields, deltas and the running energy.
		s, rs := CopySpins(spins), CopySpins(spins)
		f, rf := m.LocalFields(s, nil), ref.localFields(rs)
		fr := rng.New(uint64(n) + 5)
		for step := 0; step <= 40; step++ {
			for i := range f {
				if !sameBits(f[i], rf[i]) {
					fail("after %d flips field %d = %v, want %v", step, i, f[i], rf[i])
				}
			}
			if got, want := m.EnergyFromFields(s, f), ref.energyFromFields(rs, rf); !sameBits(got, want) {
				fail("after %d flips EnergyFromFields %v, want %v", step, got, want)
			}
			k := fr.Intn(n)
			if got, want := m.FlipDelta(s, f, k), ref.flipDelta(rs, rf, k); !sameBits(got, want) {
				fail("after %d flips FlipDelta(%d) %v, want %v", step, k, got, want)
			}
			m.ApplyFlip(s, f, k)
			ref.applyFlip(rs, rf, k)
		}

		q, off := FromIsing(m)
		if !sameBits(off, refOff) {
			fail("FromIsing offset %v, want %v", off, refOff)
		}
		for k, v := range refQ.q {
			if !sameBits(q.q[k], v) {
				fail("FromIsing Q[%d,%d] = %v, want %v", k/n, k%n, q.q[k], v)
			}
		}

		// A scattered window, extracted from the model as stored and as
		// each layout.
		for _, kind := range []lattice.Kind{lattice.Auto, lattice.Dense, lattice.CSR} {
			sp := Extract(m.As(kind), sub, spins)
			if sp.GlueOps != refGlue || sp.Model.Mu() != 1 {
				fail("Extract: %d glue ops (want %d), μ=%v", sp.GlueOps, refGlue, sp.Model.Mu())
			}
			for a := range sub {
				if !sameBits(sp.Model.Bias(a), refSub.h[a]) {
					fail("Extract: g[%d] = %v, want %v", a, sp.Model.Bias(a), refSub.h[a])
				}
				for b := range sub {
					if !sameBits(sp.Model.Coupling(a, b), refSub.j[a*len(sub)+b]) {
						fail("Extract: J(%d,%d) = %v, want %v", a, b, sp.Model.Coupling(a, b), refSub.j[a*len(sub)+b])
					}
				}
			}
		}
	}
}

// TestStorageDifferential is the whole instance set under all three
// layouts.
func TestStorageDifferential(t *testing.T) {
	stored := map[lattice.Kind]int{}
	for _, s := range storageScripts() {
		ref, b := s.play()
		ref.normalize()
		m, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		stored[m.c.Kind()]++
		checkStorage(t, s.name, ref, m)
	}
	if stored[lattice.Dense] < 3 || stored[lattice.CSR] < 3 {
		t.Fatalf("the instance set froze into %v: it must exercise both layouts", stored)
	}
}

// StorageCase is one instance of the differential as the external half
// (storage_ext_test.go, which needs packages that import this one)
// takes it: the built model under one layout, and the reference's
// array.
type StorageCase struct {
	Name  string
	Model *Model
	Dense []float64 // row-major n×n, −0 normalized
}

// StorageCases plays the instance set and re-lays every model each way.
func StorageCases(t testing.TB) []StorageCase {
	var out []StorageCase
	for _, s := range storageScripts() {
		ref, b := s.play()
		ref.normalize()
		m := b.mustBuild()
		for _, kind := range []lattice.Kind{lattice.Auto, lattice.Dense, lattice.CSR} {
			out = append(out, StorageCase{fmt.Sprintf("%s as %v", s.name, kind), m.As(kind), ref.j})
		}
	}
	return out
}

// TestNegativeZeroCouplingIsNoCoupling pins the one bit the storage
// change moved: a pair left at −0 — graph.ToIsing of a zero-weight edge
// did that — was a −0 in the array and is no entry now. Every sum is
// unchanged (adding ±0 to an accumulator that is never −0 is the
// identity, the rule zero-skipping rests on); what differs is what reads
// the entry itself: Coupling answers +0, and the checkpoint hash, which
// mixes entry bits, is that of the matrix with +0 there (the external
// half checks the hash).
func TestNegativeZeroCouplingIsNoCoupling(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, n := range []int{4, 120} { // the dense array, the list
		s := randomScript("−0", n, 0.3, false, rng.New(uint64(n)))
		s.set(0, 1, negZero)
		s.set(2, 3, negZero)
		ref, b := s.play()
		if !math.Signbit(ref.j[0*n+1]) {
			t.Fatal("the reference lost the −0 it is here to keep")
		}
		m := b.mustBuild()
		if v := m.Coupling(0, 1); v != 0 || math.Signbit(v) {
			t.Fatalf("n=%d: Coupling(0,1) = %v, want +0", n, v)
		}
		if got, want := m.NNZ(), ref.nnz(); got != want {
			t.Fatalf("n=%d: NNZ %d, want %d: a −0 became an entry", n, got, want)
		}
		spins := RandomSpins(n, rng.New(3))
		if got, want := m.Energy(spins), ref.energy(spins); !sameBits(got, want) {
			t.Fatalf("n=%d: Energy %v, the array with its −0 gives %v", n, got, want)
		}
		ref.normalize()
		checkStorage(t, s.name, ref, m)
	}
}

// The sparse_test.go behaviours, on the one model there is now: a model
// that froze into compressed rows against the same problem on the array.

// sparsePair draws a problem sparse enough to store as CSR and returns
// the built model with the dense reference.
func sparsePair(t testing.TB, n int, r *rng.Source) (*refModel, *Model) {
	t.Helper()
	s := randomScript("sparse", n, 0.02, false, r)
	s.mu = 0.5
	for i := range s.h {
		s.h[i] = float64(r.Intn(5) - 2)
	}
	ref, b := s.play()
	m := b.mustBuild()
	if m.c.Kind() != lattice.CSR {
		t.Fatalf("n=%d at 2%% density stored as %v", n, m.c.Kind())
	}
	return ref, m
}

func TestSparseDenseEnergyEquivalence(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		r := rng.New(seed)
		n := 30 + r.Intn(60)
		ref, sparse := sparsePair(t, n, r)
		dense := sparse.As(lattice.Dense)
		for trial := 0; trial < 5; trial++ {
			s := RandomSpins(n, r)
			if want := ref.energy(s); !sameBits(sparse.Energy(s), want) || !sameBits(dense.Energy(s), want) {
				t.Fatalf("seed %d: sparse %v, dense %v, array %v", seed, sparse.Energy(s), dense.Energy(s), want)
			}
		}
	}
}

func TestSparseDenseFieldsEquivalence(t *testing.T) {
	r := rng.New(1)
	ref, sparse := sparsePair(t, 75, r)
	s := RandomSpins(75, r)
	sf, df, want := sparse.LocalFields(s, nil), sparse.As(lattice.Dense).LocalFields(s, nil), ref.localFields(s)
	for i := range want {
		if !sameBits(sf[i], want[i]) || !sameBits(df[i], want[i]) {
			t.Fatalf("field %d: sparse %v dense %v array %v", i, sf[i], df[i], want[i])
		}
	}
}

func TestSparseFlipSequenceMatchesDense(t *testing.T) {
	// The same flip sequence must produce identical fields and
	// energies on both layouts.
	for seed := uint64(0); seed < 40; seed++ {
		r := rng.New(seed)
		n := 30 + r.Intn(40)
		_, sparse := sparsePair(t, n, r)
		dense := sparse.As(lattice.Dense)
		sD := RandomSpins(n, r)
		sS := CopySpins(sD)
		fD, fS := dense.LocalFields(sD, nil), sparse.LocalFields(sS, nil)
		for step := 0; step < 30; step++ {
			k := r.Intn(n)
			if dD, dS := dense.FlipDelta(sD, fD, k), sparse.FlipDelta(sS, fS, k); !sameBits(dD, dS) {
				t.Fatalf("seed %d step %d: ΔE dense %v sparse %v", seed, step, dD, dS)
			}
			dense.ApplyFlip(sD, fD, k)
			sparse.ApplyFlip(sS, fS, k)
		}
		if HammingDistance(sD, sS) != 0 || !sameBits(dense.EnergyFromFields(sD, fD), sparse.EnergyFromFields(sS, fS)) {
			t.Fatalf("seed %d: the layouts parted ways", seed)
		}
	}
}

func TestRelayRoundTrip(t *testing.T) {
	// Re-laying a model as the other layout and back changes nothing it
	// answers (As, over lattice.Convert, is the one conversion there is).
	r := rng.New(2)
	for _, m := range []*Model{randomModel(15, r), func() *Model { _, m := sparsePair(t, 60, r); return m }()} {
		back := m.As(lattice.CSR).As(lattice.Dense).As(m.c.Kind())
		if back.Mu() != m.Mu() || back.NNZ() != m.NNZ() || back.c.Kind() != m.c.Kind() {
			t.Fatalf("round trip: μ %v nnz %d %v, want %v %d %v", back.Mu(), back.NNZ(), back.c.Kind(), m.Mu(), m.NNZ(), m.c.Kind())
		}
		for i := 0; i < m.N(); i++ {
			if back.Bias(i) != m.Bias(i) {
				t.Fatalf("bias %d changed", i)
			}
			for j := 0; j < m.N(); j++ {
				if !sameBits(back.Coupling(i, j), m.Coupling(i, j)) {
					t.Fatalf("coupling (%d,%d) changed", i, j)
				}
			}
		}
	}
}

func TestNewSparseDropsZeros(t *testing.T) {
	b := NewBuilder(30)
	b.SetCoupling(0, 1, 1)
	b.SetCoupling(1, 0, 0)
	b.SetCoupling(1, 2, 2)
	m := b.mustBuild()
	if m.NNZ() != 2 {
		t.Fatalf("zeroed coupling retained: NNZ = %d", m.NNZ())
	}
	if c := m.c; c.RowNNZ(0) != 0 || c.RowNNZ(1) != 1 || c.RowNNZ(2) != 1 {
		t.Fatal("degrees wrong after zeroing")
	}
}

func TestSparseBiases(t *testing.T) {
	b := NewBuilder(30)
	b.SetCoupling(0, 1, 1)
	b.SetBias(0, 2)
	b.SetBias(1, -1)
	s := make([]int8, 30)
	for i := range s {
		s[i] = 1
	}
	// E = −J σσ − (h0σ0 + h1σ1) = −1 − (2 − 1) = −2.
	if e := b.mustBuild().Energy(s); e != -2 {
		t.Fatalf("energy %v, want -2", e)
	}
}

func TestSparsePanics(t *testing.T) {
	// What malformed input used to panic on is Build's error now
	// (TestBuildRejects); a mis-sized spin vector is still a caller's bug.
	_, m := sparsePair(t, 40, rng.New(9))
	for name, f := range map[string]func(){
		"energy len": func() { m.Energy(make([]int8, 39)) },
		"fields len": func() { m.LocalFields(make([]int8, 41), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkSparseApplyFlipDeg20(b *testing.B) {
	r := rng.New(1)
	n := 2000
	bld := NewBuilder(n)
	for _, o := range randomScript("bench", n, 0.01, false, r).ops {
		bld.SetCoupling(o.i, o.j, o.v)
	}
	sm := bld.mustBuild()
	s := RandomSpins(n, r)
	f := sm.LocalFields(s, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm.ApplyFlip(s, f, i%n)
	}
}
