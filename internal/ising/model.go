// Package ising implements the Ising model underlying every solver in
// this repository: the Hamiltonian of Eq. 1/2 of the paper, cached
// local fields with O(row) flip updates, the QUBO correspondence, the
// MaxCut correspondence used by the K-graph benchmarks, and the
// bipartition rewrite of Eq. 3 that divide-and-conquer and the
// multiprocessor architecture are built on.
//
// Conventions. Spins are int8 values in {-1, +1}. The coupling matrix J
// is symmetric with zero diagonal and the energy counts each pair once:
//
//	E(σ) = -Σ_{i<j} J_ij σ_i σ_j - μ Σ_i h_i σ_i
//
// The local field of spin i is L_i = Σ_j J_ij σ_j. Flipping spin k
// changes the energy by ΔE_k = 2 σ_k (L_k + μ h_k); a negative ΔE_k is
// an improving flip.
//
// A problem is collected by a Builder and frozen by Build into a Model,
// which stores its couplings as the lattice.Coupling the engines run
// on: a fully connected K-graph as the row-major matrix, a Gset-scale
// sparse instance as compressed rows — whichever lattice.Resolve picks
// for the couplings the problem really has.
package ising

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"sort"

	"mbrim/internal/lattice"
)

// Model is an immutable Ising problem instance: n spins, per-spin
// biases h, the global bias scale μ, and the symmetric zero-diagonal
// couplings, held as the lattice.Coupling that Build froze them into.
// A Model only ever comes from Build, so its invariants — symmetry,
// zero diagonal, finite entries — are the type's. It is safe for
// concurrent use.
type Model struct {
	n   int
	mu  float64
	h   []float64
	muH []float64 // μ·h_i, the linear term every energy and ΔE adds
	c   lattice.Coupling
}

// Builder collects a problem: couplings above the diagonal, biases and
// μ (1 unless set). Input is untrusted — it arrives from the wire, from
// QUBO files and from POST /runs — so a bad index, a self-coupling or a
// non-finite value does not panic: the first one is remembered and
// returned by Build.
//
// SetCoupling calls fold in call order, pair by pair: the last call on
// a pair sets it. A pair that ends at zero of either sign is no
// coupling.
type Builder struct {
	n   int
	mu  float64
	h   []float64
	err error
	// While twice the call count still resolves to CSR the calls are
	// kept as a list, so a sparse problem never occupies n²; past that
	// the dense phase applies them above the diagonal: to up, the ±1
	// planes, while every call is a set to −1, 0 or +1, and from the
	// first other call on to data, the float array, into which up spills
	// once. A list of such sets moves to the planes early, once it would
	// outgrow them (its 16 bytes a call against their n²/4), so a K-graph
	// never lists more than its planes hold. The list grows by blocks, so
	// a call is written once and never copied.
	ops   [][]op
	nops  int
	mixed bool // a listed call sets a value other than −1, 0 or +1
	up    *lattice.UnitUpper
	data  []float64
}

// op is one SetCoupling call in 16 bytes.
type op struct {
	pair uint64 // i<<32 | j with i < j < 2³¹
	v    float64
}

func (o op) i() int { return int(o.pair >> 32) }
func (o op) j() int { return int(uint32(o.pair)) }

// maxOpBlock caps a block of the call list, and so what the list
// allocates beyond the calls it holds.
const maxOpBlock = 4096

// NewBuilder returns a builder for an n-spin model with no couplings,
// zero biases and μ = 1. It panics unless 0 < n < 2³¹: a size is the
// caller's to check, like a slice length.
func NewBuilder(n int) *Builder {
	if n <= 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("ising: NewBuilder with n=%d", n))
	}
	return &Builder{n: n, mu: 1, h: make([]float64, n)}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("ising: "+format, args...)
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// SetMu sets the global bias scale μ. Build checks it, with the biases:
// every μ·h_i must be finite, which no NaN or infinity on either side
// survives.
func (b *Builder) SetMu(mu float64) { b.mu = mu }

// SetBias sets h_i.
func (b *Builder) SetBias(i int, v float64) {
	if i < 0 || i >= b.n {
		b.fail("bias index %d out of range for n=%d", i, b.n)
		return
	}
	b.h[i] = v
}

// SetCoupling sets J_ij = J_ji = v, replacing what earlier calls left
// on the pair. The common case — a well-formed call on a builder past
// its list — is the checks and a store, into the planes or the array;
// what is rejected, the list and the spill are out of line.
func (b *Builder) SetCoupling(i, j int, v float64) {
	if b.err != nil || uint(i) >= uint(b.n) || uint(j) >= uint(b.n) || i == j || v-v != 0 {
		b.reject(i, j, v)
		return
	}
	if i > j {
		i, j = j, i
	}
	if b.up != nil {
		if b.up.Set(i, j, v) {
			return
		}
		b.spill()
	}
	if b.data == nil {
		b.list(i, j, v)
		return
	}
	if v == 0 {
		v = 0 // a −0 is no coupling, and no layout stores one
	}
	b.data[i*b.n+j] = v // the upper triangle only: Build mirrors it once
}

// spill moves the dense phase from the planes to the float array, once.
func (b *Builder) spill() {
	b.data, b.up = b.up.Spill(), nil
}

// reject records why a call was refused (v − v is nonzero exactly for
// NaN and ±Inf).
func (b *Builder) reject(i, j int, v float64) {
	switch {
	case i < 0 || j < 0 || i >= b.n || j >= b.n:
		b.fail("coupling (%d,%d) out of range for n=%d", i, j, b.n)
	case i == j:
		b.fail("self-coupling at %d is not part of the model", i)
	default:
		b.fail("non-finite coupling at (%d,%d)", i, j)
	}
}

// list appends a call (i < j) and moves the builder to its dense phase
// once twice the call count no longer resolves to CSR — or, while every
// call is a ±1 set, once the list's next block would take it past the
// planes' size.
func (b *Builder) list(i, j int, v float64) {
	if v != 0 && math.Abs(v) != 1 {
		b.mixed = true
	}
	if last := len(b.ops) - 1; last < 0 || len(b.ops[last]) == cap(b.ops[last]) {
		size := min(max(b.nops, 64), maxOpBlock)
		if !b.mixed && 16*int64(b.nops+size) > lattice.Footprint(lattice.Dense, b.n, 0, true) {
			b.dense()
			b.SetCoupling(i, j, v)
			return
		}
		if b.ops == nil {
			b.ops = make([][]op, 0, 8)
		}
		b.ops = append(b.ops, make([]op, 0, size))
	}
	last := &b.ops[len(b.ops)-1]
	*last = append(*last, op{pair: uint64(i)<<32 | uint64(j), v: v})
	if b.nops++; lattice.Resolve(lattice.Auto, b.n, 2*b.nops) == lattice.Dense {
		b.dense()
	}
}

// dense moves the builder from its list to the planes by replaying the
// list through SetCoupling.
func (b *Builder) dense() {
	ops := b.ops
	b.ops, b.up = nil, lattice.NewUnitUpper(b.n)
	for _, blk := range ops {
		for _, o := range blk {
			b.SetCoupling(o.i(), o.j(), o.v)
		}
	}
}

// Build freezes the problem into a Model, or returns the first input
// error. The couplings go straight to the layout lattice.Resolve picks
// for them — the list to compressed rows in O(n + calls), the ±1
// planes to lattice.UnitUpper.Build, which mirrors them 64×64 bits at a
// time, the float triangle to lattice.FromUpper, which mirrors it or
// packs it if it is ±1 after all — and the builder must not be used
// afterwards: the model owns its storage.
func (b *Builder) Build() (*Model, error) {
	if b.err != nil {
		return nil, b.err
	}
	var c lattice.Coupling
	switch {
	case b.up != nil:
		c = b.up.Build()
	case b.data != nil:
		c = lattice.FromUpper(b.n, b.data)
	default:
		c = b.compress()
	}
	m, err := newModel(b.mu, b.h, c)
	b.err = cmp.Or(err, errBuilt)
	return m, err
}

// FromUnitUpper freezes a ±1 triangle into a model with μ = 1 and no
// biases: the model a Builder given the same entries by SetCoupling
// builds, without the calls — the way a generator that draws a whole
// word of entries at once hands them over. u is spent.
func FromUnitUpper(u *lattice.UnitUpper) *Model {
	c := u.Build()
	m, _ := newModel(1, make([]float64, c.N()), c) // μ·0 is finite
	return m
}

var errBuilt = errors.New("ising: the builder has already built its model")

// mustBuild is Build where the input was already validated (values read
// from a Model, a QUBO's finite coefficients): an error is a bug.
func (b *Builder) mustBuild() *Model {
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}

// newModel puts the header on frozen couplings. A finite μ·h_i means a
// finite μ and a finite h_i (0·∞ is NaN), and a finite pair may still
// have a product that is not: the one check covers all three.
func newModel(mu float64, h []float64, c lattice.Coupling) (*Model, error) {
	m := &Model{n: len(h), mu: mu, h: h, muH: make([]float64, len(h)), c: c}
	for i, v := range h {
		if m.muH[i] = mu * v; !finite(m.muH[i]) {
			return nil, fmt.Errorf("ising: bias term μ·h = %v·%v at %d is not finite", mu, v, i)
		}
	}
	return m, nil
}

// compress folds the call list into compressed rows, in the one buffer
// the rows are handed to lattice.FromCSR in. One stable counting pass
// files every call under both of its rows in call order; a stable sort
// of each row by column puts the calls of a pair side by side, still in
// call order, where a walk keeps the last one — the same value in both
// rows, from the same call — and the kept pairs are compacted in place
// with every row's columns ascending.
func (b *Builder) compress() lattice.Coupling {
	n := b.n
	rowStart := make([]int, n+1)
	for _, blk := range b.ops {
		for _, o := range blk {
			rowStart[o.i()+1]++
			rowStart[o.j()+1]++
		}
	}
	for r := 0; r < n; r++ {
		rowStart[r+1] += rowStart[r]
	}
	// Filing moves rowStart[r] from the start of row r to its end.
	cols, vals := make([]int, 2*b.nops), make([]float64, 2*b.nops)
	for _, blk := range b.ops {
		for _, o := range blk {
			i, j := o.i(), o.j()
			cols[rowStart[i]], vals[rowStart[i]] = j, o.v
			rowStart[i]++
			cols[rowStart[j]], vals[rowStart[j]] = i, o.v
			rowStart[j]++
		}
	}
	b.ops = nil
	row, w := &byColumn{}, 0
	for r, lo := 0, 0; r < n; r++ {
		hi := rowStart[r]
		rowStart[r] = w
		row.cols, row.vals = cols[lo:hi], vals[lo:hi]
		sort.Stable(row)
		for k := lo; k < hi; {
			j, v := cols[k], 0.0
			for ; k < hi && cols[k] == j; k++ {
				v = vals[k]
			}
			if v != 0 {
				cols[w], vals[w] = j, v
				w++
			}
		}
		lo = hi
	}
	rowStart[n] = w
	return lattice.FromCSR(n, rowStart, cols[:w], vals[:w])
}

// byColumn orders one row's filed calls by column, for sort.Stable.
type byColumn struct {
	cols []int
	vals []float64
}

func (s *byColumn) Len() int           { return len(s.cols) }
func (s *byColumn) Less(a, b int) bool { return s.cols[a] < s.cols[b] }
func (s *byColumn) Swap(a, b int) {
	s.cols[a], s.cols[b] = s.cols[b], s.cols[a]
	s.vals[a], s.vals[b] = s.vals[b], s.vals[a]
}

// N returns the number of spins.
func (m *Model) N() int { return m.n }

// NNZ returns the number of stored couplings, both triangles.
func (m *Model) NNZ() int { return m.c.NNZ() }

// Mu returns the global bias scale μ.
func (m *Model) Mu() float64 { return m.mu }

// Bias returns h_i.
func (m *Model) Bias(i int) float64 { return m.h[i] }

// Biases returns the bias vector as a read-only slice (do not mutate).
func (m *Model) Biases() []float64 { return m.h }

// MuH returns μ·h_i per spin as a read-only slice (do not mutate): the
// linear term of the energy, the base every field-seeded kernel takes.
func (m *Model) MuH() []float64 { return m.muH }

// Coupling returns J_ij, by a scan of row i.
func (m *Model) Coupling(i, j int) float64 {
	out := 0.0
	m.c.Scan(i, func(col int, v float64) {
		if col == j {
			out = v
		}
	})
	return out
}

// As returns the same problem stored in the layout kind names: the
// receiver itself for Auto or the kind it already has, otherwise a
// header over a re-laid copy of the couplings (lattice.Convert) that
// shares the biases. Build has already picked the layout a problem's
// density calls for and every engine follows the model it is handed, so
// this is the one lever that runs a problem on the other layout — what
// the layout-equivalence tests pull.
func (m *Model) As(kind lattice.Kind) *Model {
	if kind == lattice.Auto || kind == m.c.Kind() {
		return m
	}
	out := *m
	out.c = lattice.Convert(m.c, kind, 0)
	return &out
}

// View returns the couplings (unscaled) of m.As(kind): the stored
// lattice.Coupling for Auto, which is what every engine reads.
func (m *Model) View(kind lattice.Kind) lattice.Coupling { return m.As(kind).c }

// Energy returns E(σ) for the given spin assignment.
func (m *Model) Energy(spins []int8) float64 {
	return lattice.Energy(m.c, spins, m.muH)
}

// LocalFields fills out[i] = L_i = Σ_j J_ij σ_j and returns it. If out
// is nil or too short, a new slice is allocated.
func (m *Model) LocalFields(spins []int8, out []float64) []float64 {
	if len(spins) != m.n {
		panic("ising: LocalFields spin length mismatch")
	}
	if len(out) < m.n {
		out = make([]float64, m.n)
	}
	out = out[:m.n]
	lattice.Fields(m.c, spins, nil, out, 1)
	return out
}

// FlipDelta returns the energy change from flipping spin k given its
// current local field L_k: ΔE = 2 σ_k (L_k + μ h_k).
func (m *Model) FlipDelta(spins []int8, fields []float64, k int) float64 {
	return lattice.FlipDelta(spins, fields, k, m.muH[k])
}

// ApplyFlip flips spin k in place and updates the cached local fields
// of the spins coupled to it in O(row). fields[k] itself is unchanged
// (it does not depend on σ_k).
func (m *Model) ApplyFlip(spins []int8, fields []float64, k int) {
	old := float64(spins[k])
	spins[k] = -spins[k]
	m.c.FlipFanout(fields, k, -2*old) // new − old contribution of σ_k
}

// EnergyFromFields returns E(σ) computed from cached local fields:
// E = -(1/2) Σ_i L_i σ_i - μ Σ_i h_i σ_i. It is exact when the cache is
// consistent with the spins and costs O(N).
func (m *Model) EnergyFromFields(spins []int8, fields []float64) float64 {
	e := 0.0
	for i, b := range m.muH {
		si := float64(spins[i])
		e -= 0.5*fields[i]*si + b*si
	}
	return e
}

// MaxRowNorm2 returns max_i √(Σ_j J_ij²). For spins in random states
// the local field of spin i is approximately Normal(0, ‖J_i‖₂), so
// dividing the couplings by this norm puts typical local fields at
// unit scale — the operating point where a dynamical machine's
// bistable feedback (O(1) gains) meaningfully competes with the
// coupling network instead of being drowned out or dominating.
func (m *Model) MaxRowNorm2() float64 {
	mx, s := 0.0, 0.0
	square := func(_ int, v float64) { s += v * v } // one closure, not one a row
	for i := 0; i < m.n; i++ {
		s = 0
		m.c.Scan(i, square)
		if s > mx {
			mx = s
		}
	}
	return math.Sqrt(mx)
}
