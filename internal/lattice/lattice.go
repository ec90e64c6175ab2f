// Package lattice is the shared numeric substrate under every solver:
// pluggable read-only views of a symmetric Ising coupling matrix (the
// "lattice" the machines anneal over) behind one Coupling interface.
//
// # Backends
//
// Two layouts implement Coupling:
//
//   - Dense: the row-major n×n matrix — right for the paper's fully
//     connected K-graphs. It stores either its float64 entries or, for
//     a symmetric matrix of −1, +0 and +1 entries, only its bit planes
//     (below); never both.
//   - CSR: compressed sparse rows with ascending column order — right
//     for Gset-scale instances at a few percent density, where the
//     dense loops spend almost all their time scanning zeros. The rows
//     are stored for lanes, in groups of four (sliced ELLPACK): within
//     each KernelChunk window they are ordered by (entry count, index),
//     led by (−rows) mod 4 empty dummies, and each run of four is a
//     group as wide as its longest row, its entries interleaved slot by
//     slot — entry t of lane l at 4·(start+t)+l, an int32 column and a
//     float64 value. Every reader walks a row's own entries in its own
//     order at stride 4, and a rescale shares all but the values.
//
// Auto resolves to CSR when the measured density is at most
// AutoCSRDensity, else Dense. An ising.Model freezes its couplings into
// one of the two, once (UnitUpper.Build for a ±1 problem past the list,
// FromUpper for one that filled the float array, FromCSR for one that
// stayed a list), and that stored Coupling is what every engine reads;
// Convert re-lays it for ising.Model.As (the other layout) and for brim
// (the same one, divided by a scale), and Floats gives an engine that
// multiplies floats by floats a float copy. Footprint says what a layout
// stores, for the admission fence.
//
// # ±1 planes
//
// The paper's benchmark family is all-to-all ±1 K-graphs. A dense matrix
// that is verified symmetric and whose every entry is −1, +0 or +1 is
// stored as two bit planes a row (pos, neg; (n+63)/64 words each) and
// its row counts, and nothing else: K512 is 66 KB where its floats were
// 2 MB, K16384 64 MB where they were 2 GB. Kind is still Dense. A −0
// entry, whose sign no plane keeps, an asymmetric matrix or any other
// value (a weighted instance, a brim machine's J/scale) is stored as
// floats. ising.Builder writes a ±1 problem into the planes directly
// (UnitUpper), so the float matrix of a K-graph is never built.
//
// What reads the planes as bits: FieldsRange over ±1 spins packs the
// spin vector into an up-mask once per call and computes a row as
//
//	base[i] + float64(2·popcount(pos&up | neg&^up) − rowNNZ[i])
//
// the all-digital formulation of a near-memory Ising machine: 64
// couplings per AND/popcount instead of one per float multiply-add.
// Energy offers the same shortcut for the whole-model energy, UpperSums
// for dSBM's moment sums, and the flip fan-out (below) for a row's
// change.
//
// Everything else reads a planes entry as the float it stands for —
// +1.0, −1.0 or +0.0 — and does the float layout's arithmetic, zeros
// included (unit, planes.unpack): the mat-vec's dot4 and one-row walk,
// the FieldsRange and Energy walks for the rows the popcount declines,
// FlipFanout off AVX or for d ≠ ±2, the fan-out's Go form, KeepFields'
// diagonal check, Scan/RowNNZ and Convert. So 0·Inf is still a NaN in a
// mat-vec, and Scan yields the float layout's (j, v) sequence. What
// multiplies floats by floats keeps floats: brim's machine stores its
// scaled copy, and bSBM takes Floats' unscaled copy once a solve, so no
// sweep reads bits and the planes MatVecRange is a Go form kept for
// correctness.
// FuzzPlanesLayout holds the planes layout to the float layout of the
// same matrix on every method by Float64bits, on both kernels.
//
// The same exactness lets a field vector that follows a few sign
// changes at a time skip the recompute (KeptFields, dSBM's force): when
// σ_j flips, every field changes by 2·σ_j·J_ij, an integer, so adding
// those terms for the flipped j — in any order, counted off the planes
// (below, "The flip fan-out") — gives the recomputed bits, and so does
// Energy read off the fields in O(n).
// Zero's sign is the one care: an empty row's field is its base
// untouched, so a −0 base there would become +0 under a ±0 term. Such a
// base, a float layout, a fractional base and every CSR view keep
// recomputing.
//
// # Energy
//
// Energy evaluates E(σ) = −Σ_{i<j} J_ij σ_i σ_j − Σ_i base_i σ_i with
// the bits of one float walk — per row i, acc over j > i ascending,
// then e −= σ_i·acc and e −= base_i·σ_i — which the Dense arm runs as
// written. The planes arm is indifferent to the association: it answers
// only when every partial sum of any walk is exact. The CSR arm is not:
// it is that walk with the zero terms skipped, and stays bit-identical
// only because it keeps the walk's association.
//
// # Determinism contract
//
// Every backend accumulates each output row in ascending column order,
// and the one scalar reduction, Energy, is a single walk and is never
// split. So both backends produce bit-identical results, which the
// checkpoint-resume goldens and the backend-equivalence suite rely on:
// skipping a zero entry cannot change an accumulator's bits, because
// an accumulator that starts at +0 can never become −0 (x + (−x)
// rounds to +0 under round-to-nearest), and adding ±0 to such an
// accumulator is the identity.
//
// The popcount row is inside the contract, not an exception to it. It
// is taken per row, and only when the float walk's result is provably
// the exact sum: the spins are all ±1 (else the call walks every row)
// and base[i] is nil or an integer below 2⁵¹, so every partial sum of
// the walk is an integer below 2⁵³ and no addition rounds. The one
// value with two encodings is zero, and both paths reach it the same
// way (x + (−x) = +0) — except over an all-zero row, where the walk
// never adds and returns base[i] as is, −0 included; the popcount path
// returns it untouched too. A fractional, huge, NaN or infinite base
// sends that row to the walk. planes_test.go and FuzzFieldsPlanes
// compare the two by Float64bits.
//
// # What a kernel may change
//
// The contract fixes one sum per output row: start at base[i] (or +0)
// and add row[j]·x[j] for ascending j, every product and every addition
// rounded to float64. A kernel may interleave rows — work on several
// rows' sums side by side, in any order, on any worker — because rows
// share no accumulator. It may keep several rows' sums in the lanes of
// one packed register and multiply and add them with packed
// instructions that round each lane's product and each lane's sum
// separately: a lane is an accumulator like any other. And where the
// matrix was checked to equal its transpose bit for bit, it may read
// J_ji where the walk reads J_ij — the same operand from another
// address. It may never touch a row's sum: not split it over two
// accumulators (that re-associates the additions), not reorder its
// columns, not fuse a product into its addition (math.FMA, or a packed
// fused multiply-add, skips the product's rounding), not narrow it to
// float32, not trade the division behind a scaled view for a
// reciprocal.
//
// The dense MatVecRange is the worked example, twice; the CSR one is
// the third. The RK4 derivative of a 64- or 128-spin chip spends its
// time in row dots too short for the core to hide one add chain's
// latency. The portable kernel (dot4) takes four rows per block: they
// share each load of x[j] and keep one accumulator each, four
// independent chains in flight, and every out[i] still carries the
// one-row walk's bits. Every portable form in the package writes each
// product in an explicit float64 conversion, a rounding point the Go
// spec lets no compiler fuse across, so the walks and blocks that define
// the bits define the same bits where the compiler fuses x*y + z (arm64,
// ppc64, s390x) as on amd64; CI reads arm64's assembly of this package
// and internal/sbm for a fused instruction.
//
// The second kernel is the column sweep (sweep_amd64.s), taken on an
// amd64 host with AVX for the 32-row blocks of a range when the layout
// stores floats and was built over a matrix found symmetric. The
// resistor between two nodes conducts both ways, so J[j][i..i+3] —
// contiguous in the row-major array — holds exactly the operands rows
// i..i+3 need at column j: broadcast x[j], VMULPD against that slice,
// VADDPD into a register of four sums, eight registers and so eight
// independent add chains per sweep. Where the host also has AVX-512F
// (sweep64_amd64.s, its own CPUID leaf 7 and XCR0 probe) the blocks go
// in pairs to the same loop on eight zmm registers of eight sums, a
// trailing odd block to the ymm one; a Xeon that drops its clock for
// zmm work might lose by it, and none has been measured. Each sum still
// starts at base[i] and adds the same products in ascending j; only the
// address the coupling was loaded from differs.
// The sweep visits 64 matrix rows at a time and parks the partial sums
// in out between tiles, so a 4096-spin matrix's strided reads revisit
// 64 pages rather than 4096. Remainder rows, matrices that failed the
// symmetry check (a raw slice handed to FromDense may be anything) and
// every other host take dot4; nothing selects a kernel but what the
// code observes.
//
// The third is csrLanes (csr_amd64.s), taken on an AVX host for the
// whole windows of a CSR range: one register of four sums per lane
// group, the group's four columns gathered into x with plain AVX loads
// and inserts, VMULPD by the slot's values, VADDPD, two groups in
// flight. Rows end at different slots, and a slot past a lane's row is
// masked with VBLENDVPD — the lane keeps its sum — never added as a
// zero product: 0·x[0] is a NaN when x[0] is infinite, and −0 + 0 is
// +0, so a padded zero would move the bits of a row whose walk ended
// sooner. Sorting by length keeps the masks to a group's ragged tail; a
// dummy-led group, a partial window and every other host walk the same
// groups in Go, the form that defines the bits.
//
// matvec_test.go and FuzzMatVecRange compare all three kernels with the
// one-row walk by Float64bits, on an AVX host once as detected and once
// with the lanes switched off — except that a NaN only has to be a NaN:
// when two different NaNs meet, which payload survives is the
// instruction's choice on either path.
//
// # The nonlinearity
//
// The one transcendental in a trajectory — the tanh of the BRIM latch,
// once per node per RK4 stage — is this package's too (Tanh, tanh.go),
// because a library's is not the same function on every host: package
// math's reaches math.Exp, which is assembly with a fused arm on amd64
// and pure Go elsewhere. The rule it follows is the kernels' rule:
// a transcendental may enter a trajectory only through a repo-owned form
// whose every product and sum is rounded on its own. That form is
// tanhGo — explicit float64 conversions around each product, so no
// compiler may fuse one; no math.FMA; no call into math beyond the bit
// casts; no table — one path with one division, expm1(−2|x|)/(2 +
// expm1(−2|x|)) over a ln2 reduction and a degree-11 polynomial. It is
// odd bit for bit, exactly ±1 from |x| = TanhSaturation (just past
// where the true tanh rounds to 1) through ±Inf, returns ±0, subnormals
// and a NaN as they came, is monotone, and stays within 2.5 ulp of the
// true value (measured 2.1; package math's: 1). Its twin, tanhLanes
// (tanh_amd64.s), is the same operations in the same order on
// four doubles per packed instruction — VMULPD, VADDPD, VSUBPD, one
// VDIVPD, bitwise ops, never a fused multiply-add — selected by the
// same useAVX as the sweep and by nothing else; the len mod 4 elements
// left over take tanhGo, so where in a slice or in which worker's range
// a value sat cannot show in its bits. tanh_test.go and FuzzTanh hold
// the twin to tanhGo by Float64bits (NaNs too: both hand one back
// untouched) on both kernels, at every length and offset mod 4.
//
// # The latch stage
//
// The rest of a BRIM node's RK4 stage is pointwise, and lives here too
// (Latch, latch.go): from the stage's mat-vec mv and voltage v it forms
// γ·v, its tanh, the tail ((mv + (bias + ext)) + κ·(th − v))·(1/τ) and
// the next stage's voltage v0 + c·k — or, in the last stage, the step's candidate v0 + h·(((k1 +
// 2·k2) + 2·k3) + k4) and the first node whose candidate is past the
// guardrail's limit. Latch.deriv is the form that defines the bits, each
// product in an explicit float64 conversion. The fourth lane kernel,
// latchStage and latchFinal (latch_amd64.s), is its twin: one pass over
// the stage's nodes, the same operations in the same order, its tanh the
// TANH_PAIR macro that tanhLanes expands too (tanh_amd64.h, the one
// copy). An AVX-512F host takes the whole groups of eight through
// latchStage8 and latchFinal8 (latch512_amd64.s, TANH_PAIR_Z the same
// sequence on zmm) and one trailing group of four through the ymm
// kernel. An addition's operands may trade places — a sum does not
// depend on their order, only which of two NaNs survives does — but no
// product is fused. The hi−lo mod 4 rest takes the Go form.
// FuzzLatchStage holds both entries to the Go form by Float64bits, on all
// three arms, at every length 0–35 and offset mod 8, and in place.
//
// # The bifurcation step
//
// A simulated bifurcation machine's step is pointwise around its force
// (Bifurcation, bifurcation.go): the symplectic-Euler update of y and x,
// the walls, the sign readout and the list of nodes whose sign changed,
// which is what KeptFields fans out. Bifurcation.node is the form that
// defines the bits. The fifth lane kernel, sbmStep (bifurcation_amd64.s),
// is its twin with nothing branching on a value: the walls by compare and
// blend, the signs by compare, the changed ones by VMOVMSKPD against the
// old spins' sign bits, and every lane written to the flip list with only
// the changed ones counted. FuzzSBMStep holds it to the Go form by
// Float64bits, on both kernels, at every length 0–17 and offset mod 4,
// with positions that land on the walls and on both zeros.
//
// # The flip fan-out
//
// What a flip changes is added to the fields a row at a time, and on a
// ±1 matrix the row is read from its planes, 1/32 of the float row. The
// sixth lane kernel, fanOutLanes (fanout_amd64.s), takes up to 127 rows
// per pass over the fields: per 64 columns it spreads each row's two
// plane words into byte counters (VPSHUFB, VPAND, VPCMPEQB, VPADDB or
// VPSUBB on xmm — AVX1 has no integer ymm) and then adds float64(c)·s to
// each field once (VPMOVSXBD, VCVTDQ2PD, VMULPD, VADDPD). For KeptFields
// the count is, per column, the flipped rows whose term is +2 minus
// those whose term is −2 and s = 2; dense.fanOut, four float rows a
// pass, is the Go form that defines the bits and the path off AVX. Every
// term is ±2 or ±0 and every partial sum an exact integer, so the two
// agree in any association, and a count of 0 adds +0 to a field
// KeepFields has made sure is never −0. FlipFanout (sa, tabu, pt, one
// row, d = ±2) counts J_kj itself and takes s = d: each field gets the
// walk's one addition of the walk's very term, +0·d for a zero entry, so
// any field, −0 included, keeps the walk's bits; a matrix holding a −0
// entry, whose sign no plane keeps, is floats and walks. FuzzFanOutPlanes and
// TestKeptFieldsMatchFields hold both to their Go forms by Float64bits
// on both kernels, and TestFlipFanoutKeepsZeroSigns pins the zero rule.
//
// # The commit
//
// A BRIM step ends pointwise too (Latch.Commit, latch.go): each node's
// candidate to the rails, the kick hold, and the readout — the nodes whose committed
// voltage Readout, the hysteresis comparator, says flip, listed in order.
// commit and Readout are the form that defines the bits. The seventh lane
// kernel, latchCommit (commit_amd64.s), is its twin with nothing branching
// on a value: the rails by VMAXPD and VMINPD with the candidate their
// second source, so a NaN keeps its payload and −0 its sign as the Go
// form's branches keep them; the holds by compare and blend; the readout
// by four-bit masks of v's compares and the spin bytes' signs and zeros;
// the list through a table of lane lists. FuzzCommit holds it to the Go
// form by Float64bits, every NaN's payload included, on both kernels, at
// every length 0–17 and offset mod 4.
//
// The purego build tag leaves every lane kernel out: the Go forms alone,
// on any host.
package lattice

import "fmt"

// Kind selects a coupling-matrix backend.
type Kind int

// The backend kinds. Auto resolves by measured density at
// construction; the other two force a layout.
const (
	Auto Kind = iota
	Dense
	CSR
)

// String names the kind as outcomes report it.
func (k Kind) String() string {
	switch k {
	case Auto:
		return "auto"
	case Dense:
		return "dense"
	case CSR:
		return "csr"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AutoCSRDensity is the density at or below which Auto picks CSR: at
// 5% nonzeros the CSR row walk touches 20× fewer entries than a dense
// scan, comfortably past its extra indexing cost.
const AutoCSRDensity = 0.05

// Resolve maps Auto to a concrete backend by measured density
// (nnz / n²); concrete kinds pass through unchanged.
func Resolve(kind Kind, n, nnz int) Kind {
	if kind != Auto {
		return kind
	}
	if n > 0 && float64(nnz) <= AutoCSRDensity*float64(n)*float64(n) {
		return CSR
	}
	return Dense
}

// Footprint is what the layout kind names (Auto: the one Resolve picks)
// stores for n spins with nnz entries, both triangles, when unit says
// every entry is −1, 0 or +1: a symmetric ±1 n×n matrix as its two
// planes and row counts, 2·n·⌈n/64⌉·8 + 4·n bytes; any other n×n matrix
// as 8·n² bytes of floats; compressed rows at 12 bytes a lane slot — an
// int32 column and a float64 value — and 14 a row — its position, the
// row at that position and its length, int32 each, and a quarter of its
// group's int start. The slots are the entries plus each four-row group's
// padding to its longest row. Rows are sorted by length within a window,
// so a window pads at most 3·(its longest row − its shortest) ≤ 3·(n−1);
// and a group pads at most three times its longest row, so at most 3·nnz.
// The admission fence prices a model by it before the model exists.
func Footprint(kind Kind, n, nnz int, unit bool) int64 {
	n64, nnz64 := int64(n), int64(nnz)
	switch {
	case Resolve(kind, n, nnz) == CSR:
		windows := (n64 + KernelChunk - 1) / KernelChunk
		pad := 3 * min(nnz64, windows*(n64-1))
		return 12*(nnz64+pad) + 14*n64
	case unit:
		return 16*n64*int64(planeWords(n)) + 4*n64
	default:
		return 8 * n64 * n64
	}
}

// Bytes is Footprint of a layout that exists: what c stores.
func Bytes(c Coupling) int64 {
	d, ok := c.(*dense)
	return Footprint(c.Kind(), c.N(), c.NNZ(), ok && d.pl != nil)
}

// Convert re-lays c in the layout kind names (Auto: by c's own density)
// with every entry divided by div — the resistor normalization the BRIM
// machines apply (Ĵ = J/scale); division, not multiplication by a
// reciprocal, so the stored values match the historical per-engine
// loops bit for bit. div 0 or 1 means unscaled, and an unscaled request
// for the layout c already has returns c itself. Entries are read
// through Scan, so a compressed result keeps c's entries in c's order
// (one whose quotient underflows to zero included); a rescale within a
// layout is one straight loop — over compressed rows it shares their
// structure, over the matrix it keeps the verified symmetry, since
// equal bits divide to equal bits; compressed to dense scatters the
// rows and is FromDense from there. Only an unscaled dense result
// can be planes; a scaled one is floats.
func Convert(c Coupling, kind Kind, div float64) Coupling {
	n, nnz := c.N(), c.NNZ()
	kind = Resolve(kind, n, nnz)
	if div == 0 || div == 1 {
		if kind == c.Kind() {
			return c
		}
		div = 1
	}
	if s, ok := c.(*csr); ok && kind == CSR { // a rescale: the structure is shared
		out := *s
		out.vals = make([]float64, len(s.vals))
		for k, v := range s.vals {
			out.vals[k] = v / div
		}
		return &out
	}
	if kind == CSR {
		out := newCSR(n, c.RowNNZ)
		out.fill(c, div)
		return out
	}
	if d, ok := c.(*dense); ok {
		return &dense{n: n, data: d.floats(div), nnz: nnz, sym: d.sym}
	}
	data := make([]float64, n*n)
	var row []float64
	put := func(j int, v float64) { row[j] = v }
	for i := 0; i < n; i++ {
		row = data[i*n : (i+1)*n]
		c.Scan(i, put)
	}
	return FromDense(n, data, Dense, div)
}

// Floats returns c where it stores its entries as floats, else a float
// copy of its planes: +1.0, −1.0 and +0.0 in both triangles, symmetric
// as the planes were, so an AVX host sweeps it. That is what a
// float-by-float product runs on — bSBM's mat-vec, a brim machine whose
// scale is 1 — and the engine that runs one asks for it, once a solve:
// the copy costs 8·n² bytes the stored model does not.
func Floats(c Coupling) Coupling {
	d, ok := c.(*dense)
	if !ok || d.pl == nil {
		return c
	}
	return &dense{n: d.n, data: d.floats(1), nnz: d.nnz, sym: true}
}

// floats returns d's entries divided by div in a new row-major array, a
// planes row read as the floats it stands for; div 1 divides nothing.
func (d *dense) floats(div float64) []float64 {
	n := d.n
	data := make([]float64, n*n)
	if d.pl == nil {
		for i, v := range d.data {
			data[i] = v / div
		}
		return data
	}
	for i := 0; i < n; i++ {
		row := data[i*n : (i+1)*n]
		d.pl.unpack(i, row)
		if div != 1 {
			for j, v := range row {
				row[j] = v / div
			}
		}
	}
	return data
}

// Coupling is a read-only view of a symmetric coupling matrix with
// zero diagonal. All row-wise methods accumulate in ascending column
// order (the package determinism contract). Implementations are safe
// for concurrent readers; FlipFanout mutates caller state and needs
// external synchronization like any other write.
type Coupling interface {
	// N is the spin count.
	N() int
	// NNZ is the number of stored nonzero entries (both triangles).
	NNZ() int
	// Kind reports the concrete backend (never Auto).
	Kind() Kind
	// RowNNZ is the number of nonzero couplings of spin i.
	RowNNZ(i int) int
	// Scan calls fn for every nonzero (j, J_ij) of row i in ascending
	// column order.
	Scan(i int, fn func(j int, v float64))
	// MatVecRange fills out[i] = base[i] + Σ_j J_ij·x[j] for rows
	// lo ≤ i < hi (nil base means zero). Only out[lo:hi] is written, so
	// concurrent calls may share one out over disjoint ranges. out must
	// not alias x, for two reasons: a backend may read all of x for
	// several rows before it stores any of them (dot4 does), and
	// out[lo:hi] may hold partial sums while the call is still reading x
	// (the column sweep parks them there between tiles) — its contents
	// are defined only once the call returns.
	MatVecRange(x, base, out []float64, lo, hi int)
	// FieldsRange is MatVecRange over a spin vector, skipping zero
	// couplings: out[i] = base[i] + Σ_j J_ij·σ_j.
	FieldsRange(spins []int8, base, out []float64, lo, hi int)
	// FlipFanout applies fields[j] += J_kj·d over row k — the O(row)
	// cached-field update after spin k changes by d = σ_new − σ_old.
	FlipFanout(fields []float64, k int, d float64)
}

// FlipDelta returns the energy change of flipping spin k given its
// cached local field and bias term μ·h_k: ΔE = 2σ_k(L_k + μh_k). It
// reads no couplings, so one rule, in one association, serves every
// layout.
func FlipDelta(spins []int8, fields []float64, k int, muH float64) float64 {
	return float64(2 * float64(spins[k]) * (fields[k] + muH))
}
