package lattice

import "fmt"

// KernelChunk is the CSR layout's window, in rows (a power of two):
// within each window the rows are ordered for lanes (package doc,
// "Backends"), so a range that covers a whole window runs its groups
// and any other range walks its rows one by one.
const KernelChunk = 256

// MatVec fills out[i] = base[i] + Σ_j J_ij·x[j] over all rows, one
// MatVecRange(0, n) call, bit-identical across backends. workers is
// ignored.
func MatVec(c Coupling, x, base, out []float64, workers int) {
	c.MatVecRange(x, base, out, 0, c.N())
}

// Fields fills out[i] = base[i] + Σ_j J_ij·σ_j over all rows, one
// FieldsRange(0, n) call, bit-identical across backends. workers is
// ignored.
func Fields(c Coupling, spins []int8, base, out []float64, workers int) {
	c.FieldsRange(spins, base, out, 0, c.N())
}

// Energy returns E(σ) = −Σ_{i<j} J_ij σ_i σ_j − Σ_i base_i σ_i (nil base
// means zero; ising.Model.Energy passes μh) with the bits of one float
// walk, whichever arm answers (package doc, Energy):
//
//   - a Dense view runs the walk: every column above the diagonal.
//   - a CSR view runs it over the stored entries only. The skipped
//     terms are ±0 products added to accumulators that are never −0,
//     so the bits are the dense walk's at O(nnz) reads.
//   - a Dense view with ±1 planes, when the bases are integers small
//     enough that the energy is an integer below 2⁵³: every partial sum
//     of any float walk is then exact, so the popcount evaluation has
//     the walk's bits at 1/64 of its reads.
//
// It panics unless spins, and base when given, have c.N() entries.
func Energy(c Coupling, spins []int8, base []float64) float64 {
	if len(spins) != c.N() || (base != nil && len(base) != len(spins)) {
		panic(fmt.Sprintf("lattice: Energy with %d spins and %d bases on %d-spin couplings", len(spins), len(base), c.N()))
	}
	if v, ok := c.(*csr); ok {
		return v.energy(spins, base)
	}
	d := c.(*dense) // the package's only other layout
	if d.pl != nil {
		if e, ok := d.pl.energy(spins, base, d.nnz); ok {
			return e
		}
	}
	return d.energy(spins, base)
}
