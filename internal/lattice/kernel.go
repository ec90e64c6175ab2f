package lattice

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// KernelChunk is the fixed work-unit size of the parallel kernel, in
// rows. Chunk boundaries depend only on n — never on the worker count
// — so every row is processed with the same slice bounds regardless of
// parallelism, and per-chunk reduction partials always combine in the
// same order. 256 rows of a 4096-spin dense matrix is 8 MiB of
// streaming reads: large enough to amortize the handoff, small enough
// that tail chunks balance.
const KernelChunk = 256

// ForRange runs fn(lo, hi) over [0, n) split at fixed KernelChunk
// boundaries, fanning chunks over min(workers, chunks) goroutines
// pulling from an atomic counter. fn must write only state owned by
// rows [lo, hi). workers <= 1 runs inline as a single fn(0, n) call —
// bit-identical for row-wise fn, because each row's work is
// independent of the chunk it arrives in. A reduction must not be
// split this way: its association would follow the chunking (Energy is
// one walk for that reason).
func ForRange(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := (n + KernelChunk - 1) / KernelChunk
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo := c * KernelChunk
				hi := lo + KernelChunk
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// MatVec fills out[i] = base[i] + Σ_j J_ij·x[j] over all rows, fanned
// over workers. Bit-identical across worker counts and backends. One
// worker is the single (0, n) call ForRange would make, made directly:
// the closure handed to ForRange escapes to the heap, and a serial
// engine calls this once per step.
func MatVec(c Coupling, x, base, out []float64, workers int) {
	if workers <= 1 {
		c.MatVecRange(x, base, out, 0, c.N())
		return
	}
	ForRange(c.N(), workers, func(lo, hi int) { c.MatVecRange(x, base, out, lo, hi) })
}

// Fields fills out[i] = base[i] + Σ_j J_ij·σ_j over all rows, fanned
// over workers. Bit-identical across worker counts and backends; one
// worker is a direct call, as in MatVec.
func Fields(c Coupling, spins []int8, base, out []float64, workers int) {
	if workers <= 1 {
		c.FieldsRange(spins, base, out, 0, c.N())
		return
	}
	ForRange(c.N(), workers, func(lo, hi int) { c.FieldsRange(spins, base, out, lo, hi) })
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
