package lattice

import (
	"math"
	"sync/atomic"
	"testing"

	"mbrim/internal/rng"
)

func randVec(n int, seed uint64) []float64 {
	r := rng.New(seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Float64()*2 - 1
	}
	return x
}

func TestForRangeCoversEveryRowOnce(t *testing.T) {
	for _, n := range []int{1, KernelChunk - 1, KernelChunk, KernelChunk + 1, 3*KernelChunk + 17} {
		for _, w := range []int{1, 2, 3, 8, 64} {
			hits := make([]int32, n)
			ForRange(n, w, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("n=%d w=%d: bad range [%d,%d)", n, w, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d w=%d: row %d visited %d times", n, w, i, h)
				}
			}
		}
	}
}

// TestMatVecBitIdenticalAcrossWorkersAndBackends is the heart of the
// determinism contract: for the same matrix, every backend × every
// worker count must produce the exact same bits, equal to the serial
// dense scan.
func TestMatVecBitIdenticalAcrossWorkersAndBackends(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		density float64
	}{
		{"dense-small", 63, 1},
		{"dense-chunky", 2*KernelChunk + 5, 1},
		{"sparse", 2*KernelChunk + 5, 0.03},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := randSym(tc.n, tc.density, 21)
			x := randVec(tc.n, 22)
			base := randVec(tc.n, 23)
			spins := randSpins(tc.n, 24)

			// Reference: plain serial dense scan, base-initialized.
			ref := make([]float64, tc.n)
			refF := make([]float64, tc.n)
			for i := 0; i < tc.n; i++ {
				acc, accF := base[i], base[i]
				for j := 0; j < tc.n; j++ {
					v := data[i*tc.n+j]
					acc += v * x[j]
					if v != 0 {
						accF += v * float64(spins[j])
					}
				}
				ref[i], refF[i] = acc, accF
			}

			for kind, c := range allBackends(t, tc.n, data, 0) {
				for _, w := range []int{1, 2, 3, 8} {
					out := make([]float64, tc.n)
					MatVec(c, x, base, out, w)
					for i := range out {
						if out[i] != ref[i] {
							t.Fatalf("%v w=%d: MatVec[%d] = %x, ref %x",
								kind, w, i, math.Float64bits(out[i]), math.Float64bits(ref[i]))
						}
					}
					Fields(c, spins, base, out, w)
					for i := range out {
						if out[i] != refF[i] {
							t.Fatalf("%v w=%d: Fields[%d] = %x, ref %x",
								kind, w, i, math.Float64bits(out[i]), math.Float64bits(refF[i]))
						}
					}
				}
			}
		})
	}
}

func TestMatVecNilBaseMeansZero(t *testing.T) {
	n := 40
	data := randSym(n, 1, 31)
	x := randVec(n, 32)
	c := FromDense(n, data, Dense, 0)
	zero := make([]float64, n)
	a := make([]float64, n)
	b := make([]float64, n)
	MatVec(c, x, nil, a, 1)
	MatVec(c, x, zero, b, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nil base differs from zero base at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
