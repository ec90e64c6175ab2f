package lattice

import (
	"math"
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

// TestMatVecBitIdenticalAcrossBackends is the heart of the determinism
// contract: for the same matrix, every backend must produce the exact
// same bits, equal to the serial dense scan.
func TestMatVecBitIdenticalAcrossBackends(t *testing.T) {
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
				out := make([]float64, tc.n)
				MatVec(c, x, base, out, 1)
				for i := range out {
					if out[i] != ref[i] {
						t.Fatalf("%v: MatVec[%d] = %x, ref %x",
							kind, i, math.Float64bits(out[i]), math.Float64bits(ref[i]))
					}
				}
				Fields(c, spins, base, out, 1)
				for i := range out {
					if out[i] != refF[i] {
						t.Fatalf("%v: Fields[%d] = %x, ref %x",
							kind, i, math.Float64bits(out[i]), math.Float64bits(refF[i]))
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
