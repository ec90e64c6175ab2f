package lattice

import (
	"fmt"
	"math"
	"testing"

	"mbrim/internal/rng"
)

// The A side of the old-vs-new kernel comparison: faithful copies of
// the per-engine hot loops as they existed before the lattice layer,
// so old-vs-new runs interleave on identical data.

// oldBrimDeriv is the pre-lattice brim derivative loop: a serial dense
// jhat scan with the bias and bistable-feedback tail.
func oldBrimDeriv(n int, jhat, bhat, ext, v, out []float64, kappa, gamma, invTau float64) {
	for i := 0; i < n; i++ {
		row := jhat[i*n : (i+1)*n]
		acc := 0.0
		for j := 0; j < n; j++ {
			acc += row[j] * v[j]
		}
		acc += bhat[i] + ext[i]
		acc += kappa * (math.Tanh(gamma*v[i]) - v[i])
		out[i] = acc * invTau
	}
}

// oldSBMDiscreteForce is the pre-lattice dSBM force loop: dense scan
// with zero skip over the sign readout.
func oldSBMDiscreteForce(n int, j []float64, mu float64, h []float64, spins []int8, force []float64) {
	for i := 0; i < n; i++ {
		row := j[i*n : (i+1)*n]
		acc := mu * h[i]
		for k := 0; k < n; k++ {
			if row[k] != 0 {
				acc += row[k] * float64(spins[k])
			}
		}
		force[i] = acc
	}
}

type benchSetup struct {
	n                  int
	data               []float64
	bhat, ext, v, out  []float64
	spins              []int8
	next               []float64 // the next stage's voltages
	latch              Latch
	kappa, gamma, invT float64
}

func newBenchSetup(n int, density float64) *benchSetup {
	s := &benchSetup{
		n:     n,
		data:  randSym(n, density, 1),
		bhat:  randVec(n, 2),
		ext:   randVec(n, 3),
		v:     randVec(n, 4),
		out:   make([]float64, n),
		next:  make([]float64, n),
		spins: randSpins(n, 5),
		kappa: 0.7, gamma: 1.5, invT: 1,
	}
	s.latch = Latch{Gamma: s.gamma, InvTau: s.invT, Bias: s.bhat, Ext: s.ext}
	return s
}

// kernelDeriv is one RK4 stage as brim's machine runs it: the mat-vec mv
// (a backend's MatVecRange, or a reference walk) over [0, n), then the
// latch stage — γ·v, its tanh, the bias and feedback tail and the next
// stage's voltages in one pass.
func (s *benchSetup) kernelDeriv(mv walker) {
	mv(s.v, nil, s.out, 0, s.n)
	s.latch.Stage(s.v, s.v, s.out, s.next, s.kappa, 0.025, 0, s.n)
}

// BenchmarkBRIMDeriv compares one RK4 stage (the BRIM step's dominant
// cost — an RK4 step is four of these) between the old serial dense loop
// and the machine's stage, on each arm this host has: the Go forms, the
// ymm lanes and (AVX-512F) the zmm sweep. The matrix is what brim.New
// steps, the float copy of a ±1 model's planes divided by a scale
// (Floats of Convert). n = 64 and 128 are the chip sizes the
// k256_mbrim4 and k256_cluster2 benchmark workloads actually step. The
// csr rows are the same on a 2 % matrix, with the one-row walk over
// compressed rows (the kernel before the lane groups) as the A side:
// n = 256 is the chip sparse1k_mbrim4 steps, n = 1024 its whole problem.
func BenchmarkBRIMDeriv(b *testing.B) {
	for _, n := range []int{64, 128, 1024, 4096} {
		s := newBenchSetup(n, 1)
		b.Run(fmt.Sprintf("old/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				oldBrimDeriv(s.n, s.data, s.bhat, s.ext, s.v, s.out, s.kappa, s.gamma, s.invT)
			}
		})
		stored := FromDense(n, s.data, Dense, 0)
		s.data = nil // n = 4096 holds one n² float array at a time
		dense := Floats(Convert(stored, Dense, float64(n-1)))
		for _, a := range arms {
			b.Run(fmt.Sprintf("%s/n=%d", a.name, n), func(b *testing.B) {
				avx, avx512 := useAVX, useAVX512
				defer func() { useAVX, useAVX512 = avx, avx512 }()
				useAVX, useAVX512 = a.avx, a.avx512
				for b.Loop() {
					s.kernelDeriv(dense.MatVecRange)
				}
			})
		}
	}
	for _, n := range []int{256, 1024} {
		s := newBenchSetup(n, 0.02)
		rowStart, cols, vals := csrTriple(n, s.data)
		for _, arm := range []struct {
			name string
			mv   walker
		}{
			{"walk", csrWalk(rowStart, cols, vals)},
			{"kernel", FromCSR(n, rowStart, cols, vals).MatVecRange},
		} {
			b.Run(fmt.Sprintf("%s/csr/n=%d/p=0.02", arm.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s.kernelDeriv(arm.mv)
				}
			})
		}
	}
}

// BenchmarkLatch prices the latch stage alone, on each arm this host
// has: Stage as stages one to three run it (in place, next = v) and
// Final as stage four does, with a limit every candidate passes. n = 64,
// 128 and 256 are the chips k256_mbrim4, k256_cluster2 and
// sparse1k_mbrim4 step; BenchmarkBRIMDeriv has the mat-vec in its rows.
func BenchmarkLatch(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		s := newBenchSetup(n, 1)
		v0, k, k1, k2, k3, cand := randVec(n, 7), randVec(n, 8), randVec(n, 9), randVec(n, 10), randVec(n, 11), make([]float64, n)
		for _, a := range arms {
			run := func(name string, fn func()) {
				b.Run(fmt.Sprintf("%s/%s/n=%d", name, a.name, n), func(b *testing.B) {
					avx, avx512 := useAVX, useAVX512
					defer func() { useAVX, useAVX512 = avx, avx512 }()
					useAVX, useAVX512 = a.avx, a.avx512
					for b.Loop() {
						fn()
					}
				})
			}
			run("stage", func() { s.latch.Stage(s.v, v0, k, s.v, s.kappa, 0.025, 0, n) })
			run("final", func() {
				if bad := s.latch.Final(s.v, v0, k1, k2, k3, k, cand, s.kappa, 0.05/6, 1e6); bad >= 0 {
					b.Fatalf("node %d past the limit", bad)
				}
			})
		}
	}
}

// csrTriple compresses a row-major matrix's nonzeros into rows.
func csrTriple(n int, data []float64) (rowStart, cols []int, vals []float64) {
	rowStart = make([]int, n+1)
	for i := 0; i < n; i++ {
		for j, v := range data[i*n : (i+1)*n] {
			if v != 0 {
				cols, vals = append(cols, j), append(vals, v)
			}
		}
		rowStart[i+1] = len(cols)
	}
	return rowStart, cols, vals
}

// BenchmarkTanh prices the latch nonlinearity of one 64-spin chip's
// derivative, per call: math.Tanh (what the machine called until the
// tanh was owned; the A side), the Go form, and the range form as this
// host dispatches it (the lanes on AVX, else the Go form again; it works
// in place, so its row includes the 64-element copy that refills it).
func BenchmarkTanh(b *testing.B) {
	const n = 64
	args := randVec(n, 6)
	for i := range args {
		args[i] *= 1.5
	}
	buf := make([]float64, n)
	b.Run("math/n=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range args {
				buf[j] = math.Tanh(x)
			}
		}
	})
	b.Run("go/n=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range args {
				buf[j] = tanhGo(x)
			}
		}
	})
	b.Run("lanes/n=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(buf, args)
			Tanh(buf)
		}
	})
}

// BenchmarkSparseFields compares the local-field accumulation on a
// 5%-density model: the old dense zero-skipping scan versus the CSR
// backend, which touches only stored entries.
func BenchmarkSparseFields(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		s := newBenchSetup(n, 0.05)
		b.Run(fmt.Sprintf("old-dense/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				oldSBMDiscreteForce(s.n, s.data, 1, s.bhat, s.spins, s.out)
			}
		})
		csr := FromDense(n, s.data, CSR, 0)
		b.Run(fmt.Sprintf("csr/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Fields(csr, s.spins, s.bhat, s.out, 1)
			}
		})
	}
}

// BenchmarkFanOut prices one dSBM step's fan-out of m flipped rows on a
// ±1 K-graph: the Go form (dense.fanOut, four float rows a pass) against
// the kernel (fanOutPlanes, the lanes over the planes; AVX hosts only),
// beside the recompute the crossover weighs them against (Fields). m = 12
// is the mean per fanning step of a K512 run. The fields drift by ±2 an
// iteration and stay exact, which is all the timing needs.
func BenchmarkFanOut(b *testing.B) {
	for _, n := range []int{512, 2000} {
		d := FromDense(n, randSym(n, 1, 1), Dense, 0).(*dense)
		spins, out := randSpins(n, 2), make([]float64, n)
		Fields(d, spins, nil, out, 1)
		perm := rng.New(3).Perm(n)
		for _, m := range []int{1, 4, 12, 64} {
			flipped := make([]int32, m)
			for r := range flipped {
				flipped[r] = int32(perm[r])
			}
			b.Run(fmt.Sprintf("go/n=%d/rows=%d", n, m), func(b *testing.B) {
				for b.Loop() {
					d.fanOut(spins, flipped, out)
				}
			})
			if useAVX {
				b.Run(fmt.Sprintf("lanes/n=%d/rows=%d", n, m), func(b *testing.B) {
					for b.Loop() {
						d.fanOutPlanes(spins, flipped, out)
					}
				})
			}
		}
		b.Run(fmt.Sprintf("fields/n=%d", n), func(b *testing.B) {
			for b.Loop() {
				Fields(d, spins, nil, out, 1)
			}
		})
	}
}

// BenchmarkPackedFields is the dSBM force on the paper's K512 ±1
// family: the float walk (the reference the planes must match) against
// the popcount rows, plus a matrix with one weighted entry to show an
// ineligible instance still walks at the old cost.
func BenchmarkPackedFields(b *testing.B) {
	const n = 512
	s := newBenchSetup(n, 1)
	b.Run("float-walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refFields(n, s.data, s.spins, nil, s.out, 0, n)
		}
	})
	planes := FromDense(n, s.data, Dense, 0)
	b.Run("planes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Fields(planes, s.spins, nil, s.out, 1)
		}
	})
	weighted := append([]float64(nil), s.data...)
	weighted[1], weighted[n] = 0.5, 0.5
	walk := FromDense(n, weighted, Dense, 0)
	b.Run("ineligible", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Fields(walk, s.spins, nil, s.out, 1)
		}
	})
	b.Run("build/planes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			FromDense(n, s.data, Dense, 0)
		}
	})
	b.Run("build/ineligible", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			FromDense(n, weighted, Dense, 0)
		}
	})
}

// BenchmarkCommit prices the end of one BRIM step, Latch.Commit, on the
// chips k256_mbrim4 (n = 64) and sparse1k_mbrim4 (n = 256) step: the Go
// form (what every node took before the lanes) and the lanes (AVX hosts
// only). The state is a noiseless chip mid-run: candidates between the
// rails, past them and on them, about one hold in ten live and a few
// crossings. v is all it writes, so every iteration commits the same step.
func BenchmarkCommit(b *testing.B) {
	for _, n := range []int{64, 256} {
		r := rng.New(7)
		const t, th = 10.0, 0.1
		cand, v, holdUntil := make([]float64, n), make([]float64, n), make([]float64, n)
		holdTarget, spins, crossed := make([]int8, n), make([]int8, n), make([]int32, n)
		for i := range cand {
			cand[i] = []float64{1, -1, 1.02, -1.02, 0.97, -0.97, 0.4, -0.4}[r.Intn(8)] * (1 - 0.01*r.Float64())
			if r.Intn(4) == 0 {
				cand[i] = float64(2*r.Intn(2) - 1)
			}
			spins[i] = 1
			if cand[i] < 0 {
				spins[i] = -1
			}
			if i%16 == 5 {
				spins[i] = -spins[i]
			}
			// A live hold drives its node at the spin its kick set.
			holdUntil[i] = t - r.Float64()
			if r.Intn(10) == 0 {
				holdUntil[i], holdTarget[i] = t+r.Float64(), spins[i]
			}
		}
		var l Latch
		arms := []struct {
			name string
			avx  bool
		}{{"go", false}, {"lanes", true}}
		for _, arm := range arms {
			if arm.avx && !useAVX {
				continue
			}
			b.Run(fmt.Sprintf("%s/n=%d", arm.name, n), func(b *testing.B) {
				detected := useAVX
				defer func() { useAVX = detected }()
				useAVX = arm.avx
				for b.Loop() {
					l.Commit(cand, v, holdUntil, holdTarget, spins, t, th, crossed)
				}
			})
		}
		b.Logf("n=%d: %d of %d nodes cross", n, len(l.Commit(cand, v, holdUntil, holdTarget, spins, t, th, crossed)), n)
	}
}
