package lattice

import (
	"encoding/binary"
	"math"
	"testing"

	"mbrim/internal/rng"
)

// latchBufs hands out slices of n values at offset off in buffers poisoned
// around them, and checks afterwards that nothing outside a slice moved.
type latchBufs struct {
	n, off int
	bufs   [][]float64
}

const latchPoison = 12345.5

func (b *latchBufs) slice(vals func() float64) []float64 {
	buf := make([]float64, b.off+b.n+3)
	for i := range buf {
		buf[i] = latchPoison
	}
	b.bufs = append(b.bufs, buf)
	s := buf[b.off : b.off+b.n : b.off+b.n]
	for i := range s {
		s[i] = vals()
	}
	return s
}

// like is a slice holding a copy of src.
func (b *latchBufs) like(src []float64) []float64 {
	i := -1
	return b.slice(func() float64 { i++; return src[i] })
}

func (b *latchBufs) checkPoison(t *testing.T) {
	t.Helper()
	for k, buf := range b.bufs {
		for i, v := range buf {
			if (i < b.off || i >= b.off+b.n) && v != latchPoison {
				t.Fatalf("%s n=%d offset %d: buffer %d written at %d", armName(), b.n, b.off, k, i)
			}
		}
	}
}

// checkLatch runs both latch entries over n nodes drawn from raw, as
// FuzzLatchStage describes, and holds them to the Go form.
func checkLatch(t *testing.T, n, off int, inPlace bool, raw []byte) {
	t.Helper()
	at := 0
	next := func() float64 {
		var w [8]byte
		for k := range w {
			if len(raw) > 0 {
				w[k] = raw[at%len(raw)] + byte(at/len(raw))
			}
			at++
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
	}
	l := Latch{Gamma: next(), InvTau: next()}
	kappa, c, h, limit := next(), next(), next(), next()
	b := &latchBufs{n: n, off: off}
	v, v0, mv := b.slice(next), b.slice(next), b.slice(next)
	l.Bias, l.Ext = b.slice(next), b.slice(next)
	k1, k2, k3 := b.slice(next), b.slice(next), b.slice(next)
	saved := make([][]float64, len(b.bufs))
	for i, buf := range b.bufs {
		saved[i] = append([]float64(nil), buf...)
	}

	wantK, wantNext, wantCand, wantBad := make([]float64, n), make([]float64, n), make([]float64, n), -1
	for i := 0; i < n; i++ {
		d := l.deriv(i, v[i], mv[i], kappa)
		wantK[i], wantNext[i] = d, v0[i]+float64(c*d)
		cand := v0[i] + float64(h*(((k1[i]+float64(2*k2[i]))+float64(2*k3[i]))+d))
		wantCand[i] = cand
		if wantBad < 0 && !(math.Abs(cand) <= limit) {
			wantBad = i
		}
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s n=%d offset %d in place=%v %s[%d]: %#x, Go form %#x",
					armName(), n, off, inPlace, what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}

	eachArm(func() {
		out := &latchBufs{n: n, off: off}
		k, vin, nx := out.like(mv), v, out.like(make([]float64, n))
		if inPlace {
			vin = out.like(v)
			nx = vin
		}
		l.Stage(vin, v0, k, nx, kappa, c, 0, n)
		same("k", k, wantK)
		same("next", nx, wantNext)
		cand := out.like(make([]float64, n))
		if bad := l.Final(v, v0, k1, k2, k3, mv, cand, kappa, h, limit); bad != wantBad {
			t.Fatalf("%s n=%d offset %d: Final's bad node %d, Go form %d", armName(), n, off, bad, wantBad)
		}
		same("cand", cand, wantCand)
		out.checkPoison(t)
		b.checkPoison(t)
		for j, buf := range b.bufs {
			for i := range buf {
				if math.Float64bits(buf[i]) != math.Float64bits(saved[j][i]) {
					t.Fatalf("%s n=%d offset %d: input %d changed at %d", armName(), n, off, j, i)
				}
			}
		}
	})
}

// latchSeed encodes a typical stage: a chip's constants (γ = 1.5, 1/τ,
// κ, c = dt/2, h = dt/6, the guardrail's limit), voltages on and past the
// rails, mat-vecs and derivatives of order one and small biases. An FMA in any product-sum pair of a lane
// changes some of these results. Node bad, unless negative, starts from
// a v0 that puts its candidate past the limit (or at a NaN or ±Inf).
func latchSeed(r *rng.Source, n int, bad int) []byte {
	uni := func(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }
	vals := []float64{1.5, 1 / 0.7, uni(0.05, 1.2), 0.025, 0.05 / 6, 1e6}
	draw := func(lo, hi float64) {
		for i := 0; i < n; i++ {
			vals = append(vals, uni(lo, hi))
		}
	}
	draw(-1.3, 1.3) // v
	draw(-1, 1)     // v0
	if bad >= 0 {
		vals[6+n+bad] = []float64{2e6, -2e6, math.NaN(), math.Inf(1)}[bad%4]
	}
	draw(-1.5, 1.5) // the mat-vec
	draw(-0.3, 0.3) // bias
	draw(-0.8, 0.8) // ext
	draw(-3, 3)     // k1
	draw(-3, 3)     // k2
	draw(-3, 3)     // k3
	var raw []byte
	for _, x := range vals {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x))
	}
	return raw
}

// FuzzLatchStage is the proof of latchStage and latchFinal, the way
// FuzzTanh proves tanhLanes: raw bit patterns, every 8 bytes one value —
// γ, 1/τ, κ, c, h and the limit, then per node v, v0, the mat-vec, Bias,
// Ext, k1, k2 and k3 — over n = size mod 36 nodes at offset mod 8 in
// poisoned buffers, with the stage's next voltage written over v when
// inPlace asks for it. 31 nodes hold every part of the widest split at once: a
// pair of zmm groups, an odd zmm group, a ymm group and a Go rest. On
// every arm Stage and Final must carry the Go form's bits and bad node,
// leave their inputs and everything outside their slices alone, and
// Final must leave the mat-vec as it was. A NaN only has to be a NaN:
// which of two NaNs an addition keeps is the instruction's choice, on
// the Go form as in the lanes.
func FuzzLatchStage(f *testing.F) {
	f.Add(uint8(0), uint8(0), false, []byte{})
	var special []byte
	for _, x := range append(append([]float64{1.5, 1, 0.6, 0.025, 0.05 / 6, 1e6}, specials...), tanhEdges()...) {
		special = binary.LittleEndian.AppendUint64(special, math.Float64bits(x))
	}
	for n := uint8(0); n < 36; n++ {
		f.Add(n, n/4, n%4 >= 2, special)
	}
	r := rng.New(2600)
	for n := 0; n < 36; n++ {
		for mode := uint8(0); mode < 4; mode++ {
			f.Add(uint8(n), uint8(n)+mode, mode >= 2, latchSeed(r, n, -1))
		}
	}
	// The first bad node in every lane of zmm group A, zmm group B, the
	// odd zmm group, the trailing ymm group and the Go form's rest.
	for bad := 0; bad < 31; bad++ {
		f.Add(uint8(31), uint8(bad), bad%4 >= 2, latchSeed(r, 31, bad))
	}
	f.Fuzz(func(t *testing.T, size, off uint8, inPlace bool, raw []byte) {
		checkLatch(t, int(size)%36, int(off)%8, inPlace, raw)
	})
}
