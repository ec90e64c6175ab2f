package lattice

import (
	"encoding/binary"
	"math"
	"testing"

	"mbrim/internal/rng"
)

// checkSBMStep runs Bifurcation.Step over n nodes drawn from raw, as
// FuzzSBMStep describes, and holds it to the Go form node by node.
func checkSBMStep(t *testing.T, n, off int, raw []byte) {
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
	b := Bifurcation{A0: next(), C0: next(), Dt: next()}
	a := next()
	in := &latchBufs{n: n, off: off}
	x, y, f := in.slice(next), in.slice(next), in.slice(next)
	spins := make([]int8, n)
	for i := range spins {
		spins[i] = int8(1 - 2*int(math.Float64bits(next())&1))
	}

	wantX, wantY, wantSpins := make([]float64, n), make([]float64, n), make([]int8, n)
	var wantFlipped []int32
	for i := 0; i < n; i++ {
		wantX[i], wantY[i] = b.node(x[i], y[i], f[i], -(b.A0 - a))
		wantSpins[i] = -1
		if wantX[i] >= 0 {
			wantSpins[i] = 1
		}
		if wantSpins[i] != spins[i] {
			wantFlipped = append(wantFlipped, int32(i))
		}
	}

	lanesAndGo(func() {
		out := &latchBufs{n: n, off: off}
		gx, gy := out.like(x), out.like(y)
		const poison = 0x55
		sbuf := make([]int8, off+n+3)
		fbuf := make([]int32, off+n+3)
		for i := range sbuf {
			sbuf[i], fbuf[i] = poison, poison
		}
		gs := sbuf[off : off+n : off+n]
		copy(gs, spins)
		got := b.Step(gx, gy, f, gs, fbuf[off:off+n:off+n], a)
		for i := 0; i < n; i++ {
			if !sameBits(gx[i], wantX[i]) || !sameBits(gy[i], wantY[i]) {
				t.Fatalf("%s n=%d offset %d node %d: (x, y) = (%#x, %#x), Go form (%#x, %#x)", armName(), n, off, i,
					math.Float64bits(gx[i]), math.Float64bits(gy[i]), math.Float64bits(wantX[i]), math.Float64bits(wantY[i]))
			}
			if gs[i] != wantSpins[i] {
				t.Fatalf("%s n=%d offset %d node %d: spin %d, Go form %d", armName(), n, off, i, gs[i], wantSpins[i])
			}
		}
		if len(got) != len(wantFlipped) {
			t.Fatalf("%s n=%d offset %d: flipped %v, Go form %v", armName(), n, off, got, wantFlipped)
		}
		for k := range got {
			if got[k] != wantFlipped[k] {
				t.Fatalf("%s n=%d offset %d: flipped %v, Go form %v", armName(), n, off, got, wantFlipped)
			}
		}
		for i := range sbuf {
			if (i < off || i >= off+n) && (sbuf[i] != poison || fbuf[i] != poison) {
				t.Fatalf("%s n=%d offset %d: wrote outside the spins or the flip list at %d", armName(), n, off, i)
			}
		}
		out.checkPoison(t)
		in.checkPoison(t)
	})
}

// sbmSeed encodes a dSBM step: C0 of a K512, a(t) somewhere in the ramp,
// positions across the walls and on them, momenta of order 0.1, even
// integer forces and random old spins, with the defaults A0 = 1 and Dt =
// 0.5 or, where those would make a product exact, other values. A fused
// product in any lane moves some of these results.
func sbmSeed(r *rng.Source, n int, defaults bool) []byte {
	uni := func(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }
	a0, dt := 1.0, 0.5
	if !defaults {
		a0, dt = uni(0.5, 1.5), uni(0.1, 0.9)
	}
	vals := []float64{a0, 0.5 / (0.9995 * math.Sqrt(512)), dt, uni(0, a0)}
	for i := 0; i < n; i++ {
		vals = append(vals, []float64{uni(-1.1, 1.1), 1, -1, uni(-0.05, 0.05)}[i%4])
	}
	for i := 0; i < n; i++ {
		vals = append(vals, uni(-0.3, 0.3))
	}
	for i := 0; i < n; i++ {
		vals = append(vals, float64(2*r.Intn(40)-40))
	}
	for i := 0; i < n; i++ {
		vals = append(vals, math.Float64frombits(uint64(r.Intn(2))))
	}
	var raw []byte
	for _, x := range vals {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x))
	}
	return raw
}

// FuzzSBMStep is the proof of sbmStep, the way FuzzLatchStage proves the
// latch: raw bit patterns, every 8 bytes one value — A0, C0, Dt and a(t),
// then per node x, y and the force, then per node a value whose lowest bit
// picks the old spin — over n = size mod 18 nodes at offset mod 4 in
// poisoned buffers. On both kernels Step must carry the Go form's
// positions, momenta, spins and flip list, and write nothing outside its
// slices. A NaN only has to be a NaN.
func FuzzSBMStep(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	var special []byte
	edges := append([]float64{1, 0.02, 0.5, 0.25, 1, -1, math.Nextafter(1, 2), math.Nextafter(-1, -2)}, specials...)
	for _, x := range edges {
		special = binary.LittleEndian.AppendUint64(special, math.Float64bits(x))
	}
	for n := uint8(0); n < 18; n++ {
		f.Add(n, n%4, special)
	}
	// Where a compare could be off by one predicate: a position that
	// lands on a wall, or on a zero of either sign, with each edge in each
	// lane of a group. At a(t) = A0 and no force a momentum far below 1's
	// last place leaves a position of ±1 where it is.
	edges = []float64{0, math.Copysign(0, -1), 1, -1, 1, -1, math.NaN(), math.Inf(-1)}
	moms := []float64{0, 0, 1e-20, -1e-20, 0, 0, 0, 0}
	for rot := 0; rot < 4; rot++ {
		vals := []float64{1, 0.02, 0.5, 1}
		for _, col := range [][]float64{edges, moms, make([]float64, 8), {0, 5e-324, 0, 5e-324, 5e-324, 0, 5e-324, 0}} {
			for i := range col {
				vals = append(vals, col[(i+rot)%len(col)])
			}
		}
		var raw []byte
		for _, x := range vals {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x))
		}
		f.Add(uint8(8), uint8(rot), raw)
	}
	r := rng.New(2900)
	for n := 0; n < 18; n++ {
		for off := uint8(0); off < 4; off++ {
			f.Add(uint8(n), off, sbmSeed(r, n, off%2 == 0))
		}
	}
	f.Fuzz(func(t *testing.T, size, off uint8, raw []byte) {
		checkSBMStep(t, int(size)%18, int(off)%4, raw)
	})
}
