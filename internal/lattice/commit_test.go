package lattice

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"mbrim/internal/rng"
)

// commitByte is the int8 that two bits of a control word pick: −1, 0, +1,
// or, for 3, the byte at bit hi of the word.
func commitByte(ctl uint64, lo, hi uint) int8 {
	if k := ctl >> lo & 3; k < 3 {
		return int8(k) - 1
	}
	return int8(ctl >> hi)
}

// checkCommit runs Latch.Commit over n nodes drawn from raw, as FuzzCommit
// describes, and holds it to the Go form node by node.
func checkCommit(t *testing.T, n, off int, raw []byte) {
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
	tm, th := next(), next()
	in := &latchBufs{n: n, off: off}
	cand := in.slice(next)
	holdUntil := in.slice(next)
	holdTarget, spins := make([]int8, off+n+3), make([]int8, off+n+3)
	for i := 0; i < n; i++ {
		ctl := math.Float64bits(next())
		spins[off+i] = commitByte(ctl, 0, 8)
		holdTarget[off+i] = commitByte(ctl, 2, 16)
		if ctl>>4&1 != 0 {
			holdUntil[i] = tm
		}
	}
	savedIn := make([][]float64, len(in.bufs))
	for i, buf := range in.bufs {
		savedIn[i] = slices.Clone(buf)
	}
	savedTargets, savedSpins := slices.Clone(holdTarget), slices.Clone(spins)
	holdTarget, spins = holdTarget[off:off+n:off+n], spins[off:off+n:off+n]

	wantV := make([]float64, n)
	var wantCrossed []int32
	for i := 0; i < n; i++ {
		wantV[i] = commit(cand[i], i, holdUntil, holdTarget, tm)
		if Readout(spins[i], wantV[i], th) != 0 {
			wantCrossed = append(wantCrossed, int32(i))
		}
	}

	var l Latch
	lanesAndGo(func() {
		out := &latchBufs{n: n, off: off}
		v := out.slice(func() float64 { return latchPoison })
		const poison = 0x5555
		cbuf := make([]int32, off+n+3)
		for i := range cbuf {
			cbuf[i] = poison
		}
		got := l.Commit(cand, v, holdUntil, holdTarget, spins, tm, th, cbuf[off:off+n:off+n])
		for i := 0; i < n; i++ {
			if math.Float64bits(v[i]) != math.Float64bits(wantV[i]) {
				t.Fatalf("%s n=%d offset %d node %d: v = %#x, Go form %#x (candidate %#x)", armName(), n, off, i,
					math.Float64bits(v[i]), math.Float64bits(wantV[i]), math.Float64bits(cand[i]))
			}
		}
		if !slices.Equal(got, wantCrossed) {
			t.Fatalf("%s n=%d offset %d: crossed %v, Go form %v", armName(), n, off, got, wantCrossed)
		}
		for i := range cbuf {
			if (i < off || i >= off+n) && cbuf[i] != poison {
				t.Fatalf("%s n=%d offset %d: wrote outside the crossing list at %d", armName(), n, off, i)
			}
		}
		out.checkPoison(t)
		for j, buf := range in.bufs {
			for i := range buf {
				if math.Float64bits(buf[i]) != math.Float64bits(savedIn[j][i]) {
					t.Fatalf("%s n=%d offset %d: input %d changed at %d", armName(), n, off, j, i)
				}
			}
		}
		if !slices.Equal(holdTarget[:cap(holdTarget)], savedTargets[off:off+n]) || !slices.Equal(spins[:cap(spins)], savedSpins[off:off+n]) {
			t.Fatalf("%s n=%d offset %d: the hold targets or the spins changed", armName(), n, off)
		}
	})
}

// commitRaw encodes values as FuzzCommit reads them.
func commitRaw(vals []float64) []byte {
	var raw []byte
	for _, x := range vals {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x))
	}
	return raw
}

// commitCtl is the control word of a node holding spin s with hold target
// h (each −1, 0 or +1), its hold ending exactly at t when atT.
func commitCtl(s, h int8, atT bool) float64 {
	ctl := uint64(s+1) | uint64(h+1)<<2
	if atT {
		ctl |= 1 << 4
	}
	return math.Float64frombits(ctl)
}

// commitSeed encodes a commit of a chip mid-run: t and th = 0.1,
// candidates between the rails, past them, exactly on them and exactly on
// ±th, about one hold in ten live, another ending exactly
// at t, and spins that the voltages cross now and then.
func commitSeed(r *rng.Source, n int) []byte {
	uni := func(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }
	tm := uni(1, 100)
	vals := []float64{tm, 0.1}
	for i := 0; i < n; i++ {
		vals = append(vals, []float64{uni(-1.3, 1.3), 1, -1, 0.1, -0.1, uni(-0.2, 0.2)}[r.Intn(6)])
	}
	ends := make([]bool, n)
	for i := 0; i < n; i++ {
		until := uni(0, tm)
		switch k := r.Intn(10); {
		case k == 0:
			until = tm + uni(0, 1)
		case k == 1:
			ends[i] = true
		}
		vals = append(vals, until)
	}
	for i := 0; i < n; i++ {
		vals = append(vals, commitCtl(int8(r.Intn(3)-1), int8(2*r.Intn(2)-1), ends[i]))
	}
	return commitRaw(vals)
}

// FuzzCommit is the proof of latchCommit, the way FuzzSBMStep proves
// sbmStep: raw bit patterns, every 8 bytes one value — t and th, then per
// node the candidate, holdUntil, and a control word
// whose bits pick the spin and the hold target (−1, 0, +1 or any byte)
// and whether the hold ends exactly at t — over n = size mod 18 nodes at
// offset mod 4 in poisoned buffers. On both kernels Commit must write the
// Go form's voltages, bit for bit with every NaN's payload, and its
// crossing list, and nothing else.
func FuzzCommit(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	special := commitRaw(append([]float64{2.5, 0.1, 1, -1, 0.1, -0.1, 0.8, -0.8,
		math.Nextafter(1, 2), math.Nextafter(-1, -2), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0xfff8000000000123)}, specials...))
	for n := uint8(0); n < 18; n++ {
		f.Add(n, n%4, special)
		f.Add(n, n/4, special)
	}
	// Where an operand order or a predicate could be off by one: NaNs of
	// several payloads and signs, both zeros, the rails, ±th and ±Inf as
	// candidates, and holds that end exactly at t, with each edge in each
	// lane of a group and each hold against each edge.
	nans := []float64{
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000abc),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff4000000000002),
	}
	edges := append([]float64{0, math.Copysign(0, -1), 1, -1, 0.1, -0.1, math.Inf(1), math.Inf(-1)}, nans...)
	const tm = 2.5
	for rot := 0; rot < 8; rot++ {
		vals := []float64{tm, 0.1}
		for i := range edges {
			vals = append(vals, edges[(i+rot)%len(edges)])
		}
		for i := range edges {
			vals = append(vals, []float64{0, tm, math.Nextafter(tm, 0), math.Nextafter(tm, 5)}[(i+rot/2)%4])
		}
		for i := range edges {
			vals = append(vals, commitCtl(int8(i%3-1), int8((i+rot)%3-1), (i+rot)%3 == 0))
		}
		f.Add(uint8(len(edges)), uint8(rot), commitRaw(vals))
	}
	r := rng.New(3900)
	for n := 0; n < 18; n++ {
		for off := uint8(0); off < 4; off++ {
			f.Add(uint8(n), off, commitSeed(r, n))
		}
	}
	f.Fuzz(func(t *testing.T, size, off uint8, raw []byte) {
		checkCommit(t, int(size)%18, int(off)%4, raw)
	})
}
