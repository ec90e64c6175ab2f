package ising

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// FuzzReadQUBO checks the .qubo parser never panics and that accepted
// instances survive a write/read round trip up to objective values.
func FuzzReadQUBO(f *testing.F) {
	f.Add("p qubo 0 3 1 1\n0 0 -1\n0 2 2\n")
	f.Add("c comment\np qubo 0 1 0 0\n")
	f.Add("p qubo 0 2 0 1\n1 0 5\n")
	f.Add("garbage\n")
	f.Add("p qubo 0 -3 0 0\n")
	f.Add("p qubo 0 80000 0 0\n") // a 51 GB matrix behind one line
	f.Fuzz(func(t *testing.T, input string) {
		q, err := ReadQUBO(strings.NewReader(input))
		if err != nil {
			return
		}
		if q.N() < 1 {
			t.Fatalf("accepted QUBO with n=%d", q.N())
		}
		var buf bytes.Buffer
		if err := WriteQUBO(&buf, q); err != nil {
			t.Fatalf("re-write failed: %v", err)
		}
		back, err := ReadQUBO(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.N() != q.N() {
			t.Fatalf("round trip changed size")
		}
		// Spot-check the objective on a few assignments.
		for mask := 0; mask < 4 && mask < 1<<q.N(); mask++ {
			x := make([]bool, q.N())
			for i := 0; i < q.N() && i < 2; i++ {
				x[i] = mask&(1<<i) != 0
			}
			a, b := q.Value(x), back.Value(x)
			if a != b && !(a != a && b != b) { // tolerate NaN==NaN
				diff := a - b
				if diff < 0 {
					diff = -diff
				}
				scale := 1.0
				if a > 1 || a < -1 {
					scale = a
					if scale < 0 {
						scale = -scale
					}
				}
				if diff/scale > 1e-9 {
					t.Fatalf("objective changed: %v vs %v", a, b)
				}
			}
		}
	})
}

// FuzzModelConstruction drives the Builder with an arbitrary call
// sequence — a coupling, the last pair again the other way round, a
// signed zero over it, a bias, an index out of range, a self-coupling,
// with values smuggled in as raw bit patterns (NaN, ±Inf, −0,
// denormals) — and asserts the boundary contract: Build never panics,
// it errors exactly when some call was malformed or non-finite, and a
// model it
// does return agrees with the dense reference under every layout
// (checkStorage, the storage differential's own check).
func FuzzModelConstruction(f *testing.F) {
	f.Add(uint8(4), []byte{})
	f.Add(uint8(3), []byte{0, 0x01, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f}) // +Inf coupling
	f.Add(uint8(2), []byte{2, 0x00, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f}) // NaN bias
	f.Add(uint8(40), []byte{0, 0x12, 1, 2, 3, 4, 5, 6, 7, 0x40, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0x12, 8, 7, 6, 5, 4, 3, 2, 0xc0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := int(nRaw)%48 + 1
		ref, b := newRef(n), NewBuilder(n)
		bad := false
		couple := func(i, j int, v float64) {
			b.SetCoupling(i, j, v)
			if i < 0 || j < 0 || i >= n || j >= n || i == j || !finite(v) {
				bad = true
				return
			}
			ref.setCoupling(i, j, v)
		}
		li, lj, lv := 0, 0, 0.0 // the last well-formed pair and its value
		for at := 0; at+10 <= len(data); at += 10 {
			sel := int(data[at+1])
			i, j := sel%n, (sel/n+sel)%n
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[at+2 : at+10]))
			switch data[at] % 8 {
			case 0, 1:
				couple(i, j, v)
			case 2:
				b.SetBias(i, v)
				ref.h[i] = v
				bad = bad || !finite(v)
			case 3: // the last pair again, the other way round
				couple(lj, li, v)
			case 4: // a zero over the last pair, signed against its value
				couple(li, lj, math.Copysign(0, -lv))
			case 5:
				couple(i, n+sel, v)
			case 6:
				couple(i, i, v)
			case 7:
				b.SetMu(v)
				ref.mu = v
				bad = bad || !finite(v)
			}
			if i != j && finite(v) {
				li, lj, lv = i, j, v
			}
		}
		for _, h := range ref.h {
			bad = bad || math.IsInf(ref.mu*h, 0)
		}
		m, err := b.Build()
		if bad != (err != nil) {
			t.Fatalf("malformed input: %v, Build: %v", bad, err)
		}
		if err != nil {
			return
		}
		ref.normalize()
		checkStorage(t, "fuzz", ref, m)
	})
}
