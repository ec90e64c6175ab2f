package ising_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"mbrim/internal/checkpoint"
	"mbrim/internal/cluster"
	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/rng"
)

// The external half of the storage differential (storage_test.go): the
// two readers of a model's couplings that live in packages importing
// this one. Each is held to the loop it used to be over the n×n array,
// kept here verbatim.

// denseHash is checkpoint.HashModel as it was: FNV-1a over n, μ, all n²
// couplings and the biases.
func denseHash(n int, mu float64, j, h []float64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	hash := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			hash ^= v & 0xff
			hash *= prime
			v >>= 8
		}
	}
	mix(uint64(n))
	mix(math.Float64bits(mu))
	for i := 0; i < n; i++ {
		for _, v := range j[i*n : (i+1)*n] {
			mix(math.Float64bits(v))
		}
	}
	for _, v := range h {
		mix(math.Float64bits(v))
	}
	return hash
}

// densePlanesFrame and denseCSRFrame are cluster.ModelToWire's two
// encoders as they were, over the array.
func densePlanesFrame(n int, j []float64) ([]byte, bool) {
	pb := (n*(n-1)/2 + 7) / 8
	frame := make([]byte, 2*pb)
	present, neg := frame[:pb], frame[pb:]
	t := 0
	for i := 0; i < n; i++ {
		for _, v := range j[i*n+i+1 : (i+1)*n] {
			switch v {
			case 0:
			case 1:
				present[t>>3] |= 1 << (t & 7)
			case -1:
				present[t>>3] |= 1 << (t & 7)
				neg[t>>3] |= 1 << (t & 7)
			default:
				return nil, false
			}
			t++
		}
	}
	return frame, true
}

func denseCSRFrame(n int, j []float64) []byte {
	nnz := 0
	for i := 0; i < n; i++ {
		for _, v := range j[i*n+i+1 : (i+1)*n] {
			if v != 0 {
				nnz++
			}
		}
	}
	frame := make([]byte, 4*n+12*nnz)
	at := 4 * n
	for i := 0; i < n; i++ {
		count := 0
		for c, v := range j[i*n+i+1 : (i+1)*n] {
			if v != 0 {
				binary.LittleEndian.PutUint32(frame[at:], uint32(i+1+c))
				binary.LittleEndian.PutUint64(frame[at+4:], math.Float64bits(v))
				at += 12
				count++
			}
		}
		binary.LittleEndian.PutUint32(frame[4*i:], uint32(count))
	}
	return frame
}

func TestHashAndWireReadTheStoredCouplings(t *testing.T) {
	for _, c := range ising.StorageCases(t) {
		m, n := c.Model, c.Model.N()
		if got, want := checkpoint.HashModel(m), denseHash(n, m.Mu(), c.Dense, m.Biases()); got != want {
			t.Errorf("%s: HashModel %#x, the n² walk gives %#x", c.Name, got, want)
		}
		w := cluster.ModelToWire(m)
		frame, arm := denseCSRFrame(n, c.Dense), "csr"
		if pf, ok := densePlanesFrame(n, c.Dense); ok {
			frame, arm = pf, "planes"
		}
		if w.Arm != arm || !bytes.Equal(w.Frame, frame) {
			t.Errorf("%s: a %d-byte %s frame, the array encodes to %d bytes of %s", c.Name, len(w.Frame), w.Arm, len(frame), arm)
		}
		if w.N != n || w.Mu != m.Mu() || (w.Biases != nil && len(w.Biases) != n) {
			t.Errorf("%s: envelope n=%d μ=%v with %d biases", c.Name, w.N, w.Mu, len(w.Biases))
		}
	}
}

// TestHashModelKeepsItsValue pins numbers, not just agreement: hashes a
// parent build wrote into checkpoints (graph.Complete(16, seed 12) is
// the model of multichip's parent_ckpt_k16_c2.json, and the first number
// is that file's modelHash) must be the hashes this build reads
// them with — for a matrix with one zero run per row (a K-graph's
// diagonal) and for one that is almost all zero run.
func TestHashModelKeepsItsValue(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *ising.Model
		want uint64
	}{
		{"K16 seed 12", graph.Complete(16, rng.New(12)).ToIsing(), 15898676325132335464},
		{"K16 seed 1", graph.Complete(16, rng.New(1)).ToIsing(), 0x6913529973699268},
		{"G(1024, 0.02)", graph.Random(1024, 0.02, rng.New(7)).ToIsing(), 0x76b7cc7a40685b84},
	} {
		if got := checkpoint.HashModel(tc.m); got != tc.want {
			t.Errorf("%s: HashModel %#x, the parent commit computed %#x", tc.name, got, tc.want)
		}
	}
}

// TestNegativeZeroMovesTheHash is the external half of the −0 pin: the
// array kept a −0 coupling's sign bit and hashed it; the model stores no
// entry there, so it hashes as the array with +0.
func TestNegativeZeroMovesTheHash(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 0) // J = −w = −0
	g.AddEdge(3, 4, -2)
	m := g.ToIsing()
	dense := make([]float64, 25)
	for _, e := range g.Edges() {
		dense[e.U*5+e.V], dense[e.V*5+e.U] = -e.Weight, -e.Weight
	}
	if !math.Signbit(dense[1*5+2]) {
		t.Fatal("the array lost the −0 it is here to keep")
	}
	if got, old := checkpoint.HashModel(m), denseHash(5, 1, dense, m.Biases()); got == old {
		t.Fatalf("HashModel %#x still mixes the −0 no layout stores", got)
	}
	dense[1*5+2], dense[2*5+1] = 0, 0
	if got, want := checkpoint.HashModel(m), denseHash(5, 1, dense, m.Biases()); got != want {
		t.Fatalf("HashModel %#x, the array with +0 gives %#x", got, want)
	}
}

// TestAs pins the one lever that re-lays a problem: asking for Auto or
// for the layout a model already has hands the model back, untouched and
// without allocating; asking for the other one gives a header over the
// same biases whose every answer — energies, fields, the row norm brim
// scales by, the checkpoint hash, the wire frame — has the stored
// model's bits, and asking that for the original layout comes back to
// it.
func TestAs(t *testing.T) {
	other := map[lattice.Kind]lattice.Kind{lattice.Dense: lattice.CSR, lattice.CSR: lattice.Dense}
	r := rng.New(11)
	h := make([]float64, 96)
	for i := range h {
		h[i] = r.Float64() - 0.5
	}
	for name, m := range map[string]*ising.Model{
		"K96":          graph.Complete(96, rng.New(8)).ToIsing(),
		"G(96, 0.04)":  graph.Random(96, 0.04, rng.New(9)).ToIsing(),
		"K96 + biases": biased(graph.Complete(96, rng.New(10)), h),
	} {
		stored := m.View(lattice.Auto).Kind()
		for _, same := range []lattice.Kind{lattice.Auto, stored} {
			if m.As(same) != m || m.View(same) != m.View(lattice.Auto) {
				t.Fatalf("%s: As(%v) of a %v model is not the model itself", name, same, stored)
			}
			if a := testing.AllocsPerRun(10, func() { m.As(same) }); a != 0 {
				t.Errorf("%s: As(%v) allocates %v times", name, same, a)
			}
		}
		v := m.As(other[stored])
		if got := v.View(lattice.Auto).Kind(); got != other[stored] {
			t.Fatalf("%s: As(%v) is stored as %v", name, other[stored], got)
		}
		if &v.Biases()[0] != &m.Biases()[0] || &v.MuH()[0] != &m.MuH()[0] || v.Mu() != m.Mu() {
			t.Errorf("%s: As(%v) copied the biases", name, other[stored])
		}
		if v.NNZ() != m.NNZ() || v.N() != m.N() {
			t.Errorf("%s: %d spins, %d couplings became %d, %d", name, m.N(), m.NNZ(), v.N(), v.NNZ())
		}
		bits := math.Float64bits
		if a, b := v.MaxRowNorm2(), m.MaxRowNorm2(); bits(a) != bits(b) {
			t.Errorf("%s: MaxRowNorm2 %v, stored %v", name, a, b)
		}
		for try := 0; try < 4; try++ {
			spins := ising.RandomSpins(m.N(), r)
			if a, b := v.Energy(spins), m.Energy(spins); bits(a) != bits(b) {
				t.Errorf("%s: Energy %v, stored %v", name, a, b)
			}
			fv, fm := v.LocalFields(spins, nil), m.LocalFields(spins, nil)
			for i := range fm {
				if bits(fv[i]) != bits(fm[i]) {
					t.Fatalf("%s: LocalFields[%d] %v, stored %v", name, i, fv[i], fm[i])
				}
			}
		}
		if a, b := checkpoint.HashModel(v), checkpoint.HashModel(m); a != b {
			t.Errorf("%s: HashModel %#x, stored %#x", name, a, b)
		}
		wv, wm := cluster.ModelToWire(v), cluster.ModelToWire(m)
		if wv.Arm != wm.Arm || !bytes.Equal(wv.Frame, wm.Frame) {
			t.Errorf("%s: the wire frame follows the layout: %d bytes of %s, stored %d of %s",
				name, len(wv.Frame), wv.Arm, len(wm.Frame), wm.Arm)
		}
		back := v.As(stored)
		if back.View(lattice.Auto).Kind() != stored || back.NNZ() != m.NNZ() ||
			checkpoint.HashModel(back) != checkpoint.HashModel(m) {
			t.Errorf("%s: As(%v).As(%v) did not come back", name, other[stored], stored)
		}
	}
}

// biased is g's Ising model with biases h, stated through a Builder.
func biased(g *graph.Graph, h []float64) *ising.Model {
	b := ising.NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.SetCoupling(e.U, e.V, -e.Weight)
	}
	for i, v := range h {
		b.SetBias(i, v)
	}
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}
