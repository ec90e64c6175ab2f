package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/multichip"
	"mbrim/internal/rng"
)

// triplesWire is the model encoding the packed frame replaced — the
// upper triangle's nonzero couplings as [i, j, J] float rows — kept
// verbatim as the reference the frame is tested against and as the old/
// side of BenchmarkModelFrame.
type triplesWire struct {
	N         int          `json:"n"`
	Mu        float64      `json:"mu,omitempty"`
	Biases    []float64    `json:"biases,omitempty"`
	Couplings [][3]float64 `json:"couplings"`
}

func modelToTriples(m *ising.Model) *triplesWire {
	n := m.N()
	w := &triplesWire{N: n, Mu: m.Mu()}
	for _, h := range m.Biases() {
		if h != 0 {
			w.Biases = append([]float64(nil), m.Biases()...)
			break
		}
	}
	view := m.View(lattice.CSR)
	for i := 0; i < n; i++ {
		view.Scan(i, func(j int, v float64) {
			if j > i {
				w.Couplings = append(w.Couplings, [3]float64{float64(i), float64(j), v})
			}
		})
	}
	return w
}

func (w *triplesWire) build() (*ising.Model, error) {
	if w == nil {
		return nil, fmt.Errorf("cluster: nil model")
	}
	if w.N < 1 {
		return nil, fmt.Errorf("cluster: model n=%d", w.N)
	}
	if w.Biases != nil && len(w.Biases) != w.N {
		return nil, fmt.Errorf("cluster: model has %d biases for n=%d", len(w.Biases), w.N)
	}
	mb := ising.NewBuilder(w.N)
	mb.SetMu(w.Mu)
	for i, h := range w.Biases {
		mb.SetBias(i, h)
	}
	for r, c := range w.Couplings {
		i, j := int(c[0]), int(c[1])
		if i < 0 || j <= i || j >= w.N {
			return nil, fmt.Errorf("cluster: model coupling %d has indices (%d,%d) for n=%d", r, i, j, w.N)
		}
		mb.SetCoupling(i, j, c[2])
	}
	return mb.Build()
}

// gnpModel is a weighted G(n, p): each pair coupled with probability p
// at a weight uniform in (−1, 1).
func gnpModel(n int, p float64, seed uint64) *ising.Model {
	src := rng.New(seed)
	mb := ising.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if src.Bool(p) {
				mb.SetCoupling(i, j, 2*src.Float64()-1)
			}
		}
	}
	return mustBuild(mb)
}

type frameModel struct {
	name string
	m    *ising.Model
	arm  string
}

// frameModels is the shapes the frame must carry, with the arm each
// takes.
func frameModels() []frameModel {
	var out []frameModel
	for _, n := range []int{1, 2, 63, 64, 65, 300} {
		// An empty model's planes are n²/4 bits of zeros, its CSR frame
		// 4n bytes of zero counts: planes are shorter only below n = 3.
		arm := armCSR
		if n <= 2 {
			arm = armPlanes
		}
		out = append(out, frameModel{fmt.Sprintf("zero%d", n), mustBuild(ising.NewBuilder(n)), arm})
		if n == 1 {
			continue // no pair to couple
		}
		p := 0.3
		if n == 2 {
			p = 1 // the one pair there is
		}
		out = append(out,
			frameModel{fmt.Sprintf("K%d", n), kmodel(n, uint64(n)), armPlanes},
			frameModel{fmt.Sprintf("gnp%d", n), gnpModel(n, p, uint64(n)), armCSR})
	}

	half := edited(kmodel(64, 9), func(b *ising.Builder) { b.SetCoupling(17, 40, 0.5) })
	out = append(out, frameModel{"K64-one-half", half, armCSR})

	biased := edited(kmodel(65, 4), func(b *ising.Builder) {
		for i := 0; i < 65; i++ {
			b.SetBias(i, float64(i%7)-3.25)
		}
		b.SetMu(0.375)
	})
	out = append(out, frameModel{"K65-biased-mu", biased, armPlanes})

	weighted := edited(gnpModel(63, 0.1, 8), func(b *ising.Builder) {
		b.SetBias(5, 1e-300)
		b.SetMu(-2)
	})
	out = append(out, frameModel{"gnp63-biased-mu", weighted, armCSR})

	isolated := edited(kmodel(64, 6), func(b *ising.Builder) {
		for j := 0; j < 64; j++ {
			if j != 20 {
				b.SetCoupling(20, j, 0)
			}
		}
	})
	out = append(out, frameModel{"K64-isolated-spin", isolated, armPlanes})

	// 2 % dense: stored, and so encoded from, compressed rows; ±1
	// weights still take the planes arm, which is the shorter frame. At
	// 0.2 % the planes are about eight times the CSR frame.
	sparse := gnpModel(300, 0.02, 5)
	out = append(out, frameModel{"gnp300-sparse", sparse, armCSR},
		frameModel{"gnp300-sparse-unit", graph.Random(300, 0.02, rng.New(5)).ToIsing(), armPlanes},
		frameModel{"gnp1000-sparse-unit", graph.Random(1000, 0.002, rng.New(6)).ToIsing(), armCSR})

	extremesb := ising.NewBuilder(4)
	extremesb.SetCoupling(0, 3, math.MaxFloat64)
	extremesb.SetCoupling(1, 2, -math.SmallestNonzeroFloat64)
	extremesb.SetCoupling(2, 3, 1)
	extremes := mustBuild(extremesb)
	return append(out, frameModel{"extreme-weights", extremes, armCSR})
}

// edited is m with edit's calls on top: a model is immutable, so a
// variant is a replay.
func edited(m *ising.Model, edit func(*ising.Builder)) *ising.Model {
	b := ising.NewBuilder(m.N())
	b.SetMu(m.Mu())
	for i, h := range m.Biases() {
		b.SetBias(i, h)
	}
	lat := m.View(lattice.Auto)
	for i := 0; i < m.N(); i++ {
		lat.Scan(i, func(j int, v float64) {
			if j > i {
				b.SetCoupling(i, j, v)
			}
		})
	}
	edit(b)
	return mustBuild(b)
}

// entries lists a model's stored couplings as (i, j, bits) in row-major
// order.
func entries(m *ising.Model) [][3]uint64 {
	out := make([][3]uint64, 0, m.NNZ())
	lat := m.View(lattice.Auto)
	for i := 0; i < m.N(); i++ {
		lat.Scan(i, func(j int, v float64) {
			out = append(out, [3]uint64{uint64(i), uint64(j), math.Float64bits(v)})
		})
	}
	return out
}

func sameModelBits(t testing.TB, what string, got, want *ising.Model) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: n=%d, want %d", what, got.N(), want.N())
	}
	if math.Float64bits(got.Mu()) != math.Float64bits(want.Mu()) {
		t.Errorf("%s: mu=%v, want %v", what, got.Mu(), want.Mu())
	}
	for i, v := range want.Biases() {
		if math.Float64bits(got.Bias(i)) != math.Float64bits(v) {
			t.Fatalf("%s: bias %d = %v, want %v", what, i, got.Bias(i), v)
		}
	}
	if g, w := got.View(lattice.Auto).Kind(), want.View(lattice.Auto).Kind(); g != w {
		t.Errorf("%s: stored as %v, want %v", what, g, w)
	}
	if g, w := entries(got), entries(want); !slices.Equal(g, w) {
		t.Fatalf("%s: %d stored couplings, want %d, or not the same ones", what, len(g), len(w))
	}
}

// TestModelFrameRoundTrip: the packed frame rebuilds every model bit for
// bit — directly, through its JSON envelope, and in agreement with the
// triples it replaced — in the arm the model's values call for.
func TestModelFrameRoundTrip(t *testing.T) {
	for _, fm := range frameModels() {
		t.Run(fm.name, func(t *testing.T) {
			w := ModelToWire(fm.m)
			if w.Arm != fm.arm {
				t.Errorf("arm %q, want %q", w.Arm, fm.arm)
			}
			n := fm.m.N()
			if w.Arm == armPlanes && len(w.Frame) != 2*((n*(n-1)/2+7)/8) {
				t.Errorf("planes frame of %d bytes for n=%d", len(w.Frame), n)
			}
			direct, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			sameModelBits(t, "frame", direct, fm.m)

			body, err := json.Marshal(w)
			if err != nil {
				t.Fatal(err)
			}
			var back ModelWire
			if err := json.Unmarshal(body, &back); err != nil {
				t.Fatal(err)
			}
			viaJSON, err := back.Build()
			if err != nil {
				t.Fatal(err)
			}
			sameModelBits(t, "frame via JSON", viaJSON, fm.m)

			old, err := json.Marshal(modelToTriples(fm.m))
			if err != nil {
				t.Fatal(err)
			}
			var tw triplesWire
			if err := json.Unmarshal(old, &tw); err != nil {
				t.Fatal(err)
			}
			ref, err := tw.build()
			if err != nil {
				t.Fatal(err)
			}
			sameModelBits(t, "frame vs triples", direct, ref)
		})
	}
}

// TestPackedEpochExchange: the update list and the readout survive their
// packed forms, Li aside (the one field that does not cross the wire).
func TestPackedEpochExchange(t *testing.T) {
	ups := []multichip.PendingUpdate{
		{Li: 0, G: 0, V: -1}, {Li: 3, G: 7, V: 1, Induced: true},
		{Li: 4, G: 65535, V: -1, Induced: true}, {Li: 9, G: 1<<30 - 1, V: 1},
	}
	got, err := unpackUpdates(packUpdates(ups))
	if err != nil {
		t.Fatal(err)
	}
	for k, u := range ups {
		u.Li = 0
		if got[k] != u {
			t.Errorf("update %d: %+v, want %+v", k, got[k], u)
		}
	}
	if b := packUpdates(nil); b != nil {
		t.Errorf("an empty list packs to %v, want nil (omitted from the body)", b)
	}
	for _, n := range []int{1, 7, 8, 9, 64, 130} {
		spins := ising.RandomSpins(n, rng.New(uint64(n)))
		b := packSpins(spins)
		if len(b) != (n+7)/8 {
			t.Fatalf("n=%d: %d readout bytes", n, len(b))
		}
		for li, v := range spins {
			if spinAt(b, li) != v {
				t.Fatalf("n=%d: spin %d reads %d, want %d", n, li, spinAt(b, li), v)
			}
		}
		if pad := n % 8; pad != 0 && b[len(b)-1]>>pad != 0 {
			t.Errorf("n=%d: padding bits set in %08b", n, b[len(b)-1])
		}
	}
}

var benchSink int

// BenchmarkModelFrame is the cost of shipping one model to one worker:
// encode to the request body's bytes and decode back to a dense model,
// for the packed frame and (old/) for the [i, j, J] triples it
// replaced. K256 is k256_cluster2's model (planes arm); G(1024, 0.02)
// is sparse1k's shape (CSR arm).
func BenchmarkModelFrame(b *testing.B) {
	for _, shape := range []struct {
		name string
		m    *ising.Model
	}{
		{"K256", kmodel(256, 7)},
		{"G1024p02", gnpModel(1024, 0.02, 7)},
	} {
		b.Run(shape.name, func(b *testing.B) {
			for b.Loop() {
				body, err := json.Marshal(ModelToWire(shape.m))
				if err != nil {
					b.Fatal(err)
				}
				var w ModelWire
				if err := json.Unmarshal(body, &w); err != nil {
					b.Fatal(err)
				}
				m, err := w.Build()
				if err != nil {
					b.Fatal(err)
				}
				benchSink += m.N() + len(body)
			}
		})
		b.Run("old/"+shape.name, func(b *testing.B) {
			for b.Loop() {
				body, err := json.Marshal(modelToTriples(shape.m))
				if err != nil {
					b.Fatal(err)
				}
				var w triplesWire
				if err := json.Unmarshal(body, &w); err != nil {
					b.Fatal(err)
				}
				m, err := w.build()
				if err != nil {
					b.Fatal(err)
				}
				benchSink += m.N() + len(body)
			}
		})
	}
}

// mustBuild freezes a test's builder: its couplings are the test's own,
// so an error is a bug in the test.
func mustBuild(b *ising.Builder) *ising.Model {
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}
