package lattice_test

import (
	"math"
	"testing"

	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/rng"
)

// An external test package: ising imports lattice, and what is held to
// the walk here is an ising.Model — its stored layout (Model.Energy) and
// both views of it.

// instance is a model beside the row-major array it was built from,
// which the reference walk reads.
type instance struct {
	b    *ising.Builder
	n    int
	data []float64
	mu   float64
	h    []float64
}

func newInstance(n int, mu float64) *instance {
	in := &instance{b: ising.NewBuilder(n), n: n, data: make([]float64, n*n), mu: mu, h: make([]float64, n)}
	in.b.SetMu(mu)
	return in
}

func (in *instance) setBias(i int, v float64) { in.b.SetBias(i, v); in.h[i] = v }

func (in *instance) setCoupling(i, j int, v float64) {
	in.b.SetCoupling(i, j, v)
	in.data[i*in.n+j], in.data[j*in.n+i] = v, v
}

// walk is the float walk ising.Model.Energy always was: per row the
// strict upper triangle in ascending column order, zeros included, then
// the row's two subtractions.
func (in *instance) walk(spins []int8) float64 {
	e := 0.0
	for i := 0; i < in.n; i++ {
		row := in.data[i*in.n : (i+1)*in.n]
		si := float64(spins[i])
		acc := 0.0
		for j := i + 1; j < in.n; j++ {
			acc += row[j] * float64(spins[j])
		}
		e -= si * acc
		e -= in.mu * in.h[i] * si
	}
	return e
}

// energyArms builds in's model and evaluates its energy as stored and
// through both views; every answer must carry the walk's bits.
func energyArms(t testing.TB, name string, in *instance, spins []int8) {
	t.Helper()
	m, err := in.b.Build()
	if err != nil {
		t.Fatalf("%s n=%d: %v", name, in.n, err)
	}
	want := in.walk(spins)
	check := func(arm string, got float64) {
		t.Helper()
		// Two NaNs need not share a payload (see sameBits in matvec_test.go).
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("%s n=%d %s: Energy %v (%#x), walk %v (%#x)", name, in.n, arm,
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	check("stored "+m.View(lattice.Auto).Kind().String(), m.Energy(spins))
	for _, kind := range []lattice.Kind{lattice.CSR, lattice.Dense} {
		check(kind.String(), lattice.Energy(m.View(kind), spins, m.MuH()))
	}
}

func TestEnergyArmsAgree(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, n := range []int{1, 2, 63, 64, 65, 300} {
		for _, tc := range []struct {
			name    string
			unit    bool // ±1 couplings: the Dense view carries planes
			density float64
			mu      float64
			bias    func(r *rng.Source, i int) float64
			stray   bool // one spin is 0
		}{
			{name: "±1 dense, integer bias", unit: true, density: 0.8, mu: 2,
				bias: func(r *rng.Source, i int) float64 { return float64(r.Intn(9) - 4) }},
			{name: "±1 sparse, −0 bias", unit: true, density: 0.03, mu: 1,
				bias: func(*rng.Source, int) float64 { return negZero }},
			{name: "±1, μ makes the bias fractional", unit: true, density: 0.5, mu: 0.5,
				bias: func(*rng.Source, int) float64 { return 3 }},
			{name: "±1, 2⁵²-scale bias", unit: true, density: 0.5, mu: -1,
				bias: func(r *rng.Source, i int) float64 { return float64(int64(1)<<52) * float64(r.Spin()) }},
			{name: "±1, stray spin", unit: true, density: 0.5, mu: 1, stray: true,
				bias: func(r *rng.Source, i int) float64 { return float64(r.Intn(3)) }},
			{name: "weighted sparse", density: 0.04, mu: -1.5,
				bias: func(r *rng.Source, i int) float64 { return r.Float64()*2 - 1 }},
			{name: "weighted dense, mixed bias", density: 0.9, mu: 0.3,
				bias: func(r *rng.Source, i int) float64 {
					return []float64{negZero, 0, 0.25, -7, 1 << 52, -1e-9}[r.Intn(6)]
				}},
		} {
			r := rng.New(uint64(n)*131 + uint64(len(tc.name)))
			in := newInstance(n, tc.mu)
			empty := n / 2 // an all-zero row (and column)
			for i := 0; i < n; i++ {
				in.setBias(i, tc.bias(r, i))
				for j := i + 1; j < n; j++ {
					if i == empty || j == empty || !r.Bool(tc.density) {
						continue
					}
					v := float64(r.Spin())
					if !tc.unit {
						v *= 0.1 + 3*r.Float64()
					}
					in.setCoupling(i, j, v)
				}
			}
			spins := ising.RandomSpins(n, r)
			if tc.stray {
				spins[n-1] = 0
			}
			// Where the planes arm answers and where it declines is
			// TestEnergyPlanesMatchFloatWalk's; here every arm, whichever
			// path it took, owes the walk's bits.
			energyArms(t, tc.name, in, spins)
		}
	}
}

// FuzzEnergyArms draws a model (couplings, μ, biases) and a spin vector
// from raw bytes — ±1 and weighted matrices, empty rows, biases of every
// kind the planes accept or decline, stray spins — and holds every arm
// to the model walk's bits.
func FuzzEnergyArms(f *testing.F) {
	f.Add(uint8(1), []byte{0})
	f.Add(uint8(64), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add(uint8(37), []byte("one energy, three arms"))
	weights := []float64{0, 0, 0, 1, -1, 1, -1, 0.5, -2.25, 1e-3, 1 << 30, math.SmallestNonzeroFloat64}
	biases := []float64{0, math.Copysign(0, -1), 1, -3, 0.1, -2.5, 1 << 50, 1 << 52, -(1 << 52), 1e300}
	mus := []float64{1, 2, 0.5, -1, 0}
	f.Fuzz(func(t *testing.T, size uint8, raw []byte) {
		n := int(size)%64 + 1
		if len(raw) == 0 {
			raw = []byte{0}
		}
		at := 0
		next := func() int { b := raw[at%len(raw)] + byte(at/len(raw)); at++; return int(b) }
		palette := weights
		if next()%2 == 0 {
			palette = weights[:7] // ±1 only: the Dense view carries planes
		}
		in := newInstance(n, mus[next()%len(mus)])
		for i := 0; i < n; i++ {
			in.setBias(i, biases[next()%len(biases)])
			for j := i + 1; j < n; j++ {
				in.setCoupling(i, j, palette[next()%len(palette)])
			}
		}
		spins := make([]int8, n)
		for i := range spins {
			switch b := next(); {
			case b < 120:
				spins[i] = 1
			case b < 240:
				spins[i] = -1
			default:
				spins[i] = int8(b) // a stray
			}
		}
		energyArms(t, "fuzz", in, spins)
	})
}
