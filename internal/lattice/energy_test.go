package lattice_test

import (
	"math"
	"testing"

	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/rng"
)

// An external test package: ising imports lattice, and the walk that
// every arm of lattice.Energy answers for is ising.Model.Energy itself.

// energyArms evaluates m's energy through every view and returns
// whether the Dense view handed the call to the walk. The CSR view must
// never do so; every answer must carry m.Energy's bits.
func energyArms(t testing.TB, name string, m *ising.Model, spins []int8) (denseWalked bool) {
	t.Helper()
	n := m.N()
	base := make([]float64, n)
	for i := range base {
		base[i] = m.Mu() * m.Bias(i)
	}
	want := m.Energy(spins)
	for _, kind := range []lattice.Kind{lattice.CSR, lattice.Dense} {
		walked := false
		got := lattice.Energy(m.View(kind), spins, base, func(s []int8) float64 {
			walked = true
			return m.Energy(s)
		})
		// Two NaNs need not share a payload (see sameBits in matvec_test.go).
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("%s n=%d %v: Energy %v (%#x), model walk %v (%#x)", name, n, kind,
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if kind == lattice.CSR && walked {
			t.Errorf("%s n=%d: the CSR view called the walk", name, n)
		}
		if kind == lattice.Dense {
			denseWalked = walked
		}
	}
	return denseWalked
}

func TestEnergyArmsAgree(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, n := range []int{1, 2, 63, 64, 65, 300} {
		for _, tc := range []struct {
			name     string
			unit     bool // ±1 couplings: the Dense view carries planes
			density  float64
			mu       float64
			bias     func(r *rng.Source, i int) float64
			stray    bool // one spin is 0
			declines bool // the planes arm must hand a ±1 instance to the walk
		}{
			{name: "±1 dense, integer bias", unit: true, density: 0.8, mu: 2,
				bias: func(r *rng.Source, i int) float64 { return float64(r.Intn(9) - 4) }},
			{name: "±1 sparse, −0 bias", unit: true, density: 0.03, mu: 1,
				bias: func(*rng.Source, int) float64 { return negZero }},
			{name: "±1, μ makes the bias fractional", unit: true, density: 0.5, mu: 0.5, declines: true,
				bias: func(*rng.Source, int) float64 { return 3 }},
			{name: "±1, 2⁵²-scale bias", unit: true, density: 0.5, mu: -1, declines: true,
				bias: func(r *rng.Source, i int) float64 { return float64(int64(1)<<52) * float64(r.Spin()) }},
			{name: "±1, stray spin", unit: true, density: 0.5, mu: 1, stray: true, declines: true,
				bias: func(r *rng.Source, i int) float64 { return float64(r.Intn(3)) }},
			{name: "weighted sparse", density: 0.04, mu: -1.5,
				bias: func(r *rng.Source, i int) float64 { return r.Float64()*2 - 1 }},
			{name: "weighted dense, mixed bias", density: 0.9, mu: 0.3,
				bias: func(r *rng.Source, i int) float64 {
					return []float64{negZero, 0, 0.25, -7, 1 << 52, -1e-9}[r.Intn(6)]
				}},
		} {
			r := rng.New(uint64(n)*131 + uint64(len(tc.name)))
			m := ising.NewModel(n)
			m.SetMu(tc.mu)
			empty := n / 2 // an all-zero row (and column)
			for i := 0; i < n; i++ {
				m.SetBias(i, tc.bias(r, i))
				for j := i + 1; j < n; j++ {
					if i == empty || j == empty || !r.Bool(tc.density) {
						continue
					}
					v := float64(r.Spin())
					if !tc.unit {
						v *= 0.1 + 3*r.Float64()
					}
					m.SetCoupling(i, j, v)
				}
			}
			spins := ising.RandomSpins(n, r)
			if tc.stray {
				spins[n-1] = 0
			}
			walked := energyArms(t, tc.name, m, spins)
			// A weighted view has no planes and always walks; a ±1 view
			// walks exactly where the planes decline.
			if want := !tc.unit || tc.declines; walked != want {
				t.Errorf("%s n=%d: Dense view walked=%v, want %v", tc.name, n, walked, want)
			}
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
	biases := []float64{0, math.Copysign(0, -1), 1, -3, 0.1, -2.5, 1 << 50, 1 << 52, -(1 << 52), math.Inf(1)}
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
		m := ising.NewModel(n)
		m.SetMu(mus[next()%len(mus)])
		for i := 0; i < n; i++ {
			m.SetBias(i, biases[next()%len(biases)])
			for j := i + 1; j < n; j++ {
				m.SetCoupling(i, j, palette[next()%len(palette)])
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
		energyArms(t, "fuzz", m, spins)
	})
}
