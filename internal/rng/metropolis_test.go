package rng

import (
	"math"
	"testing"
)

// expTest is the Metropolis test Metropolis replaces, as every annealer
// wrote it.
func expTest(r *Source, beta, delta float64) bool {
	return delta <= 0 || r.Float64() < math.Exp(-beta*delta)
}

// inverse returns the multiplicative inverse of an odd x mod 2⁶⁴.
func inverse(x uint64) uint64 {
	inv := x // correct to 3 bits; each step doubles them
	for i := 0; i < 5; i++ {
		inv *= 2 - x*inv
	}
	return inv
}

// drawing returns a state whose next Uint64()>>11 is u: Uint64 is
// rotl(s1·5, 7)·9 and both multipliers are odd, so s1 follows from the
// output; the low 11 bits and the other words come from fill.
func drawing(u uint64, fill *Source) [4]uint64 {
	out := u<<11 | fill.Uint64()&(1<<11-1)
	s1 := rotl(out*inverse(9), 64-7) * inverse(5)
	return [4]uint64{fill.Uint64(), s1, fill.Uint64(), fill.Uint64()}
}

func TestDrawingPlacesTheDraw(t *testing.T) {
	fill := New(1)
	for _, u := range []uint64{0, 1, 12345, 1<<52 + 7, 1<<53 - 1} {
		r := &Source{s: drawing(u, fill)}
		if got := r.Uint64() >> 11; got != u {
			t.Fatalf("drawing(%d) draws %d", u, got)
		}
	}
}

// TestMetropolisMatchesExp holds the table to the expression it stands
// for: on cloned streams the decision and the state after it are the
// same, for every even ΔE of the table and one past it, for odd,
// fractional, non-finite and non-positive ΔE, at β where the bound is 2⁵³
// (exp rounds to 1, or β ≤ 0) or 0 (β·ΔE past 745, or NaN). One test
// object runs through every β in turn, as SA's does sweep by sweep.
// Beside a stream of random draws, each bound is probed with the draws
// right below, at and above exp(−β·ΔE)·2⁵³ — the only draws on which a
// floor, a ≤ or a stale bound could decide otherwise.
func TestMetropolisMatchesExp(t *testing.T) {
	const n = 40
	var deltas []float64
	for h := 1; h <= n+1; h++ {
		deltas = append(deltas, float64(2*h))
	}
	deltas = append(deltas, 1, 3, 2*n+1, 0.5, 2.5, 1e-300, 2+1e-15, 4*n, 1e300,
		math.Inf(1), math.NaN(), 0, math.Copysign(0, -1), -2, math.Inf(-1))
	betas := []float64{0.1, 3, 0.1, 0, 1e-300, 0.37, 400, 1e-17, -0.5,
		math.NaN(), 1, math.Inf(1), 2.5, 0.1}

	m := NewMetropolis(n, 0)
	stream := New(7)
	fill := New(8)
	for _, beta := range betas {
		m.SetBeta(beta)
		for _, delta := range deltas {
			check := func(r *Source) {
				t.Helper()
				from, ref := r.State(), r.Clone()
				got, want := m.Accept(r, delta), expTest(ref, beta, delta)
				if got != want || r.State() != ref.State() {
					t.Fatalf("β=%v ΔE=%v from %x: Accept %v, exp test %v; states %x, %x",
						beta, delta, from, got, want, r.State(), ref.State())
				}
			}
			for i := 0; i < 64; i++ {
				check(stream)
			}
			x := math.Exp(-beta*delta) * (1 << 53)
			if !(x > 0) || math.IsInf(x, 1) {
				x = 0
			}
			for _, u := range []float64{math.Floor(x) - 1, math.Floor(x), math.Ceil(x), math.Ceil(x) + 1} {
				u = min(max(u, 0), 1<<53-1)
				check(&Source{s: drawing(uint64(u), fill)})
			}
		}
	}
}

// TestMetropolisBoundEdges pins the two clamped bounds: everything is
// below 2⁵³ once exp rounds to 1, and nothing is below 0 once it
// underflows.
func TestMetropolisBoundEdges(t *testing.T) {
	r := New(1)
	for _, c := range []struct {
		beta, delta float64
		bound       uint64
	}{
		{0, 2, 1 << 53},
		{1e-300, 2, 1 << 53},
		{-1, 4, 1 << 53},
		{400, 2, 0}, // exp(−800) underflows
		{1, 746, 0},
		{math.NaN(), 2, 0},
	} {
		m := NewMetropolis(400, c.beta)
		m.Accept(r, c.delta)
		if got := ^m.notBound[int(c.delta/2)]; got != c.bound {
			t.Errorf("β=%v ΔE=%v: bound %d, want %d", c.beta, c.delta, got, c.bound)
		}
	}
}

// TestMetropolisZeroValue: with no table every ΔE takes the expression.
func TestMetropolisZeroValue(t *testing.T) {
	var m Metropolis
	m.SetBeta(0.5)
	a, b := New(3), New(3)
	for _, delta := range []float64{-1, 0, 1, 2, 4, 6.5, math.Inf(1)} {
		if got, want := m.Accept(a, delta), expTest(b, 0.5, delta); got != want || a.State() != b.State() {
			t.Fatalf("ΔE=%v: Accept %v, exp test %v", delta, got, want)
		}
	}
}

// TestMetropolisBandMatchesExp holds the bounds fill sets without math.Exp
// (37 ≤ β·2h ≤ 700) to the ones it would have computed: for every h of
// a 256- and a 4096-entry table, over a β grid from 10⁻³ to 10³ and at
// β where β·2h lies within a few ulps either side of 37 and of 700, the
// table holds ^⌈exp(−β·2h)·2⁵³⌉ as the exp expression gives it.
func TestMetropolisBandMatchesExp(t *testing.T) {
	want := func(beta float64, h int) uint64 {
		x := math.Exp(-beta*float64(2*h)) * (1 << 53)
		switch {
		case !(x > 0):
			return 0
		case x >= 1<<53:
			return 1 << 53
		}
		return uint64(math.Ceil(x))
	}
	for _, n := range []int{256, 4096} {
		var betas []float64
		for b := 1e-3; b < 1e3; b *= 1.25 {
			betas = append(betas, b)
		}
		for _, h := range []int{1, 2, 3, 7, 64, 255, n} {
			for _, edge := range []float64{37, 700} {
				b := edge / float64(2*h)
				for k := 0; k < 4; k++ {
					b = math.Nextafter(b, 0)
				}
				for k := 0; k < 9; k++ {
					betas = append(betas, b)
					b = math.Nextafter(b, math.Inf(1))
				}
			}
		}
		sides := map[float64][2]int{} // edge → products below it, at or above it
		m := NewMetropolis(n, 0)
		for _, beta := range betas {
			m.SetBeta(beta)
			for h := 1; h <= n; h++ {
				if got, want := ^m.fill(h), want(beta, h); got != want {
					t.Fatalf("n=%d β=%v h=%d (β·2h = %v): bound %d, exp gives %d", n, beta, h, beta*float64(2*h), got, want)
				}
				for _, edge := range []float64{37, 700} {
					if y := beta * float64(2*h); math.Abs(y-edge) <= 4*(math.Nextafter(edge, math.Inf(1))-edge) {
						s := sides[edge]
						if y < edge {
							s[0]++
						} else {
							s[1]++
						}
						sides[edge] = s
					}
				}
			}
		}
		for _, edge := range []float64{37, 700} {
			if s := sides[edge]; s[0] == 0 || s[1] == 0 {
				t.Errorf("n=%d: β·2h came within a few ulps of %v only on one side: %v", n, edge, s)
			}
		}
	}
}
