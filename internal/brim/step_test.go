package brim

import (
	"math"
	"testing"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/rng"
)

// TestStepStaysInsideRK4Stability is the a-priori check on the step
// (KU Leuven's BRIM_ISCA simulator makes the same one with the
// largest eigenvalue of J/(RC)):
// every eigenvalue λ of the node equations' Jacobian, in units of 1/τ,
// is Ĵ's plus the latch's slope κ(γ·sech²(γV) − 1) ∈ [−κ, κ(γ−1)]. The
// Jacobian is symmetric plus diagonal, so its spectrum is real and
// |λ|·dt/τ ≤ (ρ(Ĵ) + κmax·max(1, γ−1))·dt/τ, which must stay under a
// quarter of RK4's real-axis bound, with ρ(Ĵ) estimated three times as
// long as New does. The step count New chose must be the rule's,
// max(2, ⌈0.5·(1.1ρ + slope)/stepMargin⌉) at New's own estimate of ρ:
// the spectrum alone sets it. The three random-sign families take two or
// three steps a flip interval at every size; the two coherent ones,
// whose ρ(Ĵ) grows like √n, take many more.
func TestStepStaysInsideRK4Stability(t *testing.T) {
	slope := math.Max(feedbackGain.From, feedbackGain.To) * math.Max(1, gamma-1)
	families := []struct {
		name  string
		model func(n int, r *rng.Source) *ising.Model
	}{
		{"K-graph", func(n int, r *rng.Source) *ising.Model { return graph.NewKGraph(n, r).Model }},
		{"sparse ±1", func(n int, r *rng.Source) *ising.Model { return graph.Random(n, 0.02, r).ToIsing() }},
		{"sparse weighted", func(n int, r *rng.Source) *ising.Model {
			mb := ising.NewBuilder(n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if r.Bool(0.02) {
						mb.SetCoupling(i, j, r.Float64()*2-1)
					}
				}
			}
			return mustBuild(mb)
		}},
		{"unweighted MaxCut", func(n int, _ *rng.Source) *ising.Model {
			mb := ising.NewBuilder(n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					mb.SetCoupling(i, j, -1)
				}
			}
			return mustBuild(mb)
		}},
		{"partition", func(n int, r *rng.Source) *ising.Model {
			a := make([]float64, n)
			for i := range a {
				a[i] = float64(1 + r.Intn(100))
			}
			mb := ising.NewBuilder(n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					mb.SetCoupling(i, j, -2*a[i]*a[j])
				}
			}
			return mustBuild(mb)
		}},
	}
	for _, f := range families {
		for _, n := range []int{256, 1024, 2048} {
			ma := New(f.model(n, rng.New(7)), Config{Seed: 7})
			rho := ma.spectralRadius(3 * powerIters)
			z := (rho + slope) * ma.dt / ma.cfg.Tau
			steps := int(math.Round(ma.flipInterval / ma.dt))
			t.Logf("%-17s n=%4d  ρ(Ĵ) %6.3f  %3d steps, dt %.4f·τ  |λ|max·dt/τ ≤ %.3f", f.name, n, rho, steps, ma.dt/ma.cfg.Tau, z)
			if z > stepMargin {
				t.Errorf("%s n=%d: (ρ(Ĵ) %.3f + %.2f)·dt/τ = %.3f is past a quarter of RK4's real-axis bound (%.3f)",
					f.name, n, rho, slope, z, stepMargin)
			}
			est := ma.spectralRadius(powerIters)
			if want := max(2, int(math.Ceil(0.5*(1.1*est+slope)/stepMargin))); steps != want {
				t.Errorf("%s n=%d: %d steps a flip interval at New's ρ(Ĵ) %.3f, the rule gives %d", f.name, n, steps, est, want)
			}
		}
	}
}

// TestRunTakesWholeSteps: model time lands exactly on every flip draw
// and run end, so a run with no retries takes exactly duration/dt
// steps — none a sliver left by the rounding t += dt accumulates — on a
// clock just started and on one run far out, and a run split at a flip
// boundary steps through the same clock values, and so the same bits,
// as an unsplit one.
func TestRunTakesWholeSteps(t *testing.T) {
	m := graph.NewKGraph(32, rng.New(3)).Model
	for _, start := range []float64{0, 3e4, 1e6} {
		ma := New(m, Config{Seed: 5})
		ma.SetHorizon(start + 40)
		ma.t, ma.nextFlip = start, start+ma.flipInterval
		if err := ma.Run(40); err != nil {
			t.Fatal(err)
		}
		if want := int64(math.Round(40 / ma.dt)); ma.Steps() != want || ma.StepRetries() != 0 {
			t.Errorf("from t=%v: %d steps (%d retries) over 40 ns, want %d", start, ma.Steps(), ma.StepRetries(), want)
		}
		if ma.Time() != start+40 {
			t.Errorf("from t=%v: run ends at %v, want %v", start, ma.Time(), start+40)
		}
	}

	one := New(m, Config{Seed: 5})
	one.SetHorizon(40)
	if err := one.Run(40); err != nil {
		t.Fatal(err)
	}
	split := New(m, Config{Seed: 5})
	split.SetHorizon(40)
	for _, d := range []float64{0.5, 17, 2.5, 20} {
		if err := split.Run(d); err != nil {
			t.Fatal(err)
		}
	}
	for i := range one.v {
		if math.Float64bits(one.v[i]) != math.Float64bits(split.v[i]) {
			t.Fatalf("voltage %d: split run %v, unsplit %v", i, split.v[i], one.v[i])
		}
	}
	if one.Time() != split.Time() || one.Steps() != split.Steps() || one.r.State() != split.r.State() {
		t.Fatalf("split run at t=%v after %d steps, unsplit at t=%v after %d", split.Time(), split.Steps(), one.Time(), one.Steps())
	}
}

// TestHalfStepKeepsTheCut is the accuracy check on the step: halving it
// must not change what the machine finds. On 32 seeded K128 instances
// it runs each seed at dt and at dt/2 and holds the mean paired
// difference of the final cuts within two standard errors of zero — a
// coarser step that lost (or, suspiciously, gained) cut would show as a
// difference the seed-to-seed spread cannot explain.
func TestHalfStepKeepsTheCut(t *testing.T) {
	const seeds, duration = 32, 50
	cut := func(kg *graph.KGraph, seed uint64, halve bool) float64 {
		ma := New(kg.Model, Config{Seed: seed})
		if halve {
			ma.dt /= 2
		}
		ma.SetHorizon(duration)
		if err := ma.Run(duration); err != nil {
			t.Fatal(err)
		}
		return kg.CutValue(ma.Spins())
	}
	var sum, sum2, base float64
	for s := uint64(1); s <= seeds; s++ {
		kg := graph.NewKGraph(128, rng.New(s))
		full, half := cut(kg, s, false), cut(kg, s, true)
		d := full - half
		sum += d
		sum2 += d * d
		base += half
	}
	mean := sum / seeds
	se := math.Sqrt((sum2/seeds - mean*mean) / (seeds - 1))
	t.Logf("mean cut at dt/2 %.1f; paired difference at dt %+.2f ± %.2f (SE)", base/seeds, mean, se)
	if math.Abs(mean) > 2*se {
		t.Errorf("mean cut at dt differs from dt/2 by %+.2f, more than two paired SEs (%.2f)", mean, 2*se)
	}
}

// TestCoherentCouplingsKeepTheirCut: unweighted K800 MaxCut has ρ(Ĵ) ≈
// 28, on its all-equal mode, which the couplings damp at that rate. At
// 0.1·τ, let alone the floor's 0.25·τ, RK4 would amplify the mode
// instead (|λ|·dt/τ ≈ 2.9 and 7.3, past 2.785)
// and drive every node to one rail, cut 0; at the step New fits to it
// the machine finds a near-balanced bipartition, n²/4 edges cut.
func TestCoherentCouplingsKeepTheirCut(t *testing.T) {
	const n = 800
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j, 1)
		}
	}
	ma := New(g.ToIsing(), Config{Seed: 1})
	ma.SetHorizon(10)
	if err := ma.Run(10); err != nil {
		t.Fatal(err)
	}
	if cut, best := g.CutValue(ma.Spins()), float64(n*n/4); cut < 0.99*best {
		t.Errorf("unweighted K%d at dt %v·τ: cut %v of %v", n, ma.dt/ma.cfg.Tau, cut, best)
	}
}
