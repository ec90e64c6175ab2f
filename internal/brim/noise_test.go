package brim

import (
	"testing"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/metrics"
	"mbrim/internal/rng"
)

func avgCut(t *testing.T, g *graph.Graph, m *ising.Model, cfg Config, runs int) float64 {
	t.Helper()
	cuts := make([]float64, runs)
	for i := range cuts {
		c := cfg
		c.Seed = uint64(1000 + i)
		res := Solve(m, SolveConfig{Duration: 80, Config: c})
		cuts[i] = g.CutFromEnergy(res.Energy)
	}
	return metrics.Summarize(cuts).Mean
}

func TestIdealMachineHasNoVariationState(t *testing.T) {
	m := ferromagnet(8)
	ma := New(m, Config{Seed: 1})
	if ma.latch.InvTauVar != nil || ma.latch.KappaVar != nil {
		t.Fatal("ideal machine allocated variation state")
	}
}

func TestDeviceVariationDeterministic(t *testing.T) {
	g := graph.Complete(24, rng.New(2))
	m := g.ToIsing()
	cfg := Config{Seed: 3, DeviceVariation: 0.1}
	a := Solve(m, SolveConfig{Duration: 40, Config: cfg})
	b := Solve(m, SolveConfig{Duration: 40, Config: cfg})
	if a.Energy != b.Energy || ising.HammingDistance(a.Spins, b.Spins) != 0 {
		t.Fatal("variation broke determinism")
	}
}

func TestModerateVariationToleranted(t *testing.T) {
	// 5% process variation must not collapse solution quality — the
	// robustness any analog machine needs to be buildable.
	g := graph.Complete(48, rng.New(4))
	m := g.ToIsing()
	ideal := avgCut(t, g, m, Config{}, 6)
	varied := avgCut(t, g, m, Config{DeviceVariation: 0.05}, 6)
	if varied < 0.9*ideal {
		t.Fatalf("5%% variation cost >10%% quality: %v vs %v", varied, ideal)
	}
}

func TestVariationFactorsClamped(t *testing.T) {
	m := ferromagnet(64)
	ma := New(m, Config{Seed: 5, DeviceVariation: 3}) // absurd spread
	for i, f := range ma.latch.InvTauVar {
		if f < 0.1 {
			t.Fatalf("invTauVar[%d] = %v below clamp", i, f)
		}
	}
	for i, f := range ma.latch.KappaVar {
		if f < 0.1 {
			t.Fatalf("kappaVar[%d] = %v below clamp", i, f)
		}
	}
}

func TestNoiseKeepsVoltagesBounded(t *testing.T) {
	g := graph.Complete(24, rng.New(6))
	ma := New(g.ToIsing(), Config{Seed: 7, NoiseAmp: 0.5})
	ma.SetHorizon(40)
	ma.Run(40)
	for i, v := range ma.v {
		if v < -1 || v > 1 {
			t.Fatalf("voltage %d escaped rails under noise: %v", i, v)
		}
	}
}

func TestMildNoiseTolerated(t *testing.T) {
	g := graph.Complete(48, rng.New(8))
	m := g.ToIsing()
	ideal := avgCut(t, g, m, Config{}, 6)
	noisy := avgCut(t, g, m, Config{NoiseAmp: 0.02}, 6)
	if noisy < 0.9*ideal {
		t.Fatalf("mild noise cost >10%% quality: %v vs %v", noisy, ideal)
	}
}

func TestHeavyNoiseDegrades(t *testing.T) {
	// Sanity check that the noise actually couples into the dynamics:
	// overwhelming noise must hurt.
	g := graph.Complete(48, rng.New(9))
	m := g.ToIsing()
	ideal := avgCut(t, g, m, Config{}, 5)
	drowned := avgCut(t, g, m, Config{NoiseAmp: 3}, 5)
	if drowned >= ideal {
		t.Fatalf("overwhelming noise did not degrade quality: %v vs %v", drowned, ideal)
	}
}

func TestNegativeParamsPanic(t *testing.T) {
	m := ferromagnet(4)
	for name, f := range map[string]func(){
		"neg variation": func() { New(m, Config{DeviceVariation: -0.1}) },
		"neg noise":     func() { New(m, Config{NoiseAmp: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestLayoutsBitIdentical(t *testing.T) {
	g := graph.Complete(64, rng.New(40))
	m := g.ToIsing()
	seq := Solve(m, SolveConfig{Duration: 30, Config: Config{Seed: 41}})
	// Every layout must reproduce the dense trajectory exactly — the
	// layouts' shared accumulation order is what makes this hold.
	for _, backend := range []lattice.Kind{lattice.Dense, lattice.CSR} {
		// The rescale to Ĵ = J/scale stays in the layout the model came in:
		// a K-graph handed in as compressed rows is not re-resolved dense.
		if got := New(m.As(backend), Config{Seed: 41}).lat.Kind(); got != backend {
			t.Fatalf("New re-laid a %v model as %v", backend, got)
		}
		res := Solve(m.As(backend), SolveConfig{Duration: 30, Config: Config{Seed: 41}})
		if seq.Energy != res.Energy || ising.HammingDistance(seq.Spins, res.Spins) != 0 {
			t.Fatalf("%v changed the trajectory", backend)
		}
		if seq.Flips != res.Flips {
			t.Fatalf("%v changed the flip count", backend)
		}
	}
}
