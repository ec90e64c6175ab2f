package sbm

import (
	"math"
	"testing"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/rng"
)

func TestMultiChipOneChipMatchesMonolithic(t *testing.T) {
	// With a single chip everything is "local": the partitioned solver
	// must reproduce Solve exactly.
	g := graph.Complete(30, rng.New(1))
	m := g.ToIsing()
	for _, variant := range []Variant{Ballistic, Discrete} {
		mono := Solve(m, Config{Variant: variant, Steps: 80, Seed: 2})
		multi := SolveMultiChip(m, MultiChipConfig{
			Config: Config{Variant: variant, Steps: 80, Seed: 2},
			Chips:  1,
		})
		if mono.Energy != multi.Energy ||
			ising.HammingDistance(mono.Spins, multi.Spins) != 0 {
			t.Fatalf("%v: 1-chip multi diverged from monolithic", variant)
		}
	}
}

func TestMultiChipFindsFerromagnetGround(t *testing.T) {
	n := 24
	mb := ising.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mb.SetCoupling(i, j, 1)
		}
	}
	m := mustBuild(mb)
	res := SolveMultiChip(m, MultiChipConfig{
		Config: Config{Variant: Ballistic, Steps: 400, Seed: 3},
		Chips:  4,
	})
	if want := -float64(n*(n-1)) / 2; res.Energy != want {
		t.Fatalf("energy %v, want %v", res.Energy, want)
	}
}

func TestMultiChipDeterministic(t *testing.T) {
	g := graph.Complete(40, rng.New(4))
	m := g.ToIsing()
	cfg := MultiChipConfig{Config: Config{Variant: Discrete, Steps: 60, Seed: 5}, Chips: 4}
	a := SolveMultiChip(m, cfg)
	b := SolveMultiChip(m, cfg)
	if a.Energy != b.Energy || a.BytesExchanged != b.BytesExchanged {
		t.Fatal("same seed produced different runs")
	}
}

func TestMultiChipExchangeAccounting(t *testing.T) {
	g := graph.Complete(32, rng.New(6))
	m := g.ToIsing()
	res := SolveMultiChip(m, MultiChipConfig{Config: Config{Steps: 100, Seed: 7}, Chips: 4})
	if res.Exchanges != 100 {
		t.Fatalf("Exchanges = %d, want one a step, 100", res.Exchanges)
	}
	want := 100.0 * 4 * 32 * 3 // exchanges × 4B × n × (chips−1)
	if math.Abs(res.BytesExchanged-want) > 1e-9 {
		t.Fatalf("BytesExchanged = %v, want %v", res.BytesExchanged, want)
	}
	// One chip never exchanges bytes.
	solo := SolveMultiChip(m, MultiChipConfig{Config: Config{Steps: 100, Seed: 7}, Chips: 1})
	if solo.BytesExchanged != 0 {
		t.Fatalf("1-chip exchanged %v bytes", solo.BytesExchanged)
	}
}

// TestMultiChipFreshExchangeNearMonolithic: exchanging every step leaves
// no position stale, so the partitioned run is Solve's, bit for bit.
func TestMultiChipFreshExchangeNearMonolithic(t *testing.T) {
	g := graph.Complete(64, rng.New(9))
	m := g.ToIsing()
	for _, v := range []Variant{Ballistic, Discrete} {
		for s := uint64(0); s < 5; s++ {
			mono := Solve(m, Config{Variant: v, Steps: 300, Seed: s})
			multi := SolveMultiChip(m, MultiChipConfig{
				Config: Config{Variant: v, Steps: 300, Seed: s},
				Chips:  4,
			})
			if math.Float64bits(multi.Energy) != math.Float64bits(mono.Energy) ||
				ising.HammingDistance(mono.Spins, multi.Spins) != 0 {
				t.Fatalf("%v seed %d: fresh-exchange multi %v, monolithic %v", v, s, multi.Energy, mono.Energy)
			}
		}
	}
}

func TestMultiChipPanics(t *testing.T) {
	m := mustBuild(ising.NewBuilder(4))
	for name, f := range map[string]func(){
		"zero steps": func() { SolveMultiChip(m, MultiChipConfig{Chips: 1}) },
		"zero chips": func() { SolveMultiChip(m, MultiChipConfig{Config: Config{Steps: 1}}) },
		"too many":   func() { SolveMultiChip(m, MultiChipConfig{Config: Config{Steps: 1}, Chips: 5}) },
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
