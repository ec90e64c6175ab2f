package multichip

import (
	"testing"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/rng"
)

// benchShapes are the two multichip shapes the harness runs, four chips
// each: the dense K256 and the 2 %-density 1024-spin edge list. Every
// benchmark below has an old/ twin over rowChip, the dense-row chip the
// cross columns replaced.
var benchShapes = []struct {
	name string
	m    func() *ising.Model
}{
	{"K256", func() *ising.Model { return kgraph(256, 1) }},
	{"G1024p02", func() *ising.Model { return graph.Random(1024, 0.02, rng.New(1)).ToIsing() }},
}

// BenchmarkShadowDeliver is one barrier's delivery to chip 0: 128 remote
// spins change, each turned into bias increments along its couplings.
func BenchmarkShadowDeliver(b *testing.B) {
	for _, shape := range benchShapes {
		d, err := derive(shape.m(), Config{Chips: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		c := &d.slice(0).chip
		ref := newRowChip(d.layout, d.parts[0], d.cfg.Seed, d.initial)
		r := rng.New(2)
		remote := make([]int, 128)
		for i := range remote {
			remote[i] = len(c.owned) + r.Intn(d.n-len(c.owned))
		}
		b.Run(shape.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, g := range remote {
					c.applyShadowUpdate(g, -c.shadow[g])
				}
			}
		})
		b.Run("old/"+shape.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, g := range remote {
					ref.applyShadowUpdate(g, -ref.shadow[g])
				}
			}
		})
	}
}

// BenchmarkNewSystem builds the four chips: sub-models, cross couplings,
// machines and the initial bias load.
func BenchmarkNewSystem(b *testing.B) {
	for _, shape := range benchShapes {
		m, cfg := shape.m(), Config{Chips: 4, Seed: 1}
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewSystem(m, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("old/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := derive(m, cfg)
				if err != nil {
					b.Fatal(err)
				}
				for ci, owned := range d.parts {
					newRowChip(d.layout, owned, d.cfg.Seed+uint64(ci), d.initial)
				}
			}
		})
	}
}

// BenchmarkHostParallelism is the wall-time effect of stepping the four
// chips on host goroutines (Config.Parallel) through a 100 ns K512
// concurrent run. The results are bit-identical either way; the
// system's construction is outside the timer.
func BenchmarkHostParallelism(b *testing.B) {
	m := kgraph(512, 17)
	for _, par := range []bool{false, true} {
		name := "Sequential"
		if par {
			name = "Parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := MustSystem(m, Config{Chips: 4, Seed: uint64(i), Parallel: par})
				b.StartTimer()
				s.RunConcurrent(100)
			}
		})
	}
}
