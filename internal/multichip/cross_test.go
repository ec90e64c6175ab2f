package multichip

import (
	"fmt"
	"math"
	"testing"

	"mbrim/internal/brim"
	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/rng"
)

// rowChip is a chip as this package built it before the cross columns:
// one dense [owned][n] row of scaled couplings per owned spin, and the
// loops that read those rows, kept verbatim. It is the reference the
// columns are held to bit for bit (TestShadowBiasMatchesDenseRows) and
// the old/ side of the benchmarks in bench_test.go.
type rowChip struct {
	owned   []int
	local   []int32
	machine *brim.Machine
	shadow  []int8
	cross   [][]float64

	extScratch  []float64
	spinScratch []int8
}

func newRowChip(l *layout, owned []int, seed uint64, initial []int8) *rowChip {
	m, lat, scale := l.model, l.lat, l.scale
	n := l.n
	c := &rowChip{
		owned:       append([]int(nil), owned...),
		local:       make([]int32, n),
		shadow:      make([]int8, n),
		cross:       make([][]float64, len(owned)),
		extScratch:  make([]float64, len(owned)),
		spinScratch: make([]int8, len(owned)),
	}
	for g := range c.local {
		c.local[g] = -1
	}
	for li, g := range c.owned {
		c.local[g] = int32(li)
	}
	subb := ising.NewBuilder(len(owned))
	subb.SetMu(m.Mu())
	for a, ga := range c.owned {
		subb.SetBias(a, m.Bias(ga))
		row := make([]float64, n)
		lat.Scan(ga, func(j int, v float64) {
			if lj := int(c.local[j]); lj >= 0 {
				if lj > a {
					subb.SetCoupling(a, lj, v)
				}
			} else {
				row[j] = v / scale
			}
		})
		c.cross[a] = row
	}
	sub := mustBuild(subb)
	c.machine = brim.New(sub, l.machineConfig(seed))
	c.loadJobState(initial)
	return c
}

func (c *rowChip) recomputeExternalBias() {
	ext := c.extScratch
	for li := range c.owned {
		row := c.cross[li]
		acc := 0.0
		for j, v := range row {
			if v != 0 {
				acc += v * float64(c.shadow[j])
			}
		}
		ext[li] = acc
	}
	c.machine.SetExternalBias(ext)
}

func (c *rowChip) applyShadowUpdate(g int, s int8) {
	old := c.shadow[g]
	if old == s {
		return
	}
	c.shadow[g] = s
	delta := float64(s - old) // ±2
	for li := range c.owned {
		if v := c.cross[li][g]; v != 0 {
			c.machine.AddColumnBias([]int32{int32(li)}, []float64{v}, delta)
		}
	}
}

func (c *rowChip) applyShadowToggle(g int) {
	old := c.shadow[g]
	if old == 0 {
		old = -1
	}
	c.applyShadowUpdate(g, -old)
}

func (c *rowChip) loadJobState(global []int8) {
	copy(c.shadow, global)
	local := c.spinScratch
	for li, g := range c.owned {
		local[li] = global[g]
	}
	c.machine.SetSpins(local)
	c.recomputeExternalBias()
}

// weightedSparse is a G(n, p) instance with couplings uniform in
// (−1, 1) and fractional biases under μ = 0.5, after any edits.
func weightedSparse(n int, p float64, seed uint64, edits ...func(*ising.Builder)) *ising.Model {
	r := rng.New(seed)
	mb := ising.NewBuilder(n)
	mb.SetMu(0.5)
	for i := 0; i < n; i++ {
		mb.SetBias(i, r.Float64()*2-1)
		for j := i + 1; j < n; j++ {
			if r.Bool(p) {
				mb.SetCoupling(i, j, r.Float64()*2-1)
			}
		}
	}
	for _, edit := range edits {
		edit(mb)
	}
	return mustBuild(mb)
}

func TestShadowBiasMatchesDenseRows(t *testing.T) {
	sparse := weightedSparse(200, 0.05, 61)

	// Spin 7 is isolated; spin 3 couples only inside chip 0 (spins 0..9
	// of 40 over 4 chips), so its column is empty on every other chip.
	holes := weightedSparse(40, 0.3, 62, func(b *ising.Builder) {
		for j := 0; j < 40; j++ {
			if j != 7 {
				b.SetCoupling(7, j, 0)
			}
			if j >= 10 {
				b.SetCoupling(3, j, 0)
			}
		}
		b.SetCoupling(3, 4, 0.75)
	})

	// Interleaved ownership: chip c owns the spins ≡ c mod 3, except that
	// the first and last spins trade chips.
	scattered := make([][]int, 3)
	for g := 0; g < 24; g++ {
		c := g % 3
		switch g {
		case 0:
			c = 2
		case 23:
			c = 0
		}
		scattered[c] = append(scattered[c], g)
	}

	// The scale is 100; the smallest subnormal over it rounds to zero, so
	// the (0, 12) coupling must leave no entry on either chip, while the
	// 1e-300 one (1e-302 scaled) must.
	tinyb := ising.NewBuilder(16)
	tinyb.SetCoupling(1, 2, 100)
	tinyb.SetCoupling(0, 12, math.SmallestNonzeroFloat64)
	tinyb.SetCoupling(5, 9, 1e-300)
	tinyb.SetCoupling(6, 15, -3)
	tiny := mustBuild(tinyb)

	cases := []struct {
		name    string
		m       *ising.Model
		cfg     Config
		entries int // cross entries over all chips, −1 to skip the count
	}{
		{"K24/3", kgraph(24, 53), Config{Chips: 3, Seed: 1}, 2 * (24*23/2 - 3*(8*7/2))},
		{"weighted G(200,0.05)/4", sparse, Config{Chips: 4, Seed: 2}, -1},
		{"forced dense backend", sparse.As(lattice.Dense), Config{Chips: 4, Seed: 2}, -1},
		{"isolated spin and empty column", holes, Config{Chips: 4, Seed: 3}, -1},
		{"non-contiguous partition", kgraph(24, 54), Config{Chips: 3, Seed: 4, Partition: scattered}, -1},
		{"underflowing scale", tiny, Config{Chips: 2, Seed: 5}, 2 * 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := derive(tc.m, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			n, entries := d.n, 0
			r := rng.New(tc.cfg.Seed + 100)
			for ci, owned := range d.parts {
				c := &d.slice(ci).chip
				ref := newRowChip(d.layout, owned, d.cfg.Seed+uint64(ci), d.initial)
				entries += len(c.crossJ)
				for _, v := range c.crossJ {
					if v == 0 {
						t.Fatalf("chip %d stores a zero cross entry", ci)
					}
				}
				check := func(op string) {
					t.Helper()
					got, want := c.machine.Snapshot().Ext, ref.machine.Snapshot().Ext
					for li := range want {
						if math.Float64bits(got[li]) != math.Float64bits(want[li]) {
							t.Fatalf("chip %d after %s: ext[%d] = %v (%#x), dense rows give %v (%#x)", ci, op,
								li, got[li], math.Float64bits(got[li]), want[li], math.Float64bits(want[li]))
						}
					}
					for g := range ref.shadow {
						if c.shadow[g] != ref.shadow[g] {
							t.Fatalf("chip %d after %s: shadow[%d] = %d, want %d", ci, op, g, c.shadow[g], ref.shadow[g])
						}
					}
				}
				check("init")
				var remote []int
				for g := 0; g < n; g++ {
					if c.local[g] < 0 {
						remote = append(remote, g)
					}
				}
				for step := 0; step < 400; step++ {
					g := remote[r.Intn(len(remote))]
					switch k := r.Intn(20); {
					case k == 0:
						global := ising.RandomSpins(n, r)
						c.loadJobState(global)
						ref.loadJobState(global)
						check("loadJobState")
					case k < 8:
						c.applyShadowToggle(g)
						ref.applyShadowToggle(g)
						check(fmt.Sprintf("applyShadowToggle(%d)", g))
					default:
						s := r.Spin()
						c.applyShadowUpdate(g, s)
						ref.applyShadowUpdate(g, s)
						check(fmt.Sprintf("applyShadowUpdate(%d, %d)", g, s))
					}
				}
			}
			if tc.entries >= 0 && entries != tc.entries {
				t.Fatalf("%d cross entries over all chips, want %d", entries, tc.entries)
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
