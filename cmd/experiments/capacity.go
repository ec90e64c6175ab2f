package main

import (
	"flag"
	"fmt"

	"mbrim/internal/embed"
	"mbrim/internal/metrics"
	"mbrim/internal/sa"
)

func init() {
	register("capacity", "Sec 4.1.1: nominal vs effective capacity of local-coupling machines", runCapacity)
}

// runCapacity quantifies the observation behind the paper's focus on
// all-to-all architectures: a machine with only local coupling needs
// O(n²) physical nodes to host an n-spin general problem, so its
// effective capacity grows as √N — "a nominal 2000 nodes on the
// D-Wave 2000q is equivalent to only about 64 effective nodes".
func runCapacity(args []string) error {
	fs := flag.NewFlagSet("capacity", flag.ContinueOnError)
	maxLogical := fs.Int("maxn", 24, "largest logical problem to embed and anneal")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Panel 1: effective capacity vs nominal node count, for the
	// degree-3 crossbar scheme and for D-Wave's chimera (shore 4).
	capSeries := &metrics.Series{Name: "effective capacity vs nominal nodes (crossbar chains)"}
	chimeraSeries := &metrics.Series{Name: "effective capacity vs nominal qubits (chimera, shore 4)"}
	for _, phys := range []int{64, 256, 1024, 2048, 8192, 32768} {
		capSeries.Add(float64(phys), float64(embed.EffectiveCapacity(phys)))
		chimeraSeries.Add(float64(phys), float64(embed.ChimeraCapacity(phys, 4)))
	}

	// Panel 2: physical nodes consumed per logical problem size, plus
	// end-to-end embedded-vs-native annealing quality.
	blowup := &metrics.Series{Name: "physical nodes needed vs logical n"}
	quality := &metrics.Series{Name: "embedded/native cut ratio (SA)"}
	for n := 8; n <= *maxLogical; n += 4 {
		g, m := kgraph(n, *seed+uint64(n))
		e := embed.Complete(m, 0)
		blowup.Add(float64(n), float64(e.PhysicalNodes()))

		native := sa.SolveBatch(m, sa.Config{Sweeps: 300, Seed: *seed}, 5)
		embedded := sa.SolveBatch(e.Physical, sa.Config{Sweeps: 300, Seed: *seed}, 5)
		decoded := e.Decode(embedded.Best.Spins)
		nCut := g.CutValue(native.Best.Spins)
		eCut := g.CutValue(decoded)
		if nCut != 0 {
			quality.Add(float64(n), eCut/nCut)
		}
	}

	fmt.Print(metrics.Table("Capacity: local-coupling machines (Sec 4.1.1)", capSeries, chimeraSeries, blowup, quality))
	note("chimera C_16 (2048 qubits, the D-Wave 2000q) hosts K%d — the paper's", embed.ChimeraCapacity(2048, 4))
	note("\"nominal 2000 ≈ 64 effective nodes\", reproduced exactly; the degree-3")
	note("crossbar chains host K%d on the same budget. Both scale as √N.", embed.EffectiveCapacity(2048))
	note("expected shape: physical demand grows quadratically in logical size, and")
	note("embedded annealing quality trails native all-to-all annealing at equal effort.")
	return nil
}
