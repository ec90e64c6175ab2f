// Benchmarks regenerating the shape of every figure in the paper's
// evaluation, plus ablations of the design choices called out in
// DESIGN.md. Each benchmark measures the host cost of one experiment
// unit and attaches the experiment's headline quantity as a custom
// metric (cut value, flip ratio, traffic saving, ...), so
//
//	go test -bench=. -benchmem
//
// doubles as a smoke regeneration of the whole evaluation at reduced
// scale. The full-resolution figures come from cmd/experiments.
package mbrim_test

import (
	"testing"

	"mbrim/internal/brim"
	"mbrim/internal/dnc"
	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/multichip"
	"mbrim/internal/rng"
	"mbrim/internal/sa"
	"mbrim/internal/sbm"
)

func benchGraph(n int, seed uint64) (*graph.Graph, *ising.Model) {
	g := graph.Complete(n, rng.New(seed))
	return g, g.ToIsing()
}

// --- Fig 1: divide-and-conquer past the capacity cliff ---------------

func BenchmarkFig1DivideAndConquer(b *testing.B) {
	b.Run("WithinCapacity", func(b *testing.B) {
		_, m := benchGraph(64, 1)
		mach := &dnc.ProxyMachine{Cap: 64, AnnealNS: 1000, Program: 100, Sweeps: 30}
		for i := 0; i < b.N; i++ {
			sol, _ := mach.Anneal(m, nil, uint64(i))
			_ = sol
		}
	})
	b.Run("QBSolvBeyondCapacity", func(b *testing.B) {
		_, m := benchGraph(96, 1)
		mach := &dnc.ProxyMachine{Cap: 64, AnnealNS: 1000, Program: 100, Sweeps: 30}
		var glue int64
		for i := 0; i < b.N; i++ {
			res := dnc.QBSolv(m, mach, dnc.QBSolvConfig{Seed: uint64(i)})
			glue += res.GlueOps
		}
		b.ReportMetric(float64(glue)/float64(b.N), "glueOps/op")
	})
	b.Run("OursBeyondCapacity", func(b *testing.B) {
		_, m := benchGraph(96, 1)
		mach := &dnc.ProxyMachine{Cap: 64, AnnealNS: 1000, Program: 100, Sweeps: 30}
		for i := 0; i < b.N; i++ {
			dnc.Ours(m, mach, dnc.OursConfig{Seed: uint64(i)})
		}
	})
}

// --- Fig 9: energy surprise vs ignorance ------------------------------

func BenchmarkFig9EnergySurprise(b *testing.B) {
	_, m := benchGraph(256, 2)
	for i := 0; i < b.N; i++ {
		samples := multichip.EnergySurprise(m, multichip.SurpriseConfig{
			Solvers: 4, EpochMoves: 64, Epochs: 5, Runs: 2, Seed: uint64(i),
		})
		if len(samples) == 0 {
			b.Fatal("no samples")
		}
	}
}

// --- Fig 11: single-solver landscape ----------------------------------

func BenchmarkFig11SingleSolver(b *testing.B) {
	g, m := benchGraph(256, 3)
	b.Run("BRIM", func(b *testing.B) {
		var cut float64
		for i := 0; i < b.N; i++ {
			res := brim.Solve(m, brim.SolveConfig{Duration: 60, Config: brim.Config{Seed: uint64(i)}})
			cut = g.CutFromEnergy(res.Energy)
		}
		b.ReportMetric(cut, "cut")
	})
	b.Run("SA", func(b *testing.B) {
		var cut float64
		for i := 0; i < b.N; i++ {
			res := sa.Solve(m, sa.Config{Sweeps: 100, Seed: uint64(i)})
			cut = g.CutFromEnergy(res.Energy)
		}
		b.ReportMetric(cut, "cut")
	})
	b.Run("bSBM", func(b *testing.B) {
		var cut float64
		for i := 0; i < b.N; i++ {
			res := sbm.Solve(m, sbm.Config{Variant: sbm.Ballistic, Steps: 300, Seed: uint64(i)})
			cut = g.CutValue(res.Spins)
		}
		b.ReportMetric(cut, "cut")
	})
	b.Run("dSBM", func(b *testing.B) {
		var cut float64
		for i := 0; i < b.N; i++ {
			res := sbm.Solve(m, sbm.Config{Variant: sbm.Discrete, Steps: 300, Seed: uint64(i)})
			cut = g.CutValue(res.Spins)
		}
		b.ReportMetric(cut, "cut")
	})
}

// --- Fig 12: multiprocessor under bandwidth tiers ---------------------

func BenchmarkFig12MultichipQuality(b *testing.B) {
	g, m := benchGraph(256, 4)
	bwScale := 256.0 / 16384
	tiers := []struct {
		name string
		rate float64
	}{
		{"3D", 0},
		{"HB", 250 * bwScale},
		{"LB", 62.5 * bwScale},
	}
	for _, tier := range tiers {
		b.Run("Concurrent"+tier.name, func(b *testing.B) {
			var cut, elapsed float64
			for i := 0; i < b.N; i++ {
				res := multichip.MustSystem(m, multichip.Config{
					Chips: 4, Seed: uint64(i), ChannelBytesPerNS: tier.rate,
				}).RunConcurrent(60)
				cut = g.CutFromEnergy(res.Energy)
				elapsed = res.ElapsedNS
			}
			b.ReportMetric(cut, "cut")
			b.ReportMetric(elapsed, "elapsedNS")
		})
		b.Run("Batch"+tier.name, func(b *testing.B) {
			var cut, elapsed float64
			for i := 0; i < b.N; i++ {
				res := multichip.MustSystem(m, multichip.Config{
					Chips: 4, Seed: uint64(i), EpochNS: 10, ChannelBytesPerNS: tier.rate,
				}).RunBatch(4, 60)
				cut = g.CutFromEnergy(res.BestEnergy)
				elapsed = res.ElapsedNS
			}
			b.ReportMetric(cut, "cut")
			b.ReportMetric(elapsed, "elapsedNS")
		})
	}
}

// --- Fig 13: flips vs bit changes --------------------------------------

func BenchmarkFig13FlipsVsBitChanges(b *testing.B) {
	_, m := benchGraph(256, 5)
	for _, epoch := range []float64{1, 3.3, 10} {
		b.Run(epochName(epoch), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				res := multichip.MustSystem(m, multichip.Config{
					Chips: 4, EpochNS: epoch, Seed: uint64(i),
				}).RunConcurrent(60)
				if res.BitChanges > 0 {
					ratio = float64(res.Flips) / float64(res.BitChanges)
				}
			}
			b.ReportMetric(ratio, "flips/bitChange")
		})
	}
}

func epochName(e float64) string {
	switch e {
	case 1:
		return "Epoch1ns"
	case 3.3:
		return "Epoch3.3ns"
	default:
		return "Epoch10ns"
	}
}

// --- Fig 14: quality vs epoch size, both modes -------------------------

func BenchmarkFig14EpochQuality(b *testing.B) {
	g, m := benchGraph(256, 6)
	b.Run("ConcurrentLongEpoch", func(b *testing.B) {
		var cut float64
		for i := 0; i < b.N; i++ {
			res := multichip.MustSystem(m, multichip.Config{
				Chips: 4, EpochNS: 20, Seed: uint64(i),
			}).RunConcurrent(80)
			cut = g.CutFromEnergy(res.Energy)
		}
		b.ReportMetric(cut, "cut")
	})
	b.Run("BatchLongEpoch", func(b *testing.B) {
		var cut float64
		for i := 0; i < b.N; i++ {
			res := multichip.MustSystem(m, multichip.Config{
				Chips: 4, EpochNS: 20, Seed: uint64(i),
			}).RunBatch(4, 80)
			cut = g.CutFromEnergy(res.BestEnergy)
		}
		b.ReportMetric(cut, "cut")
	})
}

// --- Fig 15: coordinated induced flips ---------------------------------

func BenchmarkFig15InducedFlips(b *testing.B) {
	_, m := benchGraph(256, 7)
	b.Run("Uncoordinated", func(b *testing.B) {
		var traffic float64
		for i := 0; i < b.N; i++ {
			res := multichip.MustSystem(m, multichip.Config{
				Chips: 4, Seed: uint64(i),
			}).RunConcurrent(60)
			traffic = res.TrafficBytes
		}
		b.ReportMetric(traffic, "trafficB")
	})
	b.Run("Coordinated", func(b *testing.B) {
		var traffic float64
		for i := 0; i < b.N; i++ {
			res := multichip.MustSystem(m, multichip.Config{
				Chips: 4, Seed: uint64(i), Coordinated: true,
			}).RunConcurrent(60)
			traffic = res.TrafficBytes
		}
		b.ReportMetric(traffic, "trafficB")
	})
}

// --- Sec 6.4.1: first principles ---------------------------------------

func BenchmarkFirstPrinciples(b *testing.B) {
	_, m := benchGraph(256, 8)
	b.Run("SAInstructionsPerFlip", func(b *testing.B) {
		var ipf float64
		for i := 0; i < b.N; i++ {
			res := sa.Solve(m, sa.Config{Sweeps: 50, Seed: uint64(i)})
			ipf = res.InstructionsPerFlip()
		}
		b.ReportMetric(ipf, "instr/flip")
	})
	b.Run("BRIMFlipCadence", func(b *testing.B) {
		var nsPerFlip float64
		for i := 0; i < b.N; i++ {
			res := brim.Solve(m, brim.SolveConfig{Duration: 60, Config: brim.Config{Seed: uint64(i)}})
			if res.Flips > 0 {
				nsPerFlip = res.ModelNS / float64(res.Flips)
			}
		}
		b.ReportMetric(nsPerFlip, "modelNS/flip")
	})
}

// --- Ablations (DESIGN.md Sec 5) ----------------------------------------

// AblationEpoch: the central knob — host cost and quality across epoch
// lengths.
func BenchmarkAblationEpoch(b *testing.B) {
	g, m := benchGraph(256, 9)
	for _, epoch := range []float64{1, 5, 25} {
		b.Run(ablName("Epoch", epoch), func(b *testing.B) {
			var cut float64
			for i := 0; i < b.N; i++ {
				res := multichip.MustSystem(m, multichip.Config{
					Chips: 4, EpochNS: epoch, Seed: uint64(i),
				}).RunConcurrent(60)
				cut = g.CutFromEnergy(res.Energy)
			}
			b.ReportMetric(cut, "cut")
		})
	}
}

func ablName(prefix string, v float64) string {
	switch v {
	case 1:
		return prefix + "1ns"
	case 5:
		return prefix + "5ns"
	default:
		return prefix + "25ns"
	}
}

// AblationCoordinatedFlips: quality must be unaffected while traffic
// drops (the flips themselves are identical decisions).
func BenchmarkAblationCoordinatedFlips(b *testing.B) {
	g, m := benchGraph(256, 10)
	for _, coord := range []bool{false, true} {
		name := "Off"
		if coord {
			name = "On"
		}
		b.Run(name, func(b *testing.B) {
			var cut, traffic float64
			for i := 0; i < b.N; i++ {
				res := multichip.MustSystem(m, multichip.Config{
					Chips: 4, Seed: uint64(i), Coordinated: coord,
				}).RunConcurrent(60)
				cut = g.CutFromEnergy(res.Energy)
				traffic = res.TrafficBytes
			}
			b.ReportMetric(cut, "cut")
			b.ReportMetric(traffic, "trafficB")
		})
	}
}

// AblationLocalField: the dense cached-local-field SA against the
// naive full-recompute strawman (Sec 6.1's "dense matrix" win).
func BenchmarkAblationLocalField(b *testing.B) {
	_, m := benchGraph(256, 11)
	b.Run("CachedFields", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sa.Solve(m, sa.Config{Sweeps: 20, Seed: uint64(i)})
		}
	})
	b.Run("NaiveRecompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sa.SolveNaive(m, sa.Config{Sweeps: 20, Seed: uint64(i)})
		}
	})
}

// AblationBatchStagger: staggered batch mode's O(N) state exchange vs
// the O(bN²) context-switch volume independent jobs would pay
// (Sec 5.5's closing argument). The reprogram volume is modeled: b=8
// coupling bits × N² weights per switch.
func BenchmarkAblationBatchStagger(b *testing.B) {
	_, m := benchGraph(256, 13)
	b.Run("Staggered", func(b *testing.B) {
		var traffic float64
		for i := 0; i < b.N; i++ {
			res := multichip.MustSystem(m, multichip.Config{
				Chips: 4, EpochNS: 10, Seed: uint64(i),
			}).RunBatch(4, 60)
			traffic = res.TrafficBytes
		}
		b.ReportMetric(traffic, "trafficB")
	})
	b.Run("ContextSwitchModel", func(b *testing.B) {
		// Modeled, not simulated: every epoch each chip would reload
		// the next job's coupling block — (N/chips)×N weights × 1 byte.
		n := float64(m.N())
		epochs := 6.0            // 60 ns / 10 ns
		perSwitch := (n / 4) * n // bytes per chip per switch at b=8 bits
		var traffic float64
		for i := 0; i < b.N; i++ {
			traffic = epochs * 4 * perSwitch
		}
		b.ReportMetric(traffic, "trafficB")
	})
}

// --- Extension benches ---------------------------------------------------

// SparseVsDense: the CSR layout's win on a 1%-density graph — the same
// model, the same trajectory, flips at O(degree) instead of O(N).
func BenchmarkSparseVsDenseSA(b *testing.B) {
	m := graph.Random(2000, 0.01, rng.New(15)).ToIsing()
	for _, backend := range []lattice.Kind{lattice.Dense, lattice.CSR} {
		b.Run(backend.String(), func(b *testing.B) {
			m := m.As(backend)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sa.Solve(m, sa.Config{Sweeps: 5, Seed: uint64(i)})
			}
		})
	}
}

// HostParallelism: wall-time effect of per-chip goroutines (results
// are bit-identical; only the host cost differs).
func BenchmarkHostParallelism(b *testing.B) {
	_, m := benchGraph(512, 17)
	for _, par := range []bool{false, true} {
		name := "Sequential"
		if par {
			name = "Parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				multichip.MustSystem(m, multichip.Config{
					Chips: 4, Seed: uint64(i), Parallel: par,
				}).RunConcurrent(10)
			}
		})
	}
}

// SequentialVsConcurrent: the Sec 5.4.1 elapsed-time contrast at equal
// per-chip annealing.
func BenchmarkSequentialMode(b *testing.B) {
	g, m := benchGraph(256, 18)
	b.Run("Concurrent", func(b *testing.B) {
		var cut, elapsed float64
		for i := 0; i < b.N; i++ {
			res := multichip.MustSystem(m, multichip.Config{
				Chips: 4, Seed: uint64(i), EpochNS: 1,
			}).RunConcurrent(40)
			cut, elapsed = g.CutFromEnergy(res.Energy), res.ElapsedNS
		}
		b.ReportMetric(cut, "cut")
		b.ReportMetric(elapsed, "elapsedNS")
	})
	b.Run("Sequential", func(b *testing.B) {
		var cut, elapsed float64
		for i := 0; i < b.N; i++ {
			res := multichip.MustSystem(m, multichip.Config{
				Chips: 4, Seed: uint64(i), EpochNS: 1,
			}).RunSequential(40)
			cut, elapsed = g.CutFromEnergy(res.Energy), res.ElapsedNS
		}
		b.ReportMetric(cut, "cut")
		b.ReportMetric(elapsed, "elapsedNS")
	})
}
