package sbm

import (
	"fmt"
	"time"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/lattice"
)

// This file implements the multi-chip scale-out of simulated
// bifurcation following Tatsumura, Yamasaki & Goto (Nature Electronics
// 2021, reference [49]) — the 8-FPGA system the paper's Fig 12
// compares against. The spins are partitioned over chips; each chip
// advances its slice using *fresh* local positions and a *stale*
// snapshot of remote positions that is re-exchanged every
// ExchangeEvery steps. The staleness/quality trade mirrors the
// mBRIM concurrent-mode epoch trade (Sec 5.4), which is exactly why
// the paper can meaningfully compare the two architectures.

// MultiChipConfig parameterizes a partitioned SB run.
type MultiChipConfig struct {
	Config
	// Chips is the number of partitions. Must be >= 1.
	Chips int
	// ExchangeEvery is the number of steps between snapshot exchanges.
	// Default 1 (exchange after every step, the [49] pipeline).
	ExchangeEvery int
}

// MultiChipResult extends Result with exchange accounting.
type MultiChipResult struct {
	Result
	// Exchanges counts snapshot synchronizations; BytesExchanged the
	// total position traffic (4 bytes per remote position per chip,
	// the fixed-point width of [49]).
	Exchanges      int64
	BytesExchanged float64
}

// SolveMultiChip runs partitioned simulated bifurcation.
func SolveMultiChip(m *ising.Model, cfg MultiChipConfig) *MultiChipResult {
	if cfg.Steps < 1 {
		panic(fmt.Sprintf("sbm: Steps=%d", cfg.Steps))
	}
	if cfg.Chips < 1 {
		panic(fmt.Sprintf("sbm: Chips=%d", cfg.Chips))
	}
	exchangeEvery := cfg.ExchangeEvery
	if exchangeEvery == 0 {
		exchangeEvery = 1
	}
	if exchangeEvery < 1 {
		panic(fmt.Sprintf("sbm: ExchangeEvery=%d", cfg.ExchangeEvery))
	}
	dt := cfg.Dt
	if dt == 0 {
		dt = 0.5
	}
	a0 := cfg.A0
	if a0 == 0 {
		a0 = 1
	}
	n := m.N()
	if cfg.Chips > n {
		panic(fmt.Sprintf("sbm: Chips=%d for N=%d", cfg.Chips, n))
	}
	lat := m.View(lattice.Auto)
	c0 := cfg.C0
	if c0 == 0 {
		c0 = defaultC0From(lat)
	}
	base := m.MuH()
	parts := graph.BlockPartition(n, cfg.Chips)
	sb := lattice.Bifurcation{A0: a0, C0: c0, Dt: dt}

	x, y := positions(cfg.Seed, n)
	// snapshot is every chip's view of remote positions, refreshed at
	// exchange boundaries; seen is one chip's merged view of a step, and
	// spins the signs its dSB force reads. sig is the readout of x itself.
	snapshot := make([]float64, n)
	copy(snapshot, x)
	seen := make([]float64, n)
	spins := make([]int8, n)
	sig := readout(x, make([]int8, n))
	flipped := make([]int32, n)
	force := make([]float64, n)
	energy := func(s []int8) float64 { return lattice.Energy(lat, s, base) }
	res := &MultiChipResult{}
	start := time.Now()
	for step := 0; step < cfg.Steps; step++ {
		at := a0 * float64(step) / float64(cfg.Steps)
		// Two-phase (Jacobi) update, matching Solve exactly: every
		// force is computed from start-of-step positions — the chip's own
		// fresh, the remote ones from the possibly stale snapshot — by the
		// same kernels as Solve over the chip's contiguous rows.
		for _, part := range parts {
			lo, hi := part[0], part[len(part)-1]+1
			copy(seen, snapshot)
			copy(seen[lo:hi], x[lo:hi])
			if cfg.Variant == Discrete {
				lat.FieldsRange(readout(seen, spins), base, force, lo, hi)
			} else {
				lat.MatVecRange(seen, base, force, lo, hi)
			}
		}
		sb.Step(x, y, force, sig, flipped, at)
		if (step+1)%exchangeEvery == 0 {
			copy(snapshot, x)
			res.Exchanges++
			// Each chip broadcasts its positions to the other chips.
			if cfg.Chips > 1 {
				res.BytesExchanged += float64(4 * float64(n) * float64(cfg.Chips-1))
			}
		}
		if cfg.OnStep != nil {
			cfg.OnStep(step, energy(sig))
		}
	}
	res.Spins = ising.CopySpins(sig)
	res.Energy = energy(res.Spins)
	res.Steps = cfg.Steps
	res.Wall = time.Since(start)
	return res
}

// StalenessSweep measures final energy as a function of ExchangeEvery
// — the SBM analogue of Fig 14's epoch sweep, averaged over seeds.
func StalenessSweep(m *ising.Model, base MultiChipConfig, exchanges []int, seeds int) map[int]float64 {
	if seeds < 1 {
		panic(fmt.Sprintf("sbm: seeds=%d", seeds))
	}
	out := make(map[int]float64, len(exchanges))
	for _, ee := range exchanges {
		sum := 0.0
		for s := 0; s < seeds; s++ {
			cfg := base
			cfg.ExchangeEvery = ee
			cfg.Seed = base.Seed + uint64(s)
			sum += SolveMultiChip(m, cfg).Energy
		}
		out[ee] = sum / float64(seeds)
	}
	return out
}
