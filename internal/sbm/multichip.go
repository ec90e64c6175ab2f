package sbm

import (
	"context"
	"fmt"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
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
//
// The run is Solve's machine and loop. Where the snapshot is never
// behind — one chip, or an exchange after every step — a chip's view is
// x itself and the run is Solve's, bit for bit; otherwise the machine
// reads remote rows through a staleView.

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
	// Exchanges counts snapshot synchronizations, ⌊Steps/ExchangeEvery⌋;
	// BytesExchanged the total position traffic (4 bytes per remote
	// position per chip, the fixed-point width of [49]).
	Exchanges      int64
	BytesExchanged float64
}

// staleView is what the chips of a partitioned run see of each other:
// the positions at the last exchange. seen is one chip's merged view of
// a step and signs its readout.
type staleView struct {
	parts          [][]int
	every, age     int
	snapshot, seen []float64
	signs          []int8
}

// force writes every chip's rows of mc.force by the kernels Solve uses,
// from the chip's own positions and the snapshot of the others'. The
// snapshot is first refreshed when v.every steps have passed since the
// last exchange. Every row reads start-of-step positions, a two-phase
// (Jacobi) update as in Solve.
func (v *staleView) force(mc *machine) {
	if v.age == v.every {
		copy(v.snapshot, mc.x)
		v.age = 0
	}
	v.age++
	for _, part := range v.parts {
		lo, hi := part[0], part[len(part)-1]+1
		copy(v.seen, v.snapshot)
		copy(v.seen[lo:hi], mc.x[lo:hi])
		if mc.discrete {
			mc.lat.FieldsRange(readout(v.seen, v.signs), mc.base, mc.force, lo, hi)
		} else {
			mc.floats.MatVecRange(v.seen, mc.base, mc.force, lo, hi)
		}
	}
}

// SolveMultiChip runs partitioned simulated bifurcation.
func SolveMultiChip(m *ising.Model, cfg MultiChipConfig) *MultiChipResult {
	n := m.N()
	if cfg.Chips < 1 || cfg.Chips > n {
		panic(fmt.Sprintf("sbm: Chips=%d for N=%d", cfg.Chips, n))
	}
	if cfg.ExchangeEvery < 0 {
		panic(fmt.Sprintf("sbm: ExchangeEvery=%d", cfg.ExchangeEvery))
	}
	every := max(cfg.ExchangeEvery, 1)
	var stale *staleView
	if cfg.Chips > 1 && every > 1 {
		stale = &staleView{parts: graph.BlockPartition(n, cfg.Chips), every: every, age: every,
			snapshot: make([]float64, n), seen: make([]float64, n), signs: make([]int8, n)}
	}
	res, _ := newMachine(m, cfg.Config, stale, workingCopy(m, cfg.Config)).run(context.Background(), cfg.Config)
	exchanges := int64(res.Steps / every)
	return &MultiChipResult{Result: *res, Exchanges: exchanges,
		BytesExchanged: float64(exchanges) * float64(4*n*(cfg.Chips-1))}
}
