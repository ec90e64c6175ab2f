package sbm

import (
	"context"
	"fmt"

	"mbrim/internal/ising"
)

// This file implements the multi-chip scale-out of simulated
// bifurcation following Tatsumura, Yamasaki & Goto (Nature Electronics
// 2021, reference [49]) — the 8-FPGA system the paper's Fig 12
// compares against. The spins are partitioned over chips, which
// exchange their positions after every step, the [49] pipeline. No
// position is ever stale, so the run is Solve's machine and loop, bit
// for bit; what the partition adds is the exchange traffic.

// MultiChipConfig parameterizes a partitioned SB run.
type MultiChipConfig struct {
	Config
	// Chips is the number of partitions. Must be >= 1.
	Chips int
}

// MultiChipResult extends Result with exchange accounting.
type MultiChipResult struct {
	Result
	// Exchanges counts position exchanges, one per step; BytesExchanged
	// the total position traffic (4 bytes per remote position per chip,
	// the fixed-point width of [49]).
	Exchanges      int64
	BytesExchanged float64
}

// SolveMultiChip runs partitioned simulated bifurcation.
func SolveMultiChip(m *ising.Model, cfg MultiChipConfig) *MultiChipResult {
	n := m.N()
	if cfg.Chips < 1 || cfg.Chips > n {
		panic(fmt.Sprintf("sbm: Chips=%d for N=%d", cfg.Chips, n))
	}
	res, _ := SolveCtx(context.Background(), m, cfg.Config)
	exchanges := int64(res.Steps)
	return &MultiChipResult{Result: *res, Exchanges: exchanges,
		BytesExchanged: float64(exchanges) * float64(4*n*(cfg.Chips-1))}
}
