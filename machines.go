package mbrim

import (
	"mbrim/internal/brim"
	"mbrim/internal/pt"
	"mbrim/internal/sbm"
)

// BRIMConfig exposes the single-chip machine's knobs (time constant,
// kick schedule and hold, device variation, thermal noise) for direct
// use.
type BRIMConfig = brim.Config

// BRIMMachine is a stateful single-chip BRIM simulator for callers who
// drive the dynamics epoch by epoch themselves.
type BRIMMachine = brim.Machine

// NewBRIM builds a single-chip BRIM machine over the model.
func NewBRIM(m *Model, cfg BRIMConfig) *BRIMMachine { return brim.New(m, cfg) }

// Multi-chip simulated bifurcation — the architecture of the paper's
// 8-FPGA comparator [49].
type (
	// MultiChipSBMConfig parameterizes a partitioned SB run.
	MultiChipSBMConfig = sbm.MultiChipConfig
	// MultiChipSBMResult reports it, with exchange traffic accounting.
	MultiChipSBMResult = sbm.MultiChipResult
	// SBMConfig parameterizes single-node simulated bifurcation.
	SBMConfig = sbm.Config
)

// SBM variant selectors.
const (
	SBMBallistic = sbm.Ballistic
	SBMDiscrete  = sbm.Discrete
)

// SolveMultiChipSBM runs partitioned simulated bifurcation, the chips
// exchanging positions after every step.
func SolveMultiChipSBM(m *Model, cfg MultiChipSBMConfig) *MultiChipSBMResult {
	return sbm.SolveMultiChip(m, cfg)
}

// Parallel tempering for direct use (the Solve surface reaches it via
// Kind PT).
type (
	// PTConfig parameterizes replica-exchange Monte Carlo.
	PTConfig = pt.Config
	// PTResult reports a run.
	PTResult = pt.Result
)

// SolvePT runs parallel tempering on the model.
func SolvePT(m *Model, cfg PTConfig) *PTResult { return pt.Solve(m, cfg) }
