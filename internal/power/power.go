// Package power provides first-order area, power and energy models for
// the machines discussed in the paper. Sec 6.3 claims a 8192-spin BRIM
// chip is ~80 mm² in 45 nm and burns <10 W — far below the cabinet
// machines (D-Wave's 25 kW cryostat, CIM's 200 W bench) and below a
// single FPGA of the SBM cluster. These models make such claims
// computable for arbitrary configurations, so design-space sweeps can
// rank machine metrics (Sec 2.2's fourth design step) and not just
// solution quality.
//
// The models are deliberately first-order: area scales with coupler
// count (the N² RRAM/resistor array dominates), power with coupler
// activity and the digital interface, energy with power × anneal time.
// Constants are calibrated to reproduce the paper's quoted numbers at
// the paper's design point; absolute values away from that point are
// estimates, relative comparisons are the purpose.
package power

import (
	"fmt"
	"math"
)

// Technology describes a CMOS process for scaling.
type Technology struct {
	// Node is the feature size in nm.
	Node float64
}

// scale returns the linear shrink factor relative to the 45 nm
// calibration node.
func (t Technology) scale() float64 {
	if t.Node <= 0 {
		panic(fmt.Sprintf("power: node %v nm", t.Node))
	}
	return t.Node / 45.0
}

// Calibration constants, chosen so that a 8192-spin, 45 nm BRIM chip
// comes out at the paper's ~80 mm² and <10 W.
const (
	// couplerAreaUM2 is the 45 nm area of one coupling unit (resistor
	// + DAC slice + switches) in µm². 8192² couplers ≈ 79 mm².
	couplerAreaUM2 = 1.18
	// nodeAreaUM2 is the per-node area (capacitor, comparator,
	// feedback) in µm².
	nodeAreaUM2 = 60
	// couplerActiveUW is the average power of one coupler at the
	// calibration operating point, in µW: 8192² × 0.1 µW ≈ 6.7 W,
	// which with node and interface power keeps the chip under 10 W.
	couplerActiveUW = 0.1
	// nodeActiveUW is the per-node analog power in µW.
	nodeActiveUW = 25
	// interfaceWPerChannel is the digital fabric power per channel in
	// W (SerDes-class links).
	interfaceWPerChannel = 0.75
)

// Chip is one Ising chip design point.
type Chip struct {
	// Spins is the node count; couplers are Spins².
	Spins int
	// Tech is the process node.
	Tech Technology
	// Channels is the number of fabric channels (0 for a standalone
	// chip).
	Channels int
}

// validate panics on nonsense.
func (c Chip) validate() {
	if c.Spins < 1 {
		panic(fmt.Sprintf("power: %d spins", c.Spins))
	}
	if c.Channels < 0 {
		panic(fmt.Sprintf("power: %d channels", c.Channels))
	}
}

// AreaMM2 returns the estimated die area in mm².
func (c Chip) AreaMM2() float64 {
	c.validate()
	s := c.Tech.scale()
	couplers := float64(c.Spins) * float64(c.Spins)
	um2 := couplers*couplerAreaUM2*s*s + float64(c.Spins)*nodeAreaUM2*s*s
	return um2 / 1e6
}

// PowerW returns the estimated chip power in watts. Analog power
// scales with the shrink (capacitance drops); interface power is
// node-independent to first order.
func (c Chip) PowerW() float64 {
	c.validate()
	s := c.Tech.scale()
	couplers := float64(c.Spins) * float64(c.Spins)
	analogUW := couplers*couplerActiveUW*s + float64(c.Spins)*nodeActiveUW*s
	return analogUW/1e6 + float64(c.Channels)*interfaceWPerChannel
}

// System is a multi-chip machine.
type System struct {
	Chip  Chip
	Chips int
}

// validate panics on nonsense.
func (s System) validate() {
	if s.Chips < 1 {
		panic(fmt.Sprintf("power: %d chips", s.Chips))
	}
}

// TotalAreaMM2 returns the silicon area across chips.
func (s System) TotalAreaMM2() float64 {
	s.validate()
	return float64(s.Chips) * s.Chip.AreaMM2()
}

// TotalPowerW returns the system power.
func (s System) TotalPowerW() float64 {
	s.validate()
	return float64(s.Chips) * s.Chip.PowerW()
}

// EnergyPerSolveJ returns the energy of one anneal of the given model
// time (ns), in joules.
func (s System) EnergyPerSolveJ(modelNS float64) float64 {
	if modelNS <= 0 {
		panic(fmt.Sprintf("power: modelNS %v", modelNS))
	}
	return s.TotalPowerW() * modelNS * 1e-9
}

// Reference machines from the literature, as quoted in the paper
// (Secs 2.2 and 6.2): power in watts, solve time for their flagship
// K-graph result in ns.
type Reference struct {
	Name    string
	PowerW  float64
	SolveNS float64
}

// References returns the paper's comparison points.
func References() []Reference {
	return []Reference{
		{"D-Wave 2000q (cryogenic QA)", 25000, 240e3},
		{"CIM (optical, 2000 node)", 200, 5e6},
		{"8-FPGA dSBM (K16384)", 8 * 60, 2.47e6},
	}
}

// AdvantageOver returns (energy ratio, time ratio) of this system
// solving in modelNS versus the reference machine — the "orders of
// magnitude better machine metrics" arithmetic of the introduction.
func (s System) AdvantageOver(ref Reference, modelNS float64) (energyRatio, timeRatio float64) {
	e := s.EnergyPerSolveJ(modelNS)
	if e == 0 {
		return math.Inf(1), math.Inf(1)
	}
	return ref.PowerW * ref.SolveNS * 1e-9 / e, ref.SolveNS / modelNS
}
