package main

import (
	"flag"

	"mbrim/internal/power"
)

func init() {
	register("machinemetrics", "Sec 2.2/6.3: area, power and energy-per-solve across machine classes", runMachineMetrics)
}

// runMachineMetrics prints the machine-metrics comparison the paper's
// introduction and Sec 6.3 argue from: die area and power of BRIM
// design points, energy per solve, and the advantage over the
// cabinet-class reference machines.
func runMachineMetrics(args []string) (*figure, error) {
	fs := flag.NewFlagSet("machinemetrics", flag.ContinueOnError)
	solveNS := fs.Float64("solvens", 1100, "model time per solve, ns (paper: 1.1 µs for K16384)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	f := &figure{}
	f.printf("# BRIM design points\n")
	f.printf("%8s %6s %10s %9s\n", "spins", "node", "area mm²", "power W")
	for _, dp := range []struct {
		spins int
		node  float64
		ch    int
	}{
		{2000, 45, 0},
		{8192, 45, 3}, // the paper's chip
		{8192, 16, 3},
		{16384, 16, 3},
	} {
		c := power.Chip{Spins: dp.spins, Tech: power.Technology{Node: dp.node}, Channels: dp.ch}
		f.printf("%8d %4.0fnm %10.1f %9.2f\n", dp.spins, dp.node, c.AreaMM2(), c.PowerW())
		if dp.spins == 8192 && dp.node == 45 {
			f.set("paper chip area mm2", c.AreaMM2())
			f.set("paper chip power W", c.PowerW())
		}
	}

	sys := power.System{
		Chip:  power.Chip{Spins: 8192, Tech: power.Technology{Node: 45}, Channels: 3},
		Chips: 4,
	}
	f.printf("\n# 4-chip mBRIM (paper's Sec 6.3 system): %.0f mm², %.1f W, %.2g J per %.0f ns solve\n",
		sys.TotalAreaMM2(), sys.TotalPowerW(), sys.EnergyPerSolveJ(*solveNS), *solveNS)

	f.printf("\n# Advantage over reference machines (energy ×, time ×)\n")
	for _, ref := range power.References() {
		e, t := sys.AdvantageOver(ref, *solveNS)
		f.set(ref.Name+" time advantage", t)
		f.printf("%-30s %10.0fx %10.0fx\n", ref.Name, e, t)
	}
	f.note("calibrated to the paper's quoted design point (~80 mm², <10 W at 45 nm for")
	f.note("8192 spins); the reference rows use the literature power/time quotes the")
	f.note("paper cites (D-Wave 25 kW, CIM 200 W, 8-FPGA SBM at 2.47 ms).")
	return f, nil
}
