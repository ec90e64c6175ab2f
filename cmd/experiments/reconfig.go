package main

import (
	"flag"
	"fmt"
	"strings"

	"mbrim/internal/multichip"
)

func init() {
	register("reconfig", "Secs 4.2/5.2: macrochip utilization and reconfigurable-module layouts", runReconfig)
}

// runReconfig prints the structural-architecture results: Fig 4's
// utilization waste on a monolithic macrochip vs the reconfigurable
// design, Fig 7's three module configurations, and Fig 8's 3D stack.
func runReconfig(args []string) (*figure, error) {
	fs := flag.NewFlagSet("reconfig", flag.ContinueOnError)
	chipN := fs.Int("chipn", 8000, "nodes per chip (paper: 8192-class chips)")
	k := fs.Int("k", 4, "macrochip array dimension (k×k chips)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	f := &figure{}
	f.printf("# Macrochip utilization (Fig 4): k equal problems of one chip's size\n")
	problems := make([]int, *k)
	for i := range problems {
		problems[i] = *chipN
	}
	mono, err := multichip.PackMonolithic(*chipN, *k, problems)
	if err != nil {
		return nil, err
	}
	reconf, err := multichip.PackReconfigurable(*chipN, problems)
	if err != nil {
		return nil, err
	}
	f.set("monolithic utilization", mono.Utilization())
	f.set("reconfigurable utilization", reconf.Utilization())
	f.printf("monolithic %dx%d macrochip: %d chips committed, utilization %.3f\n",
		*k, *k, mono.ChipsUsed, mono.Utilization())
	f.printf("reconfigurable chips:      %d chips used,      utilization %.3f\n",
		reconf.ChipsUsed, reconf.Utilization())
	f.note("expected: monolithic utilization 1/k = %.3f; reconfigurable stays 1.", 1/float64(*k))

	f.printf("\n# Reconfigurable module layouts (Fig 7), 4×4 modules per chip\n")
	for _, chips := range []int{1, 4, 16} {
		l, err := multichip.PlanLayout(4, *chipN/4, chips)
		if err != nil {
			return nil, err
		}
		for what, v := range map[string]int{
			"regular modules": l.RegularModules, "shadow modules": l.ShadowModules,
			"pass-through modules": l.PassThroughModules, "spins per chip": l.SpinsPerChip,
		} {
			f.set(fmt.Sprintf("%d-chip %s", chips, what), float64(v))
		}
		f.printf("%2d-chip system: slice %dn×%dn, modules regular/shadow/pass = %d/%d/%d, %d spins/chip, %d total\n",
			chips, l.RowsModules, l.ColsModules,
			l.RegularModules, l.ShadowModules, l.PassThroughModules,
			l.SpinsPerChip, l.TotalSpins)
		grid := l.ModeGrid()
		for _, row := range grid {
			cells := make([]string, len(row))
			for i, m := range row {
				switch m {
				case multichip.Regular:
					cells[i] = "R"
				case multichip.ShadowCopy:
					cells[i] = "S"
				default:
					cells[i] = "."
				}
			}
			f.printf("   %s\n", strings.Join(cells, " "))
		}
	}

	f.printf("\n# 3D stack (Fig 8), 4 layers\n")
	stack, err := multichip.PlanStack(4, *chipN)
	if err != nil {
		return nil, err
	}
	f.printf("%d layers × %d spins = %d total; shadow TSV lengths per block:\n",
		stack.Layers, stack.ModuleN, stack.TotalSpins())
	for block := 0; block < stack.Layers; block++ {
		var lens []string
		for _, l := range stack.ShadowLayers(block) {
			lens = append(lens, fmt.Sprintf("%d", stack.TSVLength(block, l)))
		}
		f.printf("  block %d: shadows on layers %v, TSV pitches %s\n",
			block, stack.ShadowLayers(block), strings.Join(lens, ","))
	}
	f.note("shadow registers sit directly above/below their real nodes — the paper's")
	f.note("observation that 3D integration makes shadows architecturally optional.")
	return f, nil
}
