// Command experiments regenerates every figure of the paper's
// evaluation (Figs 1, 9–15), the first-principles numbers of
// Sec 6.4.1, the headline summary of Secs 6.3/6.5 and the claims of
// Secs 2.2, 4.1.1, 4.2/5.2, 5.3 and 5.4.1. Each subcommand reproduces
// one claim that EXPERIMENTS.md names it under, and nothing else.
//
// Usage:
//
//	experiments <subcommand> [flags]
//
// Subcommands: fig1, fig9, fig10, fig11, fig12, fig13, fig14, fig15,
// firstprinciples, summary, capacity, reconfig, demand, macrochip,
// machinemetrics, all.
//
// Every subcommand defaults to a scaled-down problem size so the whole
// suite completes in minutes on a laptop; pass -n (and friends) to
// approach paper-scale inputs, for which the authors themselves
// budgeted days of simulation (Sec 6.1). Output is plain text: one
// "# figure" header, one "## series:" block per line of the figure,
// and paper-expectation commentary prefixed with "#?" so downstream
// tooling can strip it.
package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"runtime/debug"
	"slices"

	"mbrim/internal/hostinfo"
)

// command is one registered subcommand.
type command struct {
	name    string
	summary string
	run     func(args []string) (*figure, error)
}

var commands = map[string]*command{}

func register(name, summary string, run func(args []string) (*figure, error)) {
	commands[name] = &command{name: name, summary: summary, run: run}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	names, args := os.Args[1:2], os.Args[2:]
	all := names[0] == "all"
	if all {
		host, _ := json.Marshal(hostinfo.Collect())
		fmt.Printf("# experiments all at commit %s on host %s\n", revision(), host)
		names, args = slices.Sorted(maps.Keys(commands)), nil
	}
	for _, name := range names {
		cmd, ok := commands[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown subcommand %q\n\n", name)
			usage()
			os.Exit(2)
		}
		if all {
			fmt.Printf("\n===== %s =====\n", name)
		}
		fig, err := cmd.run(args)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Print(fig)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments <subcommand> [flags]")
	fmt.Fprintln(os.Stderr, "\nsubcommands:")
	for _, n := range slices.Sorted(maps.Keys(commands)) {
		fmt.Fprintf(os.Stderr, "  %-16s %s\n", n, commands[n].summary)
	}
	fmt.Fprintln(os.Stderr, "  all              run every experiment with defaults")
}

// revision is the commit the binary was built from, as go build stamps
// it (go run does not), marked "+modified" when the tree had
// uncommitted changes.
func revision() string {
	rev, dirty := "unknown (build with go build to stamp it)", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}
