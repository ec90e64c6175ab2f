package main

import (
	"os"
	"regexp"
	"testing"
)

// TestEverySubcommandRuns drives each registered experiment with
// deliberately tiny parameters, guarding the harness against
// regressions (flag drift, panics, broken wiring). Output goes to the
// test log's stdout; correctness of the numbers is covered by the
// package tests — this checks the plumbing.
func TestEverySubcommandRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test is seconds-long; skipped with -short")
	}
	// Silence the experiment output during tests.
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() {
		os.Stdout = old
		null.Close()
	}()

	tiny := map[string][]string{
		"fig1":            {"-cap", "24", "-maxn", "32", "-step", "8", "-sasweeps", "20", "-saruns", "2"},
		"fig9":            {"-n", "64", "-solvers", "4", "-runs", "1", "-epochs", "2"},
		"fig10":           {"-chips", "3", "-jobs", "3", "-epochs", "4"},
		"fig11":           {"-n", "48", "-runs", "2", "-duration", "20"},
		"fig12":           {"-n", "64", "-duration", "20", "-runs", "2"},
		"fig13":           {"-n", "48", "-duration", "20"},
		"fig14":           {"-n", "48", "-duration", "20", "-runs", "1"},
		"fig15":           {"-n", "48", "-duration", "20"},
		"firstprinciples": {"-n", "48", "-sweeps", "20", "-duration", "20"},
		"summary":         {"-n", "64", "-duration", "20", "-runs", "2"},
		"capacity":        {"-maxn", "8"},
		"demand":          {"-n", "48", "-duration", "20", "-bucket", "5"},
		"macrochip":       {"-n", "48", "-duration", "20", "-runs", "1"},
		"reconfig":        {"-chipn", "100"},
		"machinemetrics":  nil,
	}
	for name, cmd := range commands {
		args, ok := tiny[name]
		if !ok {
			t.Errorf("subcommand %q has no smoke-test parameters; add it to the table", name)
			continue
		}
		if err := cmd.run(args); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestEverySubcommandHasAClaim ties the command to the paper: every
// registered subcommand is named as (`name`) in a section heading or a
// bullet of EXPERIMENTS.md, which states the claim it reproduces, and
// every name so written there is registered.
func TestEverySubcommandHasAClaim(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	claim := regexp.MustCompile(`(?m)^(?:#+|\*) .*`)
	name := regexp.MustCompile("\\(`([a-z0-9]+)`\\)")
	for _, line := range claim.FindAllString(string(doc), -1) {
		for _, m := range name.FindAllStringSubmatch(line, -1) {
			named[m[1]] = true
		}
	}
	for n := range commands {
		if !named[n] {
			t.Errorf("subcommand %q is registered but EXPERIMENTS.md names no claim for it", n)
		}
	}
	for n := range named {
		if commands[n] == nil {
			t.Errorf("EXPERIMENTS.md names (`%s`), which is not a registered subcommand", n)
		}
	}
}
