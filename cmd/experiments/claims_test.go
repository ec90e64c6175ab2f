package main

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"mbrim/internal/metrics"
)

// claims holds, for every registered subcommand, the reduced flags it
// runs at and the shapes the paper states that its figure must show.
// BRIM and mBRIM quantities are in model time and repeat exactly, so
// their thresholds sit well inside what a changed dynamics would move;
// quantities built on measured host time are asserted only as
// orderings, each of which the measured values (in the row comments)
// clear several times over. A paper claim the reproduction does not
// meet is a gap entry, not a loosened threshold.
var claims = map[string]struct {
	args  []string
	check func(t *testing.T, f *figure)
}{
	// Fig 1: the speedup collapses one size step past the machine's
	// capacity (≈ 440 → 0.9 and 5 here; paper 600 000 → 250), and
	// Algorithm 2 stays ahead of qbsolv past it.
	"fig1": {nil, func(t *testing.T, f *figure) {
		for _, glue := range []string{"qbsolv", "ours"} {
			at, past := value(t, f, glue+" speedup at capacity"), value(t, f, glue+" speedup one step past capacity")
			claim(t, at >= 10*past, "%s: speedup %.3g at capacity falls ≥ 10× to %.3g one step past it", glue, at, past)
		}
		ours, qb := value(t, f, "ours speedup one step past capacity"), value(t, f, "qbsolv speedup one step past capacity")
		claim(t, ours > qb, "past capacity, Algorithm 2's speedup %.3g beats qbsolv's %.3g", ours, qb)
	}},
	// Fig 9: ignorance rises with the epoch (0.005 → 0.039 → 0.140),
	// and the longest epochs' surprise is negative (−186).
	"fig9": {[]string{"-n", "512"}, func(t *testing.T, f *figure) {
		small, medium, large := value(t, f, "small epoch mean ignorance"),
			value(t, f, "medium epoch mean ignorance"), value(t, f, "large epoch mean ignorance")
		claim(t, small < medium && medium < large, "mean ignorance rises with the epoch: %.3f < %.3f < %.3f", small, medium, large)
		s := value(t, f, "large epoch mean surprise")
		claim(t, s < 0, "the large epochs' mean surprise %.1f is negative", s)
	}},
	// Fig 10: the rotation's two properties, verified by the subcommand
	// itself on every epoch and job it prints.
	"fig10": {nil, func(t *testing.T, f *figure) {
		claim(t, value(t, f, "epochs with distinct jobs") == 8, "each of 8 epochs gives each chip a distinct job")
		claim(t, value(t, f, "jobs visiting every chip") == 4, "each of 4 jobs visits every chip within 4 epochs")
	}},
	// Fig 11: one BRIM chip reaches its cut in model time orders of
	// magnitude below the software solvers' wall time; the paper's
	// "BRIM attains the best-known cut" is a gap.
	"fig11": {[]string{"-n", "256", "-runs", "4"}, func(t *testing.T, f *figure) {
		brim := value(t, f, "BRIM ns")
		for _, sw := range []string{"SA", "dSBM"} {
			ns := value(t, f, sw+" ns")
			claim(t, 100*brim < ns, "BRIM's %.0f ns is ≥ 100× below %s's %.3g ns", brim, sw, ns)
		}
		cut, best := value(t, f, "BRIM cut"), math.Max(value(t, f, "SA best cut"), value(t, f, "dSBM best cut"))
		gap(t, "BRIM below the best software cut", cut < best,
			"BRIM's cut is %.3f of the best software cut (paper: BRIM attains the best-known cut)", cut/best)
	}},
	// Fig 12: the bandwidth tiers stall in order, and batch mode
	// recovers the LB tier's stall (LB concurrent 689 ns, batch 600
	// ns/job here).
	"fig12": {[]string{"-n", "128", "-runs", "2"}, func(t *testing.T, f *figure) {
		d3, hb, lb := value(t, f, "mBRIM_3D concurrent elapsed ns"), value(t, f, "mBRIM_HB concurrent elapsed ns"),
			value(t, f, "mBRIM_LB concurrent elapsed ns")
		claim(t, d3 <= hb && hb <= lb && d3 < lb, "concurrent elapsed grows as bandwidth falls: 3D %.0f ≤ HB %.0f ≤ LB %.0f ns", d3, hb, lb)
		batch := value(t, f, "mBRIM_LB batch ns per job")
		claim(t, batch < lb, "LB batch %.0f ns/job beats LB concurrent %.0f ns", batch, lb)
	}},
	// Fig 13: flips per bit change is ≥ 1 and non-decreasing in epoch
	// size (1.04 → 3.38); the paper's 4–5× at ≈ 3 ns is a gap.
	"fig13": {[]string{"-n", "256"}, func(t *testing.T, f *figure) {
		pts := series(t, f, "avg flips/bit-changes vs epoch size").Points
		claim(t, len(pts) == 8, "a ratio at each of 8 epoch sizes (got %d)", len(pts))
		for i, p := range pts {
			claim(t, p.Y >= 1, "ratio %.3f at %.1f ns is ≥ 1", p.Y, p.X)
			if i > 0 {
				claim(t, p.Y >= pts[i-1].Y, "ratio %.3f at %.1f ns ≥ %.3f at %.1f ns", p.Y, p.X, pts[i-1].Y, pts[i-1].X)
			}
		}
		for _, p := range pts {
			if p.X == 3.3 {
				gap(t, "flips per bit change at 3.3 ns epochs", p.Y < 4,
					"%.2f flips per bit change at 3.3 ns epochs (paper: 4–5×)", p.Y)
			}
		}
	}},
	// Fig 14: from 1 to 50 ns epochs concurrent mode loses more cut
	// than batch mode (≈ 74 % against ≈ 23 %), by more than 2 SE over
	// three seeds (instance and runs both follow -seed); the paper's
	// flat batch curve is a gap.
	"fig14": {[]string{"-n", "256"}, func(t *testing.T, f *figure) {
		var gaps, batch []float64
		for i, fi := range []*figure{f, run(t, "fig14", "-n", "256", "-seed", "2"), run(t, "fig14", "-n", "256", "-seed", "3")} {
			c, b := value(t, fi, "concurrent drop %"), value(t, fi, "batch drop %")
			t.Logf("seed %d: concurrent drops %.1f %%, batch %.1f %%", i+1, c, b)
			gaps, batch = append(gaps, c-b), append(batch, b)
		}
		d := metrics.Summarize(gaps)
		se := d.Std / math.Sqrt(float64(d.N))
		claim(t, d.Mean > 2*se, "concurrent drops %.1f points more than batch, SE %.1f", d.Mean, se)
		b := metrics.Summarize(batch).Mean
		gap(t, "batch quality falls with epoch size", b >= 5,
			"batch mode loses %.1f %% of its cut from 1 to 50 ns epochs (paper: nearly flat)", b)
	}},
	// Fig 15: coordinated PRNGs cut traffic (10 % here). The paper's
	// saving equal to the induced share (30–38 %), at equal cut, is two
	// gaps.
	"fig15": {[]string{"-n", "256"}, func(t *testing.T, f *figure) {
		saving := value(t, f, "traffic saving %")
		claim(t, saving >= 5, "coordination saves %.1f %% of traffic (≥ 5 %%)", saving)
		gap(t, "coordination saves less than the induced share", saving < 30,
			"coordination saves %.1f %% of traffic (paper: 30–38 %%, the induced share)", saving)
		plain, coord := value(t, f, "uncoordinated energy"), value(t, f, "coordinated energy")
		gap(t, "coordination moves the cut", plain != coord,
			"coordinated energy %.0f against uncoordinated %.0f (paper: coordination changes traffic only)", coord, plain)
	}},
	// Sec 6.4.1: a state explored costs BRIM far less model time than
	// it costs SA wall time (≈ 10⁴× here).
	"firstprinciples": {[]string{"-n", "128"}, func(t *testing.T, f *figure) {
		adv := value(t, f, "per-state speed advantage")
		claim(t, adv >= 100, "per-state-explored advantage %.3g ≥ 100×", adv)
	}},
	// Secs 6.3/6.5: batch mode raises LB throughput (2.31×) and the
	// traffic stack falls ≥ 10× (16.2×); mBRIM against dSBM's cut and
	// the HB and LB gains against the paper's are gaps.
	"summary": {[]string{"-n", "512"}, func(t *testing.T, f *figure) {
		lb := value(t, f, "mBRIM_LB batch gain")
		claim(t, lb > 1, "LB batch throughput gain %.2f× > 1", lb)
		traffic := value(t, f, "traffic reduction")
		claim(t, traffic >= 10, "traffic falls %.1f× (≥ 10×)", traffic)
		speedup := value(t, f, "speedup over dSBM")
		claim(t, speedup >= 100, "mBRIM_3D finishes %.3g× sooner than dSBM's wall time (≥ 100×)", speedup)
		ratio := value(t, f, "mBRIM/dSBM cut ratio")
		gap(t, "mBRIM below dSBM's cut", ratio < 1, "mBRIM's cut is %.3f of dSBM's (paper: above it)", ratio)
		hb := value(t, f, "mBRIM_HB batch gain")
		gap(t, "HB batch gain", hb < 2.8, "HB batch throughput gain %.2f× (paper: 2.8×)", hb)
		gap(t, "LB batch gain", lb < 7, "LB batch throughput gain %.2f× (paper: 7×)", lb)
	}},
	// Sec 4.1.1: the chimera C16's 2048 qubits host exactly K65, the
	// crossbar chains K45, and embedded annealing trails native.
	"capacity": {nil, func(t *testing.T, f *figure) {
		claim(t, value(t, f, "chimera capacity of 2048 qubits") == 65, "chimera capacity of 2048 qubits is 65")
		claim(t, value(t, f, "crossbar capacity of 2048 nodes") == 45, "crossbar capacity of 2048 nodes is 45")
		for _, p := range series(t, f, "embedded/native cut ratio (SA)").Points {
			claim(t, p.Y < 1, "embedded/native cut ratio %.3f at n = %.0f is below 1", p.Y, p.X)
		}
	}},
	// Secs 4.2/5.2: the Fig 4 utilizations and Fig 7 layouts, exactly.
	"reconfig": {nil, func(t *testing.T, f *figure) {
		claim(t, value(t, f, "monolithic utilization") == 0.25, "monolithic 4×4 utilization is 1/4")
		claim(t, value(t, f, "reconfigurable utilization") == 1, "reconfigurable utilization is 1")
		for chips, want := range map[int][4]float64{1: {4, 0, 12, 8000}, 4: {2, 6, 8, 4000}, 16: {1, 15, 0, 2000}} {
			for i, what := range []string{"regular modules", "shadow modules", "pass-through modules", "spins per chip"} {
				got := value(t, f, fmt.Sprintf("%d-chip %s", chips, what))
				claim(t, got == want[i], "%d-chip layout: %s %.0f, want %.0f", chips, what, got, want[i])
			}
		}
	}},
	// Sec 5.3: demand peaks early in the schedule (here 32.5 of 200 ns).
	"demand": {[]string{"-n", "128"}, func(t *testing.T, f *figure) {
		at, d := value(t, f, "peak demand at ns"), value(t, f, "duration ns")
		claim(t, at < d/4, "demand peaks at %.1f ns, in the first quarter of %.0f ns", at, d)
	}},
	// Sec 5.4.1: sequential mode pays exactly chips× concurrent's
	// elapsed time, concurrent matches the monolithic machine's, and
	// all three cuts are within 5 %.
	"macrochip": {nil, func(t *testing.T, f *figure) {
		chips, conc, seq := value(t, f, "chips"), value(t, f, "concurrent elapsed ns"), value(t, f, "sequential elapsed ns")
		claim(t, seq == chips*conc, "sequential %.0f ns is exactly %.0f × concurrent %.0f ns", seq, chips, conc)
		claim(t, conc == 150, "concurrent elapsed %.0f ns equals the monolithic machine's 150 ns", conc)
		mono := value(t, f, "monolithic cut")
		for _, mode := range []string{"concurrent", "sequential"} {
			c := value(t, f, mode+" cut")
			claim(t, math.Abs(c-mono) <= 0.05*mono, "%s cut %.0f within 5 %% of monolithic %.0f", mode, c, mono)
		}
	}},
	// Secs 2.2/6.3: the calibrated chip lands on the paper's design
	// point (≈ 80 mm², < 10 W) and its time advantage over the 8-FPGA
	// dSBM is the 2200× headline within 5 %.
	"machinemetrics": {nil, func(t *testing.T, f *figure) {
		area, power := value(t, f, "paper chip area mm2"), value(t, f, "paper chip power W")
		claim(t, math.Abs(area-80) <= 4 && power < 10, "8192 spins at 45 nm: %.1f mm² (≈ 80), %.2f W (< 10)", area, power)
		adv := value(t, f, "8-FPGA dSBM (K16384) time advantage")
		claim(t, math.Abs(adv-2200) <= 110, "time advantage over the 8-FPGA dSBM %.0f× (paper 2200×)", adv)
	}},
}

// TestClaims runs every registered subcommand at its row's reduced
// flags and holds its figure to the paper's shapes. Every gap entry
// logs its size, must be named in EXPERIMENTS.md, and fails once the
// gap closes, so that it is promoted to a claim.
func TestClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("the claims run every figure for seconds; skipped with -short")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	experimentsDoc = strings.Join(strings.Fields(string(doc)), " ")
	for name := range commands {
		if _, ok := claims[name]; !ok {
			t.Errorf("subcommand %q has no claims row; add it to the table", name)
		}
	}
	names := make([]string, 0, len(claims))
	for name := range claims {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		row := claims[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			row.check(t, run(t, name, row.args...))
		})
	}
}

// experimentsDoc is EXPERIMENTS.md, which names every gap entry, with
// its line breaks folded into spaces.
var experimentsDoc string

// run runs one subcommand and returns its figure.
func run(t *testing.T, name string, args ...string) *figure {
	t.Helper()
	cmd := commands[name]
	if cmd == nil {
		t.Fatalf("no subcommand %q", name)
	}
	f, err := cmd.run(args)
	if err != nil {
		t.Fatalf("%s %v: %v", name, args, err)
	}
	return f
}

// claim asserts one shape the paper states and logs it.
func claim(t *testing.T, ok bool, format string, args ...any) {
	t.Helper()
	if !ok {
		t.Errorf("claim fails: "+format, args...)
		return
	}
	t.Logf("claim: "+format, args...)
}

// gap records a paper claim the reproduction does not meet: it logs
// the gap's size while open, and fails when the gap has closed.
func gap(t *testing.T, name string, open bool, format string, args ...any) {
	t.Helper()
	if !strings.Contains(experimentsDoc, "gap: "+name) {
		t.Errorf("gap %q is not named (as \"gap: %s\") in EXPERIMENTS.md", name, name)
	}
	if !open {
		t.Errorf("gap %q has closed; promote it to a claim: "+format, append([]any{name}, args...)...)
		return
	}
	t.Logf("gap %q: "+format, append([]any{name}, args...)...)
}

func value(t *testing.T, f *figure, name string) float64 {
	t.Helper()
	v, ok := f.values[name]
	if !ok {
		t.Fatalf("the figure has no value %q", name)
	}
	return v
}

func series(t *testing.T, f *figure, name string) *metrics.Series {
	t.Helper()
	for _, s := range f.series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("the figure has no series %q", name)
	return nil
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
	heading := regexp.MustCompile(`(?m)^(?:#+|\*) .*`)
	name := regexp.MustCompile("\\(`([a-z0-9]+)`\\)")
	for _, line := range heading.FindAllString(string(doc), -1) {
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
