// Command bench is the end-to-end and per-layer benchmark for mbrimd.
//
//	go run ./bench --workload W --seed S --seconds N --trace 0|1   one workload (the BENCHMARK.json contract)
//	go run ./bench -seed S -out bench/out/run.json                 all five workloads, tracing off
//	go run ./bench -trace 1 -seed S                                all five, the in-process traced pass
//	go run ./bench compare A.json B.json                           apply the bounds per workload row
//	go run ./bench noise                                           two full sets of one build, checked against each other
//
// The untraced pass builds cmd/mbrimd, boots it as a child process,
// drives a workload over loopback HTTP in a closed loop, verifies
// every outcome and prints every end-to-end metric by name with its
// unit. The traced pass is separate: it unrolls a solve inside the
// bench process, layer by layer, and prints the per-layer metrics and
// a layer table that sums to the untraced median. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// runner carries one invocation's configuration.
type runner struct {
	root    string // repository root (holds go.mod and cmd/mbrimd)
	outDir  string // logs, span files, state directories and the built daemon: the directory of -out
	seed    uint64
	seconds float64
	smoke   bool
	set     []*workload
	bin     string // built mbrimd; empty in smoke mode
	boots   int
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module mbrim\n") {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "mbrimd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the mbrim module: no go.mod with cmd/mbrimd above the working directory")
		}
		dir = parent
	}
}

// boot starts a fresh system under test for w.
func (r *runner) boot(w *workload) (*target, error) {
	nWorkers := 0
	if w.cluster() {
		nWorkers = w.chips()
	}
	if r.smoke {
		return bootInProcess(r.outDir, nWorkers, true)
	}
	r.boots++
	return bootProcesses(r.bin, r.outDir, fmt.Sprintf("%s.%d", w.Name, r.boots), nWorkers)
}

// untraced measures w with tracing off. fraction scales the measured
// count (the traced run's reference pass is a quarter long).
func (r *runner) untraced(w *workload, fraction float64) (*passResult, error) {
	return runPass(&passConfig{w: w, seed: r.seed, seconds: r.seconds * fraction, boot: r.boot})
}

// traced makes the traced pass for w. ref is the untraced pass whose
// median the layer table explains and whose [H] metrics it reports.
// The traced pass times layers in raw host time, so the median it
// explains is the raw one.
func (r *runner) traced(w *workload, ref *passResult) (*traceResult, error) {
	tr, err := runTrace(&traceConfig{w: w, seed: r.seed, seconds: r.seconds, outDir: r.outDir,
		untracedP50: ref.Client["raw.solve_ms_p50"].Value})
	if err != nil {
		return nil, err
	}
	for name, m := range ref.Client {
		tr.Layers[name] = m
	}
	tr.Layers["model_ns_mean"] = ref.Metrics["model_ns_mean"]
	return tr, nil
}

// contractLine is the last line of standard output in single-workload
// mode.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			return compareMain(os.Args[2:])
		case "noise":
			return noiseMain(os.Args[2:])
		}
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "run one workload and end with the one-line JSON result (default: all five)")
	seed := fs.Uint64("seed", 1, "benchmark seed: derives every instance and solver seed")
	seconds := fs.Float64("seconds", refSeconds, "measurement window; workload sizes scale with it")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	out := fs.String("out", "", "write the set of runs here as JSON; logs, span files and state go beside it (default bench/out/run.json)")
	smoke := fs.Bool("smoke", false, "K32-class problems, three solves per workload, in-process servers")
	fs.Parse(os.Args[1:])
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	r, cleanup, err := newRunner(*out, *seed, *seconds, *smoke)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer cleanup()
	if *out == "" {
		*out = filepath.Join(r.outDir, "run.json")
	}

	set := r.set
	if *name != "" {
		w := findWorkload(r.set, *name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		set = []*workload{w}
	}
	sf, err := r.runSet(set, *trace == 0, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := writeJSONFile(*out, sf); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *name == "" {
		return 0
	}

	rep := &sf.Workloads[0]
	line := contractLine{Attempted: rep.Pass.Attempted, Failed: rep.Pass.Failed, Metrics: map[string]metric{}}
	if *trace == 0 {
		for _, d := range endToEnd[:contractEndToEnd] {
			line.Metrics[d.Name] = rep.Pass.Metrics[d.Name]
		}
	} else {
		line.Failed += len(rep.Trace.Errors)
		for _, d := range perLayer {
			line.Metrics[d.Name] = rep.Trace.Layers[d.Name]
		}
	}
	line.Correct = line.Failed == 0
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// newRunner resolves the directories (everything the run leaves behind
// goes beside out, by default in bench/out), installs the exit paths
// that stop children and remove state, and builds the daemon.
func newRunner(out string, seed uint64, seconds float64, smoke bool) (*runner, func(), error) {
	root, err := findRoot()
	if err != nil {
		return nil, nil, err
	}
	outDir := filepath.Join(root, "bench", "out")
	if out != "" {
		// Absolute: the daemon is built from root, not from here.
		if outDir, err = filepath.Abs(filepath.Dir(out)); err != nil {
			return nil, nil, err
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	r := &runner{root: root, outDir: outDir, seed: seed, seconds: seconds, smoke: smoke, set: workloads}
	cleanup := func() {
		killAll()
		for _, pat := range []string{"state-*", "trace-state-*"} {
			dirs, _ := filepath.Glob(filepath.Join(outDir, pat))
			for _, d := range dirs {
				os.RemoveAll(d)
			}
		}
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()
	if smoke {
		r.set = smokeWorkloads()
		return r, cleanup, nil
	}
	if r.bin, err = buildDaemon(root, outDir); err != nil {
		return nil, nil, err
	}
	return r, cleanup, nil
}

// runSet measures every workload of set and prints each report as it
// completes. untraced and traced select the passes; with both, the
// traced pass reuses the full untraced pass as its reference.
func (r *runner) runSet(set []*workload, untraced, traced bool) (*setFile, error) {
	sf := &setFile{Schema: schemaName,
		Provenance: collectProvenance(r.root, r.outDir, r.seed, r.seconds, r.smoke)}
	if sf.Provenance.Noisy {
		fmt.Printf("warning: load average %s exceeds nproc %d before the first measurement; this set is marked noisy\n",
			sf.Provenance.LoadavgStart, sf.Provenance.NProc)
	}
	for _, w := range set {
		// A traced-only run still needs an untraced median to explain:
		// it makes a quarter-length reference pass.
		rep := &workloadReport{Name: w.Name, Reference: !untraced}
		fraction := 1.0
		if rep.Reference {
			fraction = 0.25
		}
		var err error
		rep.Pass, err = r.untraced(w, fraction)
		if err == nil && traced {
			rep.Trace, err = r.traced(w, rep.Pass)
		}
		if err != nil {
			return nil, err
		}
		printReport(os.Stdout, rep)
		sf.Workloads = append(sf.Workloads, *rep)
	}
	sf.Provenance.LoadavgEnd = loadavg()
	return sf, nil
}

// baselineSets are the two committed sets of one build whose
// disagreement is the run-to-run spread `bench compare` judges rows by.
var baselineSets = [2]string{"bench/baseline/set1.json", "bench/baseline/set2.json"}

// compareMain implements `bench compare A.json B.json`.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := readSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := readSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	// Without readable baseline sets the spread is unknown and no row
	// can be called unresolved.
	var n1, n2 *setFile
	if root, err := findRoot(); err == nil {
		if n1, err = readSet(filepath.Join(root, baselineSets[0])); err == nil {
			n2, err = readSet(filepath.Join(root, baselineSets[1]))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: no run-to-run spread: %v\n", err)
			n1, n2 = nil, nil
		}
	}
	if a.Provenance.Seed != b.Provenance.Seed {
		fmt.Printf("warning: seeds differ (%d, %d): seed-determined metrics and digests will not match\n",
			a.Provenance.Seed, b.Provenance.Seed)
	}
	if regressed, _, _ := printComparison(os.Stdout, compareSets(a, b, n1, n2)); regressed > 0 {
		return 1
	}
	return 0
}

// waitQuiet returns once the 1-minute load average is at most nproc,
// or false after five minutes of waiting. A set taken on a busy host
// would put a spread into the baseline that hides regressions, and the
// second set starts under the load the first one made.
func waitQuiet() bool {
	for waited := time.Duration(0); hostBusy(loadavg()); waited += 5 * time.Second {
		if waited >= 5*time.Minute {
			return false
		}
		time.Sleep(5 * time.Second)
	}
	return true
}

// noiseMain implements `bench noise`: two full sets (untraced and
// traced passes) of the same build at seed 1 and the reference window,
// checked against each other. Every bounded metric must agree within
// its bound and every seed-determined one exactly; the sets it writes
// to bench/out/ are what bench/baseline/ holds.
func noiseMain(args []string) int {
	if len(args) != 0 {
		fmt.Fprintln(os.Stderr, "usage: bench noise")
		return 2
	}
	r, cleanup, err := newRunner("", 1, refSeconds, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench noise:", err)
		return 1
	}
	defer cleanup()
	var sets [2]*setFile
	for i := range sets {
		if !waitQuiet() {
			fmt.Fprintf(os.Stderr, "bench noise: load average %s stayed above nproc: no set is taken on a busy host\n", loadavg())
			return 1
		}
		fmt.Printf("=== set %d ===\n", i+1)
		if sets[i], err = r.runSet(r.set, true, true); err == nil {
			err = writeJSONFile(filepath.Join(r.outDir, fmt.Sprintf("set%d.json", i+1)), sets[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench noise:", err)
			return 1
		}
	}
	rows := compareSets(sets[0], sets[1], nil, nil)
	regressed, unresolved, changed := printComparison(os.Stdout, rows)
	bad := regressed + unresolved + changed
	for _, c := range rows {
		if c.Verdict == vImproved { // the sets disagree by more than the bound, in the other direction
			bad++
		}
	}
	for _, sf := range sets {
		for _, w := range sf.Workloads {
			bad += w.Pass.Failed
		}
	}
	if bad > 0 {
		fmt.Println("noise: the two sets of one build disagree beyond the bounds")
		return 1
	}
	fmt.Println("noise: the two sets agree within the bounds")
	return 0
}
