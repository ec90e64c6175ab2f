package mbrim_test

import (
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// thisFile holds the patterns below, so the scans skip it.
const thisFile = "repo_test.go"

// match is one matching line of a Go file.
type match struct {
	path string
	line int
	text string
}

func (m match) String() string { return fmt.Sprintf("%s:%d: %s", m.path, m.line, m.text) }

// grepGo returns every line of a .go file under the roots that matches
// re, skipping the files skip rejects.
func grepGo(t *testing.T, re *regexp.Regexp, skip func(path string) bool, roots ...string) []match {
	t.Helper()
	var hits []match
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || skip(filepath.ToSlash(path)) {
				return err
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for i, line := range strings.Split(string(raw), "\n") {
				if re.MatchString(line) {
					hits = append(hits, match{filepath.ToSlash(path), i + 1, strings.TrimSpace(line)})
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return hits
}

func isTest(path string) bool { return strings.HasSuffix(path, "_test.go") }

// TestNoLayoutOption: the coupling layout is decided once, in
// ising.Builder, and read back as a report. No option that selects it,
// and none of the dead reductions, may return. The three Backend fields
// left are Outcome.Backend, OutcomeSummary.Backend and
// OutcomeBody.Backend.
func TestNoLayoutOption(t *testing.T) {
	dead := regexp.MustCompile(`lattice\.ParseKind|DefaultBackend|BackendAuto|BackendDense|BackendCSR|ExtractFrom|SumOrdered|EnergyQuadratic`)
	for _, hit := range grepGo(t, dead, func(path string) bool { return path == thisFile }, ".") {
		t.Error(hit)
	}
	field := regexp.MustCompile(`\bBackend\s+(string|lattice\.Kind)\b`)
	reports := regexp.MustCompile(`core/core\.go|runs/(runs|http)\.go`)
	skip := func(path string) bool { return isTest(path) || reports.MatchString(path) }
	for _, hit := range grepGo(t, field, skip, "internal", "cmd", "mbrim.go") {
		t.Error(hit)
	}
}

// TestNoDeadKnobs: knobs and models nothing ran were deleted — the
// shared-bus and ring fabrics, the SA and epoch tuners, population
// annealing, the flip interval and the diag TTS target; then the brim
// circuit's operating point, the Fig 9 probe's burn-in and schedule,
// the pt ladder and swap cadence, SBM's step, bifurcation parameter and
// stale exchange, the diag plateau and TTS windows, SA's sweep callback
// and brim's span offset; then the multi-chip SBM wrapper, whose run is
// sbm.Solve's, and the facade's parallel-tempering wrapper; then brim's
// device variation and thermal noise with their per-node latch factors,
// its forward-Euler integrator, the chimera cross embedding, the
// Builder's accumulating coupling and the Model's re-biasing, which only
// extra experiments subcommands ran; then the fabric's by-kind traffic
// ledger, which fault.Stats already kept, the repartition stall knob
// (interconnect.ReprogramNSPerSpin) and the engines' own batch types
// (metrics.Batch); then the run's second event store with its drop
// counter and buffer knob, mbrimd's -drain alias, and the worker's
// slice status and want-state flag; then the run-labelled mirrors of a
// run's diagnostics — the registry's release hook, the eviction's
// released-series counter, the plateau's incremental window and the
// coordinator's re-export of worker metrics. None may return.
func TestNoDeadKnobs(t *testing.T) {
	dead := regexp.MustCompile(`SetTopology|SharedBus|AutoEpoch|SolvePopulation|TuneConfig|HasTarget|FlipIntervalNS|FeedbackGain|SpinThreshold|BurnInSweeps|PlateauWindowNS|PlateauEpsilon|TrialSamples|BetaMin|BetaMax|ExchangeEvery|OnSweep|SpanOffsetNS|staleView|zeroSchedule|SolveMultiChip|MultiChipConfig|SolvePT|DeviceVariation|NoiseAmp|KappaVar|InvTauVar|RunEuler|trialStepEuler|CompleteOnChimera|AddCoupling|WithBiases|BytesByKind|RepartitionNSPerSpin|NewBroadcast|BroadcastBuffer|EventsDropped|aliasFlag|SliceStatus|WantState|diag_series_released_total|scrapeWorkerMetrics|scrapedWorkerSeries|advanceWindow|\.Release\(func|\b(sa|sbm|tabu)\.BatchResult`)
	for _, hit := range grepGo(t, dead, isTest, ".") {
		t.Error(hit)
	}
}

// TestOneModel: a model is stored as its lattice, and built only by
// ising.Builder. The second model type, its solver door, the problem
// wrapper and the raw-matrix accessor may not return.
func TestOneModel(t *testing.T) {
	dead := regexp.MustCompile(`SparseModel|SolveProblem|ising\.Problem|\.Couplings\(\)`)
	for _, hit := range grepGo(t, dead, func(path string) bool { return path == thisFile }, ".") {
		t.Error(hit)
	}
}

// TestFuzzTargetsRunInCI: CI's fuzz step asks every package it lists
// for its targets and fuzzes each in turn, so a new target needs no CI
// edit — but a package holding one must be among those the loop lists.
func TestFuzzTargetsRunInCI(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	loop := regexp.MustCompile(`for pkg in \$\(go list ([^)]+)\); do\s+` +
		`for target in \$\(go test -list '\^Fuzz' "\$pkg" \| grep '\^Fuzz'\); do\s+` +
		`go test "\$pkg" -run='\^\$' -fuzz="\^\$target\\\$" -fuzztime=10s`)
	m := loop.FindStringSubmatch(string(raw))
	if m == nil {
		t.Fatal("ci.yml has no step fuzzing every target of the packages it lists")
	}
	patterns := strings.Fields(m[1])
	listed := func(dir string) bool {
		for _, p := range patterns {
			p = strings.TrimPrefix(p, "./")
			if p == dir || p == "..." {
				return true
			}
			if tree, ok := strings.CutSuffix(p, "/..."); ok && (dir == tree || strings.HasPrefix(dir, tree+"/")) {
				return true
			}
		}
		return false
	}
	target := regexp.MustCompile(`^func (Fuzz\w+)\(`)
	targets := grepGo(t, target, func(path string) bool { return !isTest(path) }, ".")
	for _, hit := range targets {
		if dir := path.Dir(hit.path); !listed(dir) {
			t.Errorf("%s: ./%s is outside the packages ci.yml's fuzz loop lists (%s)", hit, dir, m[1])
		}
	}
	if len(targets) == 0 {
		t.Fatal("found no fuzz target")
	}
}

// TestDocsCiteRealTests: every Test… or Fuzz… name the documents (the
// four below and every skill's SKILL.md) cite is a function of some
// _test.go file, a trailing * citing a prefix, so a test deleted or
// renamed cannot stay behind in a document.
func TestDocsCiteRealTests(t *testing.T) {
	docs := []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", "cmd/experiments/README.md"}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Name() == "SKILL.md" {
			docs = append(docs, path)
		}
		return err
	})
	if err != nil || len(docs) == 4 {
		t.Fatalf("no SKILL.md found (%v)", err)
	}
	fn := regexp.MustCompile(`^func ((?:Test|Fuzz)\w+)\(`)
	var defined []string
	for _, hit := range grepGo(t, fn, func(path string) bool { return !isTest(path) }, ".") {
		defined = append(defined, fn.FindStringSubmatch(hit.text)[1])
	}
	resolves := func(name string) bool {
		prefix, isPrefix := strings.CutSuffix(name, "*")
		return slices.ContainsFunc(defined, func(d string) bool {
			return d == name || isPrefix && strings.HasPrefix(d, prefix)
		})
	}
	cited := regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z0-9_]\w*\*?`)
	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, name := range cited.FindAllString(line, -1) {
				if !resolves(name) {
					t.Errorf("%s:%d cites %s, which no _test.go file defines", doc, i+1, name)
				}
			}
		}
	}
}

// TestDocsStayWithinTheirBounds: DESIGN.md states each contract and the
// test that pins it, README.md is a first-time user's path and a skill's
// SKILL.md says what to run, so each stays within a size a reader can
// hold, and every numbered section of DESIGN.md names a test.
func TestDocsStayWithinTheirBounds(t *testing.T) {
	read := func(name string) string {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	design := read("DESIGN.md")
	for _, doc := range []struct {
		name, text string
		maxBytes   int
	}{{"DESIGN.md", design, 45000}, {"README.md", read("README.md"), 15000}} {
		if len(doc.text) > doc.maxBytes {
			t.Errorf("%s is %d bytes, over its %d", doc.name, len(doc.text), doc.maxBytes)
		}
	}
	skills := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Name() == "SKILL.md" {
			skills++
			if lines := strings.Count(read(path), "\n"); lines > 150 {
				t.Errorf("%s is %d lines, over its 150", path, lines)
			}
		}
		return err
	})
	if err != nil || skills == 0 {
		t.Fatalf("no SKILL.md found (%v)", err)
	}
	numbered := regexp.MustCompile(`^## \d+\.`)
	cites := regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z0-9_]\w*`)
	sections := 0
	for _, sec := range strings.Split(design, "\n## ")[1:] {
		if !numbered.MatchString("## " + sec) {
			continue
		}
		sections++
		if !cites.MatchString(sec) {
			t.Errorf("DESIGN.md %q cites no test", strings.SplitN(sec, "\n", 2)[0])
		}
	}
	if sections == 0 {
		t.Error("DESIGN.md has no numbered section")
	}
}

// fusedAllowed names the files, or directories ending in "/", whose
// fused products arm64 may keep, each with why no trajectory, golden or
// cut reads them.
var fusedAllowed = map[string]string{
	"cmd/experiments/":           "figure reporting: sums of finished cuts and modeled times",
	"internal/metrics/":          "statistics of finished runs: spread, quantiles and the TTS interval",
	"internal/power/power.go":    "the modeled area and power figures",
	"internal/runs/admission.go": "the wall-time EWMA behind Retry-After",
	"internal/cluster/client.go": "retry jitter, a wall-clock delay",
	"internal/graph/graph.go":    "a slice capacity hint",
}

// TestNoFusedProducts: a Go form defines the same bits on every host
// only if no compiler fuses a product into the sum beside it. amd64's
// never does; arm64's does wherever the product is not in an explicit
// float64(…) conversion, across statements and through inlining. So
// arm64's assembly of every package but the benchmark harness and the
// examples may hold no fused multiply-add attributed to a Go file off
// fusedAllowed, wherever the line was inlined.
func TestNoFusedProducts(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the module for arm64")
	}
	// go test caches a result by the files the test itself touches, not
	// by what a child build reads: stat every source the build compiles,
	// so that an edit to any of them runs the scan again.
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				_, err = os.Stat(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	build := exec.Command("go", "build", "-gcflags=-S", "./internal/...", "./cmd/...")
	build.Env = append(os.Environ(), "GOARCH=arm64")
	out, err := build.CombinedOutput()
	if err != nil {
		t.Fatalf("GOARCH=arm64 go build -gcflags=-S: %v\n%s", err, out)
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fused := regexp.MustCompile(`\((\S+\.go):(\d+)\)\s+F(N?M(ADD|SUB)[DS])\s`)
	sites := map[string]int{}
	for _, m := range fused.FindAllStringSubmatch(string(out), -1) {
		file := filepath.ToSlash(m[1])
		if rel, err := filepath.Rel(root, m[1]); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		allowed := false
		for prefix := range fusedAllowed {
			allowed = allowed || strings.HasPrefix(file, prefix)
		}
		if !allowed {
			sites[file+":"+m[2]+" "+m[3]]++
		}
	}
	for site, n := range sites {
		t.Errorf("%s: %d fused product(s); wrap the product in float64(…) or put the file on fusedAllowed with its reason", site, n)
	}
	if !strings.Contains(string(out), "mbrim/internal/sched.Linear.At STEXT") {
		t.Fatal("the build printed no assembly for sched.Linear.At: the scan read nothing")
	}
}
