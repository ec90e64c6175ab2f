package mbrim_test

import (
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
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
// (metrics.Batch). None may return.
func TestNoDeadKnobs(t *testing.T) {
	dead := regexp.MustCompile(`SetTopology|SharedBus|AutoEpoch|SolvePopulation|TuneConfig|HasTarget|FlipIntervalNS|FeedbackGain|SpinThreshold|BurnInSweeps|PlateauWindowNS|PlateauEpsilon|TrialSamples|BetaMin|BetaMax|ExchangeEvery|OnSweep|SpanOffsetNS|staleView|zeroSchedule|SolveMultiChip|MultiChipConfig|SolvePT|DeviceVariation|NoiseAmp|KappaVar|InvTauVar|RunEuler|trialStepEuler|CompleteOnChimera|AddCoupling|WithBiases|BytesByKind|RepartitionNSPerSpin|\b(sa|sbm|tabu)\.BatchResult`)
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

// TestFuzzTargetsRunInCI: every func Fuzz* in the repo has a fuzz-smoke
// step in the CI workflow that runs it in its own package.
func TestFuzzTargetsRunInCI(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	steps := map[string]bool{}
	step := regexp.MustCompile(`go test \./(\S+)/ -run=\^\$ -fuzz=(Fuzz\w+)\b`)
	for _, m := range step.FindAllStringSubmatch(string(raw), -1) {
		steps[m[1]+"."+m[2]] = true
	}
	target := regexp.MustCompile(`^func (Fuzz\w+)\(`)
	targets := grepGo(t, target, func(path string) bool { return !isTest(path) }, ".")
	for _, hit := range targets {
		name, dir := target.FindStringSubmatch(hit.text)[1], path.Dir(hit.path)
		if !steps[dir+"."+name] {
			t.Errorf("%s: no fuzz-smoke step in ci.yml runs -fuzz=%s in ./%s/", hit, name, dir)
		}
	}
	if len(targets) == 0 {
		t.Fatal("found no fuzz target")
	}
}
