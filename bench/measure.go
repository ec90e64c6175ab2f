package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef fixes a metric's name, unit, direction and regression
// bound. Exact marks a seed-determined metric: for equal seeds it must
// repeat exactly, whatever its bound across seeds.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Exact  bool
}

// endToEnd is the user-visible metric set, in report order. The first
// six are the BENCHMARK.json end_to_end list: that file's metrics may
// never read 0 and each is wanted on every workload, but failed_frac is
// 0 on every correct run and model_ns_mean is 0 on the software engines,
// so those two are printed by every run and gated by `bench compare`
// without being listed there.
//
// solve_ms_p50, solves_per_s, cpu_ms_per_solve and setup_s are stated
// at the reference speed (calib.go); their raw readings are the raw.*
// metrics. The bounds are what the reference host can resolve
// (README.md, "Why the bounds are not 0.10"); cut_mean's is for
// comparisons across seeds, where each seed draws its own eight
// instances.
var endToEnd = []metricDef{
	{Name: "solve_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "solves_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_solve", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "cut_mean", Unit: "weight", Better: "higher", Bound: 0.15, Exact: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "failed_frac", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "model_ns_mean", Unit: "ns", Better: "lower", Exact: true},
}

// contractEndToEnd is how many of endToEnd BENCHMARK.json lists.
const contractEndToEnd = 6

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tailPercentile is the highest percentile with at least ten samples
// beyond it (0 when there are too few samples for any tail).
func tailPercentile(n int) float64 {
	if n < 20 {
		return 0
	}
	return 100 * (1 - 10/float64(n))
}

// passConfig parameterizes one untraced pass.
type passConfig struct {
	w       *workload
	seed    uint64
	seconds float64
	// boot starts a fresh system under test.
	boot func(w *workload) (*target, error)
	// corrupt, when set, damages each outcome body before verification:
	// the smoke test's proof that verification is live.
	corrupt func(r *solveResult)
}

// passResult is one workload's untraced measurement.
type passResult struct {
	Seed      uint64            `json:"seed"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Samples   int               `json:"samples"`
	WindowS   float64           `json:"window_s"`
	Digest    string            `json:"digest"`
	Metrics   map[string]metric `json:"metrics"`
	// Client holds the [H] per-layer metrics: read from the HTTP
	// surface during this pass, at no cost to it.
	Client map[string]metric `json:"client"`
	Errors []string          `json:"errors,omitempty"`
}

// setUp boots a target, generates the measured inputs and runs the
// warm-up solves.
func setUp(pc *passConfig) (*target, []solveInput, error) {
	w := pc.w
	t, err := pc.boot(w)
	if err != nil {
		return nil, nil, err
	}
	insts := makeInstances(w, pc.seed)
	inputs, err := makeInputs(w, insts, pc.seed, 0, scaled(w.Measured, pc.seconds), t.workers)
	if err == nil {
		var warm []solveInput
		warm, err = makeInputs(w, insts, pc.seed, warmupSeedBase, scaled(w.Warmup, pc.seconds), t.workers)
		if err == nil {
			rs := runLoop(t, w, warm)
			for _, r := range rs {
				if r.err != nil {
					err = fmt.Errorf("warm-up solve failed: %w", r.err)
					break
				}
			}
		}
	}
	if err != nil {
		t.stop()
		return nil, nil, err
	}
	return t, inputs, nil
}

// setupsPerRun is how many times a pass sets up; setup_s is the median
// and the last target is the one measured. One set-up is a second of
// mostly process start and two warm-up solves, too short to repeat
// well on its own.
const setupsPerRun = 3

// runPass measures one workload with tracing off.
func runPass(pc *passConfig) (*passResult, error) {
	w := pc.w
	var t *target
	var inputs []solveInput
	var setupRaw, setupNorm []float64
	for i := 0; i < setupsPerRun; i++ {
		if t != nil {
			t.stop()
		}
		sm := startSampler(nil)
		var err error
		t, inputs, err = setUp(pc)
		iv, _ := sm.stop() // no pids: nothing to fail
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		setupRaw = append(setupRaw, iv.seconds())
		setupNorm = append(setupNorm, iv.normSeconds())
	}
	defer t.stop()

	sm := startSampler(t.pids)
	results := runLoop(t, w, inputs)
	iv, err := sm.stop()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(t.pids)
	if err != nil {
		return nil, err
	}
	cpuRaw, cpuNorm := iv.cpuMS()

	pr := &passResult{Seed: pc.seed, Attempted: len(results), WindowS: iv.seconds()}
	var wall, wallNorm, post, detect, polls, queue, exec, share, cuts, models []float64
	for i := range results {
		r := &results[i]
		if pc.corrupt != nil {
			pc.corrupt(r)
		}
		verify(w, r)
		if w.cluster() && i < 3 {
			verifyClusterParity(w, r)
		}
		if r.err != nil || r.verr != nil {
			pr.Failed++
			if len(pr.Errors) < 5 {
				e := r.err
				if e == nil {
					e = r.verr
				}
				pr.Errors = append(pr.Errors, fmt.Sprintf("seed %d: %v", r.in.seed, e))
			}
			continue
		}
		wall = append(wall, r.wallMS)
		// A solve counts at the speed the host had halfway through it.
		mid := r.start.Add(time.Duration(r.wallMS / 2 * float64(time.Millisecond)))
		wallNorm = append(wallNorm, r.wallMS*iv.speedAt(mid))
		post = append(post, r.postMS)
		polls = append(polls, float64(r.polls))
		cuts = append(cuts, r.cut)
		models = append(models, r.modelNS)
		if !w.cluster() {
			// The cluster status carries no wall-clock ledger.
			detect = append(detect, r.detectMS)
			queue = append(queue, float64(r.status.QueueWaitNS)/1e6)
			exec = append(exec, float64(r.status.EndedWallNS-r.status.StartedWallNS)/1e6)
			if r.status.Outcome != nil {
				share = append(share, float64(r.status.Outcome.WallNS)/1e6/r.wallMS)
			}
		}
	}
	pr.Samples = len(wall)
	pr.Digest = digest(results)
	done := float64(len(wall))
	per := func(total, n float64) float64 {
		if n == 0 {
			return 0
		}
		return total / n
	}
	pr.Metrics = map[string]metric{
		"solve_ms_p50":     {median(wallNorm), "ms"},
		"solves_per_s":     {per(done, iv.normSeconds()), "1/s"},
		"cpu_ms_per_solve": {per(cpuNorm, done), "ms"},
		"peak_rss_mb":      {rss, "MB"},
		"cut_mean":         {mean(cuts), "weight"},
		"setup_s":          {median(setupNorm), "s"},
		"failed_frac":      {per(float64(pr.Failed), float64(pr.Attempted)), "ratio"},
		"model_ns_mean":    {mean(models), "ns"},
	}
	tail := tailPercentile(len(wall))
	pr.Client = map[string]metric{
		"client.post_ms_p50":     {median(post), "ms"},
		"client.detect_ms_p50":   {median(detect), "ms"},
		"client.polls_per_solve": {mean(polls), "count"},
		"client.solve_ms_tail":   {quantile(wall, tail/100), "ms"},
		"client.tail_percentile": {tail, "%"},
		"runs.queue_wait_ms_p50": {median(queue), "ms"},
		"runs.exec_ms_p50":       {median(exec), "ms"},
		"runs.engine_share":      {median(share), "ratio"},
		"host.speed":             {per(iv.normSeconds(), iv.seconds()), "ratio"},
		"host.steal_frac":        {iv.stealFrac, "ratio"},
		"raw.solve_ms_p50":       {median(wall), "ms"},
		"raw.solves_per_s":       {per(done, iv.seconds()), "1/s"},
		"raw.cpu_ms_per_solve":   {per(cpuRaw, done), "ms"},
		"raw.setup_s":            {median(setupRaw), "s"},
	}
	if tail == 0 {
		pr.Client["client.solve_ms_tail"] = metric{quantile(wall, 1), "ms"}
	}
	return pr, nil
}
