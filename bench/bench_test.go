package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []benchmarkMetric            `json:"end_to_end"`
	PerLayer  []benchmarkMetric            `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return &bf
}

// smokeRunner is the -smoke configuration: K32-class problems, three
// solves per workload, in-process servers, no build.
func smokeRunner(t *testing.T, seed uint64) *runner {
	t.Helper()
	return &runner{root: "..", outDir: t.TempDir(), seed: seed, seconds: refSeconds,
		smoke: true, set: smokeWorkloads()}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkMetric asserts one emitted metric against its BENCHMARK.json
// declaration: present, finite, and in the declared unit.
func checkMetric(t *testing.T, workload string, decl benchmarkMetric, got map[string]metric) {
	t.Helper()
	m, ok := got[decl.Name]
	switch {
	case !ok:
		t.Errorf("%s: metric %s not emitted", workload, decl.Name)
	case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
		t.Errorf("%s: metric %s = %v", workload, decl.Name, m.Value)
	case m.Unit != decl.Unit || m.Unit == "":
		t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", workload, decl.Name, m.Unit, decl.Unit)
	}
}

// TestSmokeEmitsEveryDeclaredMetric runs every workload's untraced and
// traced pass in the smoke configuration and holds the output against
// BENCHMARK.json.
func TestSmokeEmitsEveryDeclaredMetric(t *testing.T) {
	bf := readBenchmarkFile(t)

	// The declarations agree with the code's own lists, name for name,
	// so each name is emitted exactly once.
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the bench %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the bench %q (%q)",
				i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(bf.EndToEnd) != contractEndToEnd {
		t.Fatalf("BENCHMARK.json has %d end_to_end metrics, the bench %d", len(bf.EndToEnd), contractEndToEnd)
	}
	for i, d := range bf.EndToEnd {
		e := endToEnd[i]
		if d.Name != e.Name || d.Unit != e.Unit || d.Better != e.Better || d.Bound == nil || *d.Bound != e.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the bench %+v", i, d, e)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, the bench %d", len(bf.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range bf.PerLayer {
		l := perLayer[i]
		if d.Name != l.Name || d.Unit != l.Unit || d.Better != l.Better || d.Bound != nil {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the bench %+v", i, d, l)
		}
	}
	for _, d := range append(append([]benchmarkMetric(nil), bf.EndToEnd...), bf.PerLayer...) {
		if !nameRE.MatchString(d.Name) || len(d.Name) > 64 {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}

	r := smokeRunner(t, 1)
	for _, decl := range bf.Workloads {
		w := findWorkload(r.set, decl.Name)
		if w == nil || !nameRE.MatchString(decl.Name) {
			t.Fatalf("workload %q: not in the smoke set, or badly named", decl.Name)
		}
		pass, err := r.untraced(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pass.Failed != 0 || pass.Attempted != 3 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.Name, pass.Attempted, pass.Failed, pass.Errors)
		}
		for _, d := range bf.EndToEnd {
			checkMetric(t, w.Name, d, pass.Metrics)
		}
		tr, err := r.traced(w, pass)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Errors) > 0 {
			t.Errorf("%s: traced pass: %v", w.Name, tr.Errors)
		}
		for _, d := range bf.PerLayer {
			checkMetric(t, w.Name, d, tr.Layers)
		}
		if len(tr.Layers) != len(bf.PerLayer) {
			t.Errorf("%s: traced pass emitted %d metrics, BENCHMARK.json declares %d", w.Name, len(tr.Layers), len(bf.PerLayer))
		}
		// The layer table sums to the untraced median it explains, with
		// its unattributed row in the open.
		sum, hasUnattributed := 0.0, false
		for _, row := range tr.Table {
			sum += row.MS
			hasUnattributed = hasUnattributed || row.Row == "unattributed_ms"
		}
		total := pass.Client["raw.solve_ms_p50"].Value
		if !hasUnattributed || math.Abs(sum-total) > 1e-9*math.Max(1, total) {
			t.Errorf("%s: layer table sums to %v, raw.solve_ms_p50 is %v (unattributed row: %v)", w.Name, sum, total, hasUnattributed)
		}
		if _, err := os.Stat(r.outDir + "/trace." + w.Name + ".json"); err != nil {
			t.Errorf("%s: spans not written: %v", w.Name, err)
		}
	}
}

// TestDigestFollowsSeed: equal seeds give equal digests and seed-
// determined metrics, a different seed different ones.
func TestDigestFollowsSeed(t *testing.T) {
	pass := func(seed uint64) *passResult {
		r := smokeRunner(t, seed)
		p, err := r.untraced(findWorkload(r.set, "k256_mbrim4"), 1)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := pass(1), pass(1), pass(2)
	if a.Digest != b.Digest || a.Metrics["cut_mean"] != b.Metrics["cut_mean"] ||
		a.Metrics["model_ns_mean"] != b.Metrics["model_ns_mean"] {
		t.Errorf("seed 1 twice: digests %s / %s, cut_mean %v / %v", a.Digest, b.Digest,
			a.Metrics["cut_mean"].Value, b.Metrics["cut_mean"].Value)
	}
	if a.Digest == c.Digest {
		t.Errorf("seeds 1 and 2 share digest %s", a.Digest)
	}
}

// TestCorruptedOutcomeCounts proves outcome verification is live: one
// flipped spin in every returned outcome turns every solve into a
// counted failure.
func TestCorruptedOutcomeCounts(t *testing.T) {
	r := smokeRunner(t, 1)
	p, err := runPass(&passConfig{w: findWorkload(r.set, "k256_sa_burst"), seed: 1, seconds: refSeconds,
		boot: r.boot, corrupt: func(res *solveResult) {
			var ob map[string]any
			if err := json.Unmarshal(res.body, &ob); err != nil {
				t.Fatal(err)
			}
			spins := ob["spins"].([]any)
			spins[0] = -spins[0].(float64)
			res.body, _ = json.Marshal(ob)
		}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Failed != p.Attempted || p.Metrics["failed_frac"].Value != 1 {
		t.Errorf("corrupted outcomes: failed %d of %d, failed_frac %v", p.Failed, p.Attempted, p.Metrics["failed_frac"].Value)
	}
}

// TestCompareVerdicts pins the per-row rules: a bound applies per
// workload row, a row noisier than its bound is unresolved rather than
// unchanged, and seed-determined metrics tolerate nothing.
func TestCompareVerdicts(t *testing.T) {
	set := func(p50, cut float64) *setFile {
		return &setFile{Schema: schemaName, Workloads: []workloadReport{{Name: "w", Pass: &passResult{
			Digest: "d", Metrics: map[string]metric{
				"solve_ms_p50": {p50, "ms"}, "solves_per_s": {1, "1/s"}, "cpu_ms_per_solve": {1, "ms"},
				"peak_rss_mb": {1, "MB"}, "cut_mean": {cut, "weight"}, "setup_s": {1, "s"},
				"failed_frac": {0, "ratio"}, "model_ns_mean": {0, "ns"},
			}}}}}
	}
	verdict := func(rows []comparison, name string) string {
		for _, c := range rows {
			if c.Metric == name {
				return c.Verdict
			}
		}
		return "missing"
	}
	base := set(100, 50)
	for _, tc := range []struct {
		name       string
		b, n1, n2  *setFile
		metric     string
		wantResult string
	}{
		{"within bound", set(110, 50), nil, nil, "solve_ms_p50", vUnchanged},
		{"beyond bound", set(130, 50), nil, nil, "solve_ms_p50", vRegressed},
		{"faster", set(70, 50), nil, nil, "solve_ms_p50", vImproved},
		{"noisy row", set(110, 50), set(100, 50), set(140, 50), "solve_ms_p50", vUnresolved},
		{"noisy row, clear win", set(50, 50), set(100, 50), set(140, 50), "solve_ms_p50", vImproved},
		{"noisy row, clear loss", set(180, 50), set(100, 50), set(140, 50), "solve_ms_p50", vRegressed},
		{"cut lost", set(100, 49.9), nil, nil, "cut_mean", vRegressed},
		{"cut kept", set(100, 50), nil, nil, "cut_mean", vSame},
	} {
		if got := verdict(compareSets(base, tc.b, tc.n1, tc.n2), tc.metric); got != tc.wantResult {
			t.Errorf("%s: %s is %s, want %s", tc.name, tc.metric, got, tc.wantResult)
		}
	}
}

// TestHostIntervalScaling pins how times are brought to the reference
// speed: each slice counts for its length times its speed, a moment
// takes the speed of the slice it falls in, and even the shortest
// sampled interval has a speed.
func TestHostIntervalScaling(t *testing.T) {
	t0 := time.Unix(1000, 0)
	iv := hostInterval{slices: []hostSlice{
		{from: t0, to: t0.Add(time.Second), cpuMS: 800, speed: 1},
		{from: t0.Add(time.Second), to: t0.Add(3 * time.Second), cpuMS: 2000, speed: 0.5},
	}}
	if got := iv.seconds(); got != 3 {
		t.Errorf("seconds = %v, want 3", got)
	}
	if got := iv.normSeconds(); got != 2 {
		t.Errorf("normSeconds = %v, want 1·1 + 2·0.5 = 2", got)
	}
	if raw, norm := iv.cpuMS(); raw != 2800 || norm != 1800 {
		t.Errorf("cpuMS = %v raw, %v scaled; want 2800, 1800", raw, norm)
	}
	for _, tc := range []struct {
		at   time.Duration
		want float64
	}{{-time.Second, 1}, {500 * time.Millisecond, 1}, {time.Second, 0.5}, {2500 * time.Millisecond, 0.5}, {9 * time.Second, 0.5}} {
		if got := iv.speedAt(t0.Add(tc.at)); got != tc.want {
			t.Errorf("speedAt(+%v) = %v, want %v", tc.at, got, tc.want)
		}
	}

	short, _ := startSampler(nil).stop()
	if len(short.slices) == 0 || short.slices[0].speed <= 0 || math.IsInf(short.slices[0].speed, 0) {
		t.Errorf("an interval stopped at once has slices %+v, want one with a finite speed", short.slices)
	}
}
