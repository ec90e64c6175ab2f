package obs

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The exposition grammar, as a stock Prometheus scraper parses it.
var (
	promName    = `[a-zA-Z_:][a-zA-Z0-9_:]*`
	promLabel   = `[a-zA-Z_][a-zA-Z0-9_]*="(?:\\.|[^"\\\n])*"`
	helpRe      = regexp.MustCompile(`^# HELP (` + promName + `) (.*)$`)
	typeRe      = regexp.MustCompile(`^# TYPE (` + promName + `) (counter|gauge|histogram)$`)
	sampleRe    = regexp.MustCompile(`^(` + promName + `)(\{` + promLabel + `(?:,` + promLabel + `)*\})? (\S+)$`)
	labelTermRe = regexp.MustCompile(promLabel)
)

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels string // brace text, "" when unlabeled
	value  float64
}

// parseProm validates text against the exposition grammar and returns
// the samples grouped by the family that declared them. Any line that
// fits neither a header nor a sample fails the test.
func parseProm(t *testing.T, text string) (types map[string]string, samples []promSample) {
	t.Helper()
	types = map[string]string{}
	helped := map[string]bool{}
	current := ""
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if m := helpRe.FindStringSubmatch(line); m != nil {
			if helped[m[1]] {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, m[1])
			}
			helped[m[1]] = true
			continue
		}
		if m := typeRe.FindStringSubmatch(line); m != nil {
			if _, dup := types[m[1]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, m[1])
			}
			if !helped[m[1]] {
				t.Fatalf("line %d: TYPE %s without preceding HELP", ln+1, m[1])
			}
			types[m[1]] = m[2]
			current = m[1]
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: not a valid exposition line: %q", ln+1, line)
		}
		name := m[1]
		// A sample must belong to the family most recently declared:
		// the bare name, or its _bucket/_sum/_count expansion.
		if current == "" {
			t.Fatalf("line %d: sample %s before any TYPE", ln+1, name)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if name != current && !(types[current] == "histogram" && base == current) {
			t.Fatalf("line %d: sample %s outside its family %s", ln+1, name, current)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %d: bad sample value %q: %v", ln+1, m[3], err)
		}
		samples = append(samples, promSample{name: name, labels: m[2], value: v})
	}
	return types, samples
}

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteProm(&b); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	return b.String()
}

func find(samples []promSample, name, labels string) (float64, bool) {
	for _, s := range samples {
		if s.name == name && s.labels == labels {
			return s.value, true
		}
	}
	return 0, false
}

func TestPromExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("multichip.flips").Add(42)
	r.Counter("core.solves").Add(5)
	r.CounterWith("core.solves", Labels{"engine": "sa"}).Add(3)
	r.CounterWith("core.solves", Labels{"engine": "mbrim"}).Add(2)
	r.Gauge("runs.active").Set(2.5)
	r.HistogramWith("core.solve_wall_ns", Labels{"engine": "sa"}).Observe(1500)
	r.SetHelp("core.solves", "Completed solves.")

	types, samples := parseProm(t, expose(t, r))

	if got := types["multichip_flips"]; got != "counter" {
		t.Fatalf("multichip_flips type = %q, want counter", got)
	}
	if got := types["runs_active"]; got != "gauge" {
		t.Fatalf("runs_active type = %q, want gauge", got)
	}
	if got := types["core_solve_wall_ns"]; got != "histogram" {
		t.Fatalf("core_solve_wall_ns type = %q, want histogram", got)
	}
	if v, ok := find(samples, "multichip_flips", ""); !ok || v != 42 {
		t.Fatalf("multichip_flips = %v, %v", v, ok)
	}
	// The unlabeled total and the engine-labeled breakdown share one
	// family.
	if v, ok := find(samples, "core_solves", ""); !ok || v != 5 {
		t.Fatalf("core_solves = %v, %v", v, ok)
	}
	if v, ok := find(samples, "core_solves", `{engine="sa"}`); !ok || v != 3 {
		t.Fatalf(`core_solves{engine="sa"} = %v, %v`, v, ok)
	}
	if v, ok := find(samples, "core_solves", `{engine="mbrim"}`); !ok || v != 2 {
		t.Fatalf(`core_solves{engine="mbrim"} = %v, %v`, v, ok)
	}
	if v, ok := find(samples, "core_solve_wall_ns_count", `{engine="sa"}`); !ok || v != 1 {
		t.Fatalf("histogram count = %v, %v", v, ok)
	}
	if v, ok := find(samples, "core_solve_wall_ns_sum", `{engine="sa"}`); !ok || v != 1500 {
		t.Fatalf("histogram sum = %v, %v", v, ok)
	}
	if v, ok := find(samples, "core_solve_wall_ns_bucket", `{engine="sa",le="+Inf"}`); !ok || v != 1 {
		t.Fatalf("+Inf bucket = %v, %v", v, ok)
	}
}

func TestPromHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("wall")
	for _, v := range []float64{0.5, 3, 3, 1000, 1e9} {
		h.Observe(v)
	}
	_, samples := parseProm(t, expose(t, r))
	var cum float64 = -1
	var last float64
	n := 0
	for _, s := range samples {
		if s.name != "wall_bucket" {
			continue
		}
		n++
		if s.value < cum {
			t.Fatalf("bucket %s=%v below previous %v: not cumulative", s.labels, s.value, cum)
		}
		cum = s.value
		last = s.value
		if !labelTermRe.MatchString(s.labels) {
			t.Fatalf("bucket without le label: %q", s.labels)
		}
	}
	if n < 2 {
		t.Fatalf("expected multiple buckets, got %d", n)
	}
	count, _ := find(samples, "wall_count", "")
	if last != count || count != 5 {
		t.Fatalf("+Inf bucket %v != count %v (want 5)", last, count)
	}
	sum, _ := find(samples, "wall_sum", "")
	if want := 0.5 + 3 + 3 + 1000 + 1e9; sum != want {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
}

func TestPromLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterWith("c", Labels{"path": "a\\b\"c\nd"}).Inc()
	text := expose(t, r)
	want := `c{path="a\\b\"c\nd"} 1`
	if !strings.Contains(text, want) {
		t.Fatalf("exposition missing escaped label line %q:\n%s", want, text)
	}
	parseProm(t, text) // must still satisfy the grammar
}

func TestPromNameSanitization(t *testing.T) {
	cases := []struct{ in, want string }{
		{"multichip.flips", "multichip_flips"},
		{"brim.chip-step/retries", "brim_chip_step_retries"},
		{"0weird", "_0weird"},
		{"", "_"},
		{"ok:colon", "ok:colon"},
	}
	for _, c := range cases {
		if got := sanitizeMetricName(c.in); got != c.want {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if got := sanitizeLabelName("le:gal.label"); got != "le_gal_label" {
		t.Errorf("sanitizeLabelName = %q", got)
	}
	// A dotted label name is sanitized at exposition time.
	r := NewRegistry()
	r.CounterWith("c", Labels{"chip.id": "0"}).Inc()
	if text := expose(t, r); !strings.Contains(text, `c{chip_id="0"} 1`) {
		t.Fatalf("label name not sanitized:\n%s", text)
	}
}

func TestPromKindCollisionSuffix(t *testing.T) {
	r := NewRegistry()
	r.Counter("x.y").Inc()
	r.Gauge("x_y").Set(7) // same sanitized name, different kind
	types, samples := parseProm(t, expose(t, r))
	counterName, gaugeName := "x_y", "x_y_gauge"
	if types[counterName] == "gauge" {
		counterName, gaugeName = "x_y_counter", "x_y"
	}
	if types[counterName] != "counter" || types[gaugeName] != "gauge" {
		t.Fatalf("collision not disambiguated: %v", types)
	}
	if v, ok := find(samples, gaugeName, ""); !ok || v != 7 {
		t.Fatalf("suffixed gauge = %v, %v", v, ok)
	}
}

func TestPromDroppedNaN(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g").Add(nan())
	r.Histogram("h").Observe(nan())
	r.Histogram("h").Observe(1)
	_, samples := parseProm(t, expose(t, r))
	if v, ok := find(samples, DroppedNaNName, ""); !ok || v != 2 {
		t.Fatalf("%s = %v, %v", DroppedNaNName, v, ok)
	}
	// The dropped samples never reached the instruments.
	if got := r.Gauge("g").Value(); got != 0 {
		t.Fatalf("gauge poisoned: %v", got)
	}
	if got := r.Histogram("h").Count(); got != 1 {
		t.Fatalf("histogram count = %d, want 1", got)
	}
	sn := r.Snapshot()
	if sn.Counters[DroppedNaNName] != 2 {
		t.Fatalf("snapshot %s = %d", DroppedNaNName, sn.Counters[DroppedNaNName])
	}

	// A user counter claiming the reserved name wins; the synthetic
	// series must not duplicate the family.
	r2 := NewRegistry()
	r2.Counter(DroppedNaNName).Add(9)
	r2.Gauge("g").Add(nan())
	types, samples2 := parseProm(t, expose(t, r2))
	if types[DroppedNaNName] != "counter" {
		t.Fatalf("types = %v", types)
	}
	n := 0
	for _, s := range samples2 {
		if s.name == DroppedNaNName {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d %s samples, want exactly 1", n, DroppedNaNName)
	}
}

func TestPromDeterministic(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 8; i++ {
		r.CounterWith("c", Labels{"chip": fmt.Sprint(i)}).Inc()
		r.GaugeWith("g", Labels{"chip": fmt.Sprint(i)}).Set(float64(i))
	}
	r.Histogram("h").Observe(3)
	if a, b := expose(t, r), expose(t, r); a != b {
		t.Fatalf("two expositions differ:\n%s\n---\n%s", a, b)
	}
}

func TestPromHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.solves").Inc()
	srv := httptest.NewServer(r.PromHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != promContentType {
		t.Fatalf("Content-Type = %q", got)
	}
	if got := resp.Header.Get("Cache-Control"); got != "no-store" {
		t.Fatalf("Cache-Control = %q", got)
	}
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "core_solves 1") {
		t.Fatalf("body missing sample:\n%s", b.String())
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}
