package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64, safe for concurrent
// use. A nil Counter is a no-op, so call sites can record
// unconditionally against an absent registry.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 cell with atomic Set/Add, safe for concurrent
// use. A nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
	// dropped counts NaN deltas rejected by Add; wired to the owning
	// registry's obs_dropped_nan counter (nil for a bare Gauge).
	dropped *Counter
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add atomically adds d to the gauge. A NaN delta would poison the
// cell irrecoverably, so it is dropped and counted in the registry's
// obs_dropped_nan counter instead.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	if math.IsNaN(d) {
		g.dropped.Inc()
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the fixed bucket count of a Histogram: power-of-two
// boundaries from 2^histMinExp up, wide enough for sub-ns stalls
// through multi-second wall times.
const (
	histBuckets = 64
	histMinExp  = -10
)

// Histogram accumulates a distribution of float64 observations into
// exponential (power-of-two) buckets, with atomic count/sum/min/max.
// Safe for concurrent use; a nil Histogram is a no-op.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // stored as math.Float64bits; init +Inf
	maxBits atomic.Uint64 // init -Inf
	buckets [histBuckets]atomic.Int64
	// dropped counts NaN observations rejected by Observe; wired to
	// the owning registry's obs_dropped_nan counter.
	dropped *Counter
}

func newHistogram(dropped *Counter) *Histogram {
	h := &Histogram{dropped: dropped}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketIndex maps v to its bucket: index i covers (2^(i-1+histMinExp),
// 2^(i+histMinExp)], with everything <= 2^histMinExp in bucket 0 and a
// final overflow bucket.
func bucketIndex(v float64) int {
	if v <= math.Exp2(histMinExp) {
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac × 2^exp, frac ∈ [0.5, 1)
	idx := exp - histMinExp
	if frac == 0.5 {
		// Exact powers of two belong to the bucket they bound: the
		// exported boundary is a "less or equal".
		idx--
	}
	if idx < 0 {
		idx = 0
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// Observe records one sample. A NaN sample would poison sum, min and
// max for the histogram's whole lifetime, so it is dropped and counted
// in the registry's obs_dropped_nan counter instead.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) {
		h.dropped.Inc()
		return
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Labels attaches dimensions to an instrument series. The
// (name, labels) pair identifies one series: the same name with
// different label values yields independent instruments that the
// Prometheus exposition groups into one metric family. Label names
// should be prometheus-compatible ([a-zA-Z_][a-zA-Z0-9_]*); other
// characters are sanitized at exposition time.
type Labels map[string]string

// labelPair is one stored key/value; series hold them sorted by key.
type labelPair struct {
	Key, Value string
}

// seriesMeta records how a map key decomposes, so the Prometheus
// encoder can group series into families without re-parsing keys.
type seriesMeta struct {
	name   string
	labels []labelPair
}

// seriesKey builds the canonical map key for (name, labels): the bare
// name when unlabeled (backward-compatible with pre-label registries),
// else name{k="v",...} with keys sorted.
func seriesKey(name string, labels Labels) (string, seriesMeta) {
	meta := seriesMeta{name: name}
	if len(labels) == 0 {
		return name, meta
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(labels[k])
		b.WriteByte('"')
		meta.labels = append(meta.labels, labelPair{Key: k, Value: labels[k]})
	}
	b.WriteByte('}')
	return b.String(), meta
}

// Registry is a named set of counters, gauges and histograms shared
// across engines. Get-or-create accessors and all instrument
// operations are goroutine-safe, so Parallel chip goroutines can
// record concurrently. A nil *Registry is a no-op: its accessors
// return nil instruments whose methods do nothing. A series, once
// made, lasts as long as the registry, so its labels name bounded
// things — an engine, a method, a worker — never a run: a run's own
// diagnostics are its diag.Reducer's Snapshot.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// series maps every instrument key to its (name, labels)
	// decomposition for the Prometheus encoder.
	series map[string]seriesMeta
	// help holds operator-registered # HELP text, keyed by raw
	// (unsanitized) metric name.
	help map[string]string
	// droppedNaN counts NaN samples rejected by Gauge.Add and
	// Histogram.Observe. It surfaces as obs_dropped_nan in snapshots
	// and expositions once nonzero.
	droppedNaN Counter
}

// DroppedNaNName is the counter name under which rejected NaN samples
// surface in snapshots and Prometheus expositions.
const DroppedNaNName = "obs_dropped_nan"

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		series:   map[string]seriesMeta{},
		help:     map[string]string{},
	}
}

// SetHelp registers # HELP text for the named metric family (the raw
// instrument name, before sanitization), shown in the Prometheus
// exposition. Families without registered help get a generated line.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter { return r.CounterWith(name, nil) }

// CounterWith returns the counter series for (name, labels), creating
// it on first use. Series sharing a name but differing in labels are
// independent instruments in one exposition family.
func (r *Registry) CounterWith(name string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	key, meta := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
		r.series[key] = meta
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeWith(name, nil) }

// GaugeWith returns the gauge series for (name, labels), creating it
// on first use.
func (r *Registry) GaugeWith(name string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	key, meta := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{dropped: &r.droppedNaN}
		r.gauges[key] = g
		r.series[key] = meta
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram { return r.HistogramWith(name, nil) }

// HistogramWith returns the histogram series for (name, labels),
// creating it on first use.
func (r *Registry) HistogramWith(name string, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	key, meta := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[key]
	if !ok {
		h = newHistogram(&r.droppedNaN)
		r.hists[key] = h
		r.series[key] = meta
	}
	return h
}

// HistogramBucket is one populated bucket of a histogram snapshot:
// Count observations at most LE (and above the previous bucket's LE).
type HistogramBucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is a point-in-time histogram summary.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     float64           `json:"sum"`
	Min     float64           `json:"min"`
	Max     float64           `json:"max"`
	Mean    float64           `json:"mean"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every instrument, suitable for
// JSON export (expvar-style) or programmatic assertion. Labeled series
// appear under their full key, e.g. `core.solves{engine="sa"}`.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the current value of every instrument. Instruments
// may keep moving while the snapshot is taken; each value is
// individually atomic.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	if n := r.droppedNaN.Value(); n > 0 {
		if _, taken := r.counters[DroppedNaNName]; !taken {
			s.Counters[DroppedNaNName] = n
		}
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// snapshot captures one histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
	if hs.Count > 0 {
		hs.Min = math.Float64frombits(h.minBits.Load())
		hs.Max = math.Float64frombits(h.maxBits.Load())
		hs.Mean = hs.Sum / float64(hs.Count)
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			hs.Buckets = append(hs.Buckets, HistogramBucket{
				LE:    math.Exp2(float64(i + histMinExp)),
				Count: n,
			})
		}
	}
	sort.Slice(hs.Buckets, func(a, b int) bool { return hs.Buckets[a].LE < hs.Buckets[b].LE })
	return hs
}

// WriteJSON writes an indented JSON snapshot to w — the expvar-style
// export used by the CLIs' -metrics dump.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// ServeHTTP serves the JSON snapshot, so a registry can be mounted
// next to a net/http/pprof listener. The snapshot is encoded into a
// buffer first so an encode failure can still produce a 500 instead of
// a truncated 200, and responses are marked uncacheable — a scrape
// must always see live values.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		http.Error(w, "obs: encoding metrics snapshot: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	_, _ = w.Write(buf.Bytes())
}
