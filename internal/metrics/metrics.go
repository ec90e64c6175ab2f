// Package metrics provides the measurement plumbing for the
// experimental harness: summary statistics over runs, (x, y) series
// for the paper's figures, operation counts for the first-principles
// analysis, time-to-solution, best-of-Runs batches and partition
// quality.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds order statistics of a sample.
type Summary struct {
	N         int
	Min, Max  float64
	Mean, Std float64
	Median    float64
	P10, P90  float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero
// Summary with N = 0.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs)}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	s.Mean = sum / float64(len(sorted))
	ss := 0.0
	for _, v := range sorted {
		d := v - s.Mean
		ss += d * d
	}
	if len(sorted) > 1 {
		s.Std = math.Sqrt(ss / float64(len(sorted)-1))
	}
	s.Median = Percentile(sorted, 50)
	s.P10 = Percentile(sorted, 10)
	s.P90 = Percentile(sorted, 90)
	return s
}

// Percentile returns the p-th percentile (0..100) of an already sorted
// sample using linear interpolation. It panics on an empty sample.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("metrics: Percentile of empty sample")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Point is one (x, y) sample of a figure series.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points — one line of a paper figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// Table renders series as aligned text columns for terminal output;
// every harness subcommand prints its figure this way.
func Table(header string, series ...*Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", header)
	for _, s := range series {
		fmt.Fprintf(&b, "## series: %s\n", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%16.6g %16.6g\n", p.X, p.Y)
		}
	}
	return b.String()
}

// OpCounter tallies abstract operations (multiply-accumulates, spin
// updates, instructions). The first-principles analysis of Sec 6.4.1
// ("~140,000 instructions per spin flip") is reproduced with these.
type OpCounter struct {
	counts map[string]int64
}

// NewOpCounter returns an empty counter.
func NewOpCounter() *OpCounter { return &OpCounter{counts: make(map[string]int64)} }

// Add increments the named counter by n.
func (o *OpCounter) Add(name string, n int64) { o.counts[name] += n }

// Names returns the counter names in sorted order.
func (o *OpCounter) Names() []string {
	names := make([]string, 0, len(o.counts))
	for k := range o.counts {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// String renders all counters, one per line, sorted by name.
func (o *OpCounter) String() string {
	var b strings.Builder
	for _, k := range o.Names() {
		fmt.Fprintf(&b, "%s: %d\n", k, o.counts[k])
	}
	return b.String()
}
