package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// comparison is one (workload, metric) row of `bench compare`.
type comparison struct {
	Workload string
	Metric   string
	A, B     float64
	// Worse is the share of A by which B is worse (negative: better).
	Worse float64
	Bound float64
	// Spread is the run-to-run spread of this row between two sets of
	// one build, as a share of the first (0: unknown).
	Spread  float64
	Verdict string
	// count marks digest and exact-count rows, listed only when they
	// differ.
	count bool
}

// Verdicts. A row whose run-to-run spread exceeds its bound cannot be
// called unchanged: it is unresolved unless B beats A by more than
// that spread, or is worse than A by more than the spread plus the
// bound.
const (
	vUnchanged  = "unchanged"
	vImproved   = "improved"
	vRegressed  = "regressed"
	vUnresolved = "unresolved"
	vSame       = "same" // exact metric, equal
)

func readSet(path string) (*setFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != schemaName {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, schemaName)
	}
	return &s, nil
}

func (s *setFile) workload(name string) *workloadReport {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i]
		}
	}
	return nil
}

// worseShare is how much worse b is than a, as a share of a, for a
// metric whose better direction is given.
func worseShare(a, b float64, better string) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		if (b > a) == (better == "lower") {
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

func exactVerdict(worse float64) string {
	switch {
	case worse > 0:
		return vRegressed
	case worse < 0:
		return vImproved
	}
	return vSame
}

// compareSets applies each metric's bound per workload row. n1 and n2,
// when given, are two sets of one build: their disagreement is the
// run-to-run spread that decides between unchanged and unresolved.
func compareSets(a, b, n1, n2 *setFile) []comparison {
	var rows []comparison
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			continue
		}
		if wa.Pass != nil && wb.Pass != nil && !wa.Reference && !wb.Reference {
			for _, d := range endToEnd {
				c := comparison{Workload: wa.Name, Metric: d.Name, Bound: d.Bound,
					A: wa.Pass.Metrics[d.Name].Value, B: wb.Pass.Metrics[d.Name].Value}
				c.Worse = worseShare(c.A, c.B, d.Better)
				if n1 != nil && n2 != nil {
					if p1, p2 := n1.workload(wa.Name), n2.workload(wa.Name); p1 != nil && p2 != nil && p1.Pass != nil && p2.Pass != nil {
						// The same share `bench noise` holds to the bound, so
						// a pair noise accepts leaves no row unresolved.
						v1, v2 := p1.Pass.Metrics[d.Name].Value, p2.Pass.Metrics[d.Name].Value
						if v1 != 0 {
							c.Spread = math.Abs(v1-v2) / math.Abs(v1)
						}
					}
				}
				switch {
				case d.Exact:
					c.Verdict = exactVerdict(c.Worse)
				case c.Spread > d.Bound:
					// The noise could make an unchanged build read up to
					// Spread worse, so only more than that plus the bound
					// is a regression, and only a win clear of it a gain.
					switch {
					case c.Worse > c.Spread+d.Bound:
						c.Verdict = vRegressed
					case c.Worse < -c.Spread:
						c.Verdict = vImproved
					default:
						c.Verdict = vUnresolved
					}
				case c.Worse > d.Bound:
					c.Verdict = vRegressed
				case c.Worse < -d.Bound:
					c.Verdict = vImproved
				default:
					c.Verdict = vUnchanged
				}
				rows = append(rows, c)
			}
			c := comparison{Workload: wa.Name, Metric: "digest", Verdict: vSame, count: true}
			if wa.Pass.Digest != wb.Pass.Digest {
				// The simulated trajectory changed; whether that is a
				// regression is cut_mean's and model_ns_mean's call.
				c.Verdict = "changed"
			}
			rows = append(rows, c)
		}
		if wa.Trace != nil && wb.Trace != nil {
			for _, d := range perLayer {
				if !d.exact || d.fromClient {
					continue
				}
				c := comparison{Workload: wa.Name, Metric: d.Name, count: true,
					A: wa.Trace.Layers[d.Name].Value, B: wb.Trace.Layers[d.Name].Value}
				c.Worse = worseShare(c.A, c.B, d.Better)
				c.Verdict = vSame
				if c.A != c.B {
					c.Verdict = "changed"
				}
				rows = append(rows, c)
			}
		}
	}
	return rows
}

// printComparison writes the rows and returns how many regressed and
// how many could not be resolved. Equal exact counts are summarized,
// not listed.
func printComparison(out io.Writer, rows []comparison) (regressed, unresolved, changed int) {
	fmt.Fprintf(out, "%-16s %-22s %14s %14s %9s %7s %7s  %s\n",
		"workload", "metric", "A", "B", "worse", "bound", "spread", "verdict")
	same := 0
	for _, c := range rows {
		switch c.Verdict {
		case vRegressed:
			regressed++
		case vUnresolved:
			unresolved++
		case "changed":
			changed++
		case vSame:
			if c.count {
				same++
				continue
			}
		}
		fmt.Fprintf(out, "%-16s %-22s %14.6g %14.6g %+8.2f%% %6.0f%% %6.1f%%  %s\n",
			c.Workload, c.Metric, c.A, c.B, 100*c.Worse, 100*c.Bound, 100*c.Spread, c.Verdict)
	}
	fmt.Fprintf(out, "%d regressed, %d unresolved, %d changed, %d exact counts and digests equal\n",
		regressed, unresolved, changed, same)
	return
}
