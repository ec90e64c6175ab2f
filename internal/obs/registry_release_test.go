package obs

import (
	"strings"
	"testing"
)

func TestRegistryRelease(t *testing.T) {
	r := NewRegistry()
	r.CounterWith("diag.pair_disagreement", Labels{"run": "r-1", "from": "0", "to": "1"}).Inc()
	r.GaugeWith("diag.plateau", Labels{"run": "r-1"}).Set(1)
	r.GaugeWith("diag.plateau", Labels{"run": "r-2"}).Set(2)
	r.HistogramWith("diag.latency", Labels{"run": "r-1"}).Observe(3)
	r.Gauge("cluster.live_workers").Set(2)

	released := r.Release(func(name string, labels Labels) bool {
		return strings.HasPrefix(name, "diag.") && labels["run"] == "r-1"
	})
	if released != 3 {
		t.Fatalf("released %d series, want 3", released)
	}

	s := r.Snapshot()
	for key := range s.Counters {
		if strings.Contains(key, `run="r-1"`) {
			t.Fatalf("released counter %q still in snapshot", key)
		}
	}
	for key := range s.Histograms {
		if strings.Contains(key, `run="r-1"`) {
			t.Fatalf("released histogram %q still in snapshot", key)
		}
	}
	if _, ok := s.Gauges[`diag.plateau{run="r-2"}`]; !ok {
		t.Fatal("unmatched run r-2 gauge was released")
	}
	if _, ok := s.Gauges["cluster.live_workers"]; !ok {
		t.Fatal("unlabeled series was released")
	}
	if got := len(s.Counters) + len(s.Gauges) + len(s.Histograms); got != 2 {
		t.Fatalf("%d series left, want 2", got)
	}

	// A handle obtained before release keeps working (detached), and
	// re-creating the series starts a fresh cell.
	g := r.GaugeWith("diag.plateau", Labels{"run": "r-1"})
	if got := g.Value(); got != 0 {
		t.Fatalf("re-created series carried over value %v", got)
	}
}

func TestRegistryReleaseNil(t *testing.T) {
	var r *Registry
	if n := r.Release(func(string, Labels) bool { return true }); n != 0 {
		t.Fatalf("nil registry released %d", n)
	}
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("nil registry holds series: %+v", s)
	}
}
