package multichip

import (
	"slices"
	"testing"

	"mbrim/internal/obs"
)

// runTraced runs cfg on a K64 and returns its event stream with WallNS
// — the only field outside the determinism guarantee — zeroed, so
// streams compare with ==.
func runTraced(t *testing.T, cfg Config, run func(*System) any) []obs.Event {
	t.Helper()
	ring := obs.NewRing(1 << 16)
	cfg.Tracer = ring
	run(MustSystem(kgraph(64, 1), cfg))
	evs := ring.Events()
	if len(evs) == 0 || int64(len(evs)) != ring.Total() {
		t.Fatalf("ring retained %d events of %d", len(evs), ring.Total())
	}
	for i := range evs {
		evs[i].WallNS = 0
	}
	return evs
}

// TestTraceDeterminism: the same seed and config must produce the exact
// same event sequence — kinds, order, and every payload field — whether
// the chips are simulated sequentially or on host goroutines, and on a
// re-run. Events are emitted at epoch barriers in chip order precisely
// so this holds.
func TestTraceDeterminism(t *testing.T) {
	base := Config{Chips: 4, Seed: 2, EpochNS: 5, Probes: true, RecordEpochStats: true,
		SampleEveryNS: 7}
	concurrent := func(s *System) any { return s.RunConcurrent(30) }
	seq := runTraced(t, base, concurrent)
	par := base
	par.Parallel = true
	if got := runTraced(t, par, concurrent); !slices.Equal(got, seq) {
		t.Fatalf("parallel emitted %d events unlike sequential's %d", len(got), len(seq))
	}
	if again := runTraced(t, base, concurrent); !slices.Equal(again, seq) {
		t.Fatalf("a re-run emitted %d events unlike the first run's %d", len(again), len(seq))
	}
}

func TestTraceDeterminismBatch(t *testing.T) {
	base := Config{Chips: 4, Seed: 4, EpochNS: 5, RecordEpochStats: true, SampleEveryNS: 7}
	batch := func(s *System) any { return s.RunBatch(4, 40) }
	seq := runTraced(t, base, batch)
	par := base
	par.Parallel = true
	if got := runTraced(t, par, batch); !slices.Equal(got, seq) {
		t.Fatalf("parallel batch emitted %d events unlike sequential's %d", len(got), len(seq))
	}
}

// TestMetricsMatchResult checks the registry counters against the run's
// reported totals — the acceptance invariant of the -metrics flag.
func TestMetricsMatchResult(t *testing.T) {
	reg := obs.NewRegistry()
	res := MustSystem(kgraph(64, 1), Config{Chips: 4, Seed: 2, EpochNS: 5,
		Metrics: reg}).RunConcurrent(30)
	snap := reg.Snapshot()
	if snap.Counters["multichip.flips"] != res.Flips {
		t.Errorf("flips counter %d != result %d", snap.Counters["multichip.flips"], res.Flips)
	}
	if snap.Counters["multichip.bit_changes"] != res.BitChanges {
		t.Errorf("bit_changes counter %d != result %d",
			snap.Counters["multichip.bit_changes"], res.BitChanges)
	}
	if snap.Counters["multichip.epochs"] != int64(res.Epochs) {
		t.Errorf("epochs counter %d != result %d", snap.Counters["multichip.epochs"], res.Epochs)
	}
	if snap.Gauges["multichip.traffic_bytes"] != res.TrafficBytes {
		t.Errorf("traffic gauge %v != result %v",
			snap.Gauges["multichip.traffic_bytes"], res.TrafficBytes)
	}
	if snap.Histograms["multichip.epoch_stall_ns"].Count != int64(res.Epochs) {
		t.Errorf("stall histogram has %d observations, want %d",
			snap.Histograms["multichip.epoch_stall_ns"].Count, res.Epochs)
	}
}
