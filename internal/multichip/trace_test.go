package multichip

import (
	"strings"
	"testing"

	"mbrim/internal/fault"
	"mbrim/internal/obs"
)

// TestMetricsMatchResult checks the registry counters against the run's
// reported totals — the acceptance invariant of the -metrics flag —
// and that the per-chip multichip.chip_flips series sum to the
// unlabeled total, also when a lost chip's machines retire in a
// repartition.
func TestMetricsMatchResult(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"clean", Config{Chips: 4, Seed: 2, EpochNS: 5}},
		{"repartition", Config{Chips: 2, Seed: 2, EpochNS: 5, Faults: fault.Config{
			Seed: 8, ChipLossEpoch: 2, ChipLossChip: 1, Recovery: fault.Recovery{Repartition: true}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			tc.cfg.Metrics = reg
			res := MustSystem(kgraph(64, 1), tc.cfg).RunConcurrent(30)
			if tc.cfg.Faults.Enabled() && res.FaultStats.Repartitions != 1 {
				t.Fatalf("repartitions = %d, want 1", res.FaultStats.Repartitions)
			}
			snap := reg.Snapshot()
			if snap.Counters["multichip.flips"] != res.Flips {
				t.Errorf("flips counter %d != result %d", snap.Counters["multichip.flips"], res.Flips)
			}
			var labeled int64
			for key, v := range snap.Counters {
				if strings.HasPrefix(key, "multichip.chip_flips{") {
					labeled += v
				}
			}
			if labeled != res.Flips {
				t.Errorf("chip_flips series sum to %d, result has %d flips", labeled, res.Flips)
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
		})
	}
}
