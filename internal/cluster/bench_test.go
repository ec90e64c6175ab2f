package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mbrim/internal/ising"
	"mbrim/internal/multichip"
	"mbrim/internal/obs"
)

// The epoch-sync overhead A/B: the identical seeded
// concurrent-mode solve run in process (multichip.System, the ground
// truth every cluster test compares against) versus distributed across
// loopback worker nodes. The delta is the epoch-sync overhead of the
// distributed fabric — one JSON step RPC per slice per epoch plus the
// coordinated-checkpoint rounds — with the network itself at loopback
// cost. Both sides produce bit-identical results (pinned by
// TestClusterRelations), so the comparison is pure wall time.

func benchWorkers(b *testing.B, k int) []string {
	b.Helper()
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		mux := http.NewServeMux()
		NewWorker(nil, 0).Routes(mux)
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
		})
		srv := httptest.NewServer(mux)
		b.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

func benchClusterConfig(workers []string, chips int) Config {
	return Config{
		Workers:         workers,
		Chips:           chips,
		Seed:            7,
		DurationNS:      50,
		RPCTimeout:      5 * time.Second,
		HeartbeatEvery:  50 * time.Millisecond,
		HeartbeatMisses: 4,
	}
}

// benchMetricWorkers is benchWorkers with a live registry per worker
// and /metrics.json served, so a federated bench pays the real scrape
// cost instead of fast-failing on a missing endpoint.
func benchMetricWorkers(b *testing.B, k int) []string {
	b.Helper()
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		wreg := obs.NewRegistry()
		mux := http.NewServeMux()
		NewWorker(wreg, 0).Routes(mux)
		mux.Handle("GET /metrics.json", wreg)
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
		})
		srv := httptest.NewServer(mux)
		b.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// BenchmarkFederation is the fleet-observability A/B: the
// identical seeded distributed solve with fleet observability off
// (Config.Federate=false — every federation hook is a nil guard) versus
// on (trace context on every RPC, worker rings populated, events and
// metrics pulled back on the checkpoint cadence, fleet reducer fed).
// The off side must stay within noise of the pre-federation fabric;
// the on side quantifies the pull overhead.
func BenchmarkFederation(b *testing.B) {
	const n = 128
	m := kmodel(n, 7)
	for _, federate := range []bool{false, true} {
		name := "off"
		if federate {
			name = "on"
		}
		b.Run("federate="+name, func(b *testing.B) {
			workers := benchMetricWorkers(b, 2)
			for i := 0; i < b.N; i++ {
				cfg := benchClusterConfig(workers, 2)
				cfg.CheckpointEvery = 4
				cfg.Federate = federate
				co, err := New(m, fmt.Sprintf("bench-fed-%s-%d", name, i), cfg)
				if err != nil {
					b.Fatal(err)
				}
				r, _, err := co.Solve(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if r.Energy >= 0 {
					b.Fatal("solve went nowhere")
				}
			}
		})
	}
}

// BenchmarkEpochSync is that A/B at 2 and 4 chips, plus a two-worker
// solve with a checkpoint round at every barrier (ckpt=1), where the
// /sync snapshot codec is most of what a barrier adds.
func BenchmarkEpochSync(b *testing.B) {
	const n = 128
	m := kmodel(n, 7)
	for _, chips := range []int{2, 4} {
		cfg := benchClusterConfig(nil, chips)
		b.Run(fmt.Sprintf("inprocess/chips=%d", chips), func(b *testing.B) {
			mcfg := multichip.Config{Chips: cfg.Chips, Seed: cfg.Seed}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := multichip.MustSystem(m, mcfg)
				if r := sys.RunConcurrent(cfg.DurationNS); r.Energy >= 0 {
					b.Fatal("solve went nowhere")
				}
			}
		})
		b.Run(fmt.Sprintf("cluster/workers=%d", chips), func(b *testing.B) {
			benchClusterSolves(b, m, benchClusterConfig(benchWorkers(b, chips), chips))
		})
	}
	b.Run("cluster/workers=2/ckpt=1", func(b *testing.B) {
		cfg := benchClusterConfig(benchWorkers(b, 2), 2)
		cfg.CheckpointEvery = 1
		benchClusterSolves(b, m, cfg)
	})
}

// benchClusterSolves runs b.N distributed solves of m under cfg.
func benchClusterSolves(b *testing.B, m *ising.Model, cfg Config) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		co, err := New(m, fmt.Sprintf("bench-%d-%d-%d", cfg.Chips, cfg.CheckpointEvery, i), cfg)
		if err != nil {
			b.Fatal(err)
		}
		r, _, err := co.Solve(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if r.Energy >= 0 {
			b.Fatal("solve went nowhere")
		}
	}
}
