package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mbrim/internal/multichip"
	"mbrim/internal/obs"
)

// hostedSlices lists the slice ids a worker currently hosts.
func hostedSlices(t *testing.T, worker string) []string {
	t.Helper()
	resp, err := http.Get(worker + "/worker/slices")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Slices []string `json:"slices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Slices
}

// TestSolveReleasesWorkerSlices: a coordinator deletes its slices from
// the workers on the way out, so a worker's DefaultMaxSlices bounds the
// slices of runs in flight, not of every run it ever served. Before the
// release path existed the 65th two-chip solve against two default
// workers failed with 503 → "no workers left".
func TestSolveReleasesWorkerSlices(t *testing.T) {
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	urls := make([]string, len(regs))
	for i, reg := range regs {
		mux := http.NewServeMux()
		NewWorker(reg, 0).Routes(mux)
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	m := kmodel(8, 3)
	for run := 0; run < 70; run++ {
		co, err := New(m, fmt.Sprintf("r%d", run), fastConfig(urls, 2, 5, 7))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		if run%7 == 3 {
			// Interrupted runs release too — after their checkpoint.
			co.Progress = func(epoch int, _ float64) { cancel() }
		}
		_, env, err := co.Solve(ctx)
		cancel()
		if run%7 == 3 {
			if err != context.Canceled || len(env) == 0 {
				t.Fatalf("run %d: err=%v, %d envelope bytes", run, err, len(env))
			}
		} else if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	for i, reg := range regs {
		if n := reg.Snapshot().Gauges["cluster.worker_slices"]; n != 0 {
			t.Errorf("worker %d still hosts %v slices: %v", i, n, hostedSlices(t, urls[i]))
		}
	}
}

// fakeWorker answers the worker protocol without hosting anything; its
// step reports come from report.
func fakeWorker(t *testing.T, report func(epoch int) *multichip.EpochReport) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("PUT /worker/slices/{id}", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{})
	})
	mux.HandleFunc("DELETE /worker/slices/{id}", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /worker/slices/{id}/step", func(w http.ResponseWriter, r *http.Request) {
		var req StepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, &StepResponse{Report: report(req.Epoch)})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestMalformedEpochReportFailsRun: a step response the slice could not
// have produced fails the run with an error. The first case used to
// panic the Solve goroutine inside interconnect.DeltaSyncBytes
// ("changes=20 local=8"); the others were forwarded to the other
// slices unchecked.
func TestMalformedEpochReportFailsRun(t *testing.T) {
	const owned = 8 // K16 over two chips; both fakes answer as if slice 0
	ones := func(n int) []int8 {
		s := make([]int8, n)
		for i := range s {
			s[i] = 1
		}
		return s
	}
	for name, updates := range map[string]func() ([]multichip.PendingUpdate, []int8){
		"more updates than owned spins": func() ([]multichip.PendingUpdate, []int8) {
			ups := make([]multichip.PendingUpdate, 20)
			for i := range ups {
				ups[i] = multichip.PendingUpdate{Li: i % owned, G: i % owned, V: 1}
			}
			return ups, ones(owned)
		},
		"global index outside the slice": func() ([]multichip.PendingUpdate, []int8) {
			return []multichip.PendingUpdate{{Li: 1, G: 12, V: 1}}, ones(owned)
		},
		"updates out of order": func() ([]multichip.PendingUpdate, []int8) {
			return []multichip.PendingUpdate{{Li: 3, G: 3, V: 1}, {Li: 2, G: 2, V: -1}}, ones(owned)
		},
		"update value not a spin": func() ([]multichip.PendingUpdate, []int8) {
			return []multichip.PendingUpdate{{Li: 0, G: 0, V: 0}}, ones(owned)
		},
		"readout not spins": func() ([]multichip.PendingUpdate, []int8) {
			return nil, make([]int8, owned)
		},
	} {
		t.Run(name, func(t *testing.T) {
			worker := fakeWorker(t, func(epoch int) *multichip.EpochReport {
				ups, spins := updates()
				return &multichip.EpochReport{Epoch: epoch, EpochNS: 3.3, ModelNS: 3.3 * float64(epoch),
					Updates: ups, Spins: spins}
			})
			co, err := New(kmodel(2*owned, 3), "t-malformed", fastConfig([]string{worker, worker}, 2, 5, 10))
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := co.Solve(context.Background())
			if err == nil || !strings.Contains(err.Error(), "malformed epoch report") {
				t.Fatalf("Solve = %+v, %v; want a malformed-report error", res, err)
			}
		})
	}
}

// TestNewValidatesThroughMultichip: what the engine rejects, New
// rejects, synchronously — before any worker sees the configuration.
func TestNewValidatesThroughMultichip(t *testing.T) {
	m := kmodel(8, 3)
	for name, mutate := range map[string]func(*Config){
		"negative epoch":         func(c *Config) { c.EpochNS = -1 },
		"NaN epoch":              func(c *Config) { c.EpochNS = math.NaN() },
		"negative flip interval": func(c *Config) { c.FlipIntervalNS = -0.5 },
		"NaN flip interval":      func(c *Config) { c.FlipIntervalNS = math.NaN() },
		"negative channels":      func(c *Config) { c.Channels = -1 },
		"negative chips":         func(c *Config) { c.Chips = -2 },
		"more chips than spins":  func(c *Config) { c.Chips = 9 },
		"unknown backend":        func(c *Config) { c.Backend = "blocked" },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := fastConfig([]string{"http://127.0.0.1:1"}, 2, 5, 10)
			mutate(&cfg)
			if co, err := New(m, "t-invalid", cfg); err == nil {
				t.Fatalf("New accepted the configuration: %+v", co.cfg)
			}
		})
	}
}

// TestFinishedRunDropsSolveState: once Solve has returned, a run kept
// in the manager's table holds its result, envelope and federation —
// not the dense model, the spin mirror, the rollback point's slice
// states or the transport (≈0.5 MB per finished K256 run otherwise).
func TestFinishedRunDropsSolveState(t *testing.T) {
	workers := startWorkers(t, 2)
	mgr := NewManager(nil, nil, 0)
	mux := http.NewServeMux()
	mgr.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	body, _ := json.Marshal(&SubmitRequest{Workers: workers, K: 24, Seed: 3, DurationNS: 30,
		CheckpointEvery: 2, Federate: true})
	resp, err := http.Post(srv.URL+"/cluster/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cr, ok := mgr.lookup("cr-1")
	if !ok {
		t.Fatalf("submit: status %d, no cr-1", resp.StatusCode)
	}
	select {
	case <-cr.done:
	case <-time.After(30 * time.Second):
		t.Fatal("run did not finish")
	}
	if cr.err != nil || cr.result == nil {
		t.Fatalf("run: %+v, %v", cr.result, cr.err)
	}
	co := cr.co
	if co.model != nil || co.spins != nil || co.lastCkpt != nil || co.pendingSync != nil || co.tr != nil {
		t.Errorf("finished coordinator still holds solve state: model=%v spins=%d lastCkpt=%v pendingSync=%d transport=%v",
			co.model != nil, len(co.spins), co.lastCkpt != nil, len(co.pendingSync), co.tr != nil)
	}
	// What is read after the run still answers.
	if snap, federated := co.FleetDiag(); !federated || snap.Epochs == 0 || len(co.FederatedEvents()) == 0 {
		t.Errorf("federation lost with the solve state: %+v", snap)
	}
}
