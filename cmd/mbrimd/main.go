// Command mbrimd is the long-running solve service — the operations
// plane a scraper and a dashboard point at. It accepts problems over
// HTTP, executes them through the core orchestration layer with live
// tracing attached, and exposes:
//
//	GET  /engines               registered engines + capabilities
//	POST /runs                  submit a problem (JSON)
//	GET  /runs                  list runs
//	GET  /runs/{id}             one run's live status
//	GET  /runs/{id}/events      Server-Sent Events tail of the trace
//	                            (ids + Last-Event-ID resume)
//	GET  /runs/{id}/diag        convergence / partition-quality report
//	GET  /runs/{id}/trace       Chrome trace download (ui.perfetto.dev)
//	POST /runs/{id}/cancel      stop at the next engine barrier
//	GET  /runs/{id}/checkpoint  download the resume envelope
//	GET  /runs/{id}/outcome     terminal outcome (energy, flips, spins)
//	GET  /metrics               Prometheus text exposition
//	GET  /metrics.json          JSON metrics snapshot
//	GET  /healthz, /readyz      liveness / readiness
//
// There is one run plane. A solve spread over worker nodes is engine
// "cluster" on POST /runs ("workers":[…] names the nodes) and is a run
// like any other: admission, deadlines, retention, the SSE tail, /diag
// (with a fleet section when "federate" is set), /trace, /outcome,
// periodic checkpoints and crash-resume all apply. Every /runs… route
// also answers under /cluster/runs…, the prefix that surface used to
// have: POST there defaults the engine to "cluster", GET
// /cluster/runs/{id} adds the old done and result fields.
//
// With -worker the node additionally hosts problem slices on behalf of
// remote coordinators (PUT/GET/POST under /worker/slices) — the worker
// half of the distributed fabric in internal/cluster.
//
// Example session:
//
//	mbrimd -addr localhost:8351 &
//	curl -s localhost:8351/engines
//	curl -s -X POST localhost:8351/runs \
//	  -d '{"engine":"mbrim","k":256,"chips":4,"durationNS":500}'
//	curl -s -X POST localhost:8351/runs \
//	  -d '{"engine":"portfolio","k":64,"portfolio":{"entrants":[
//	       {"kind":"sa"},{"kind":"tabu"},{"kind":"dsbm"}],
//	       "targetEnergy":-100}}'
//	curl -s -X POST localhost:8351/runs \
//	  -d '{"engine":"cluster","workers":["http://w1:8351","http://w2:8351"],
//	       "k":256,"durationNS":500,"federate":true}'
//	curl -s localhost:8351/runs/run-1
//	curl -s -N localhost:8351/runs/run-1/events
//	curl -s localhost:8351/runs/run-1/diag
//	curl -s localhost:8351/runs/run-1/trace > run-1.trace.json
//	curl -s localhost:8351/metrics | grep core_solve_wall_ns_bucket
//
// SIGINT/SIGTERM drain gracefully: readiness flips to 503, in-flight
// runs are cancelled (multichip and cluster runs capture checkpoints,
// retrievable until exit), and the listener shuts down. If -drain-timeout expires
// with runs still live, mbrimd exits with code 4 so supervisors can
// tell a dirty drain from a clean stop.
//
// With -state-dir the daemon survives crashes: every submission and
// terminal outcome is fsync'd to an append-only journal, durable runs
// checkpoint on the -checkpoint-every cadence, and a restart replays
// the journal — finished runs come back as status tombstones, and
// interrupted multichip and cluster runs resume bit-identically from
// their last checkpoint. /readyz serves 503 until the replay pass completes.
// -max-queued adds a bounded FIFO-with-priority admission queue beyond
// -max-active; when it is full, POST /runs sheds load with 429 and a
// Retry-After estimate.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"mbrim/internal/cluster"
	"mbrim/internal/journal"
	"mbrim/internal/obs"
	"mbrim/internal/runs"
)

// exitDirtyDrain is returned when the drain deadline fires with runs
// still in flight — distinct from 0 (clean) and 1 (startup/serve
// failure).
const exitDirtyDrain = 4

func main() {
	addr := flag.String("addr", "localhost:8351", "listen address (host:port; port 0 picks one)")
	maxActive := flag.Int("max-active", 0, "max concurrently executing runs (0 = unlimited)")
	maxSpins := flag.Int("max-spins", runs.DefaultMaxSpins, "largest accepted problem, in spins")
	ringSize := flag.Int("ring", 4096, "recent events retained per run for replay")
	withPprof := flag.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/")
	worker := flag.Bool("worker", false, "host problem slices for remote coordinators under /worker/slices")
	maxSlices := flag.Int("max-slices", cluster.DefaultMaxSlices, "slice capacity in -worker mode")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight runs on shutdown; expiry with live runs exits 4")
	stateDir := flag.String("state-dir", "", "durable state directory (run journal + checkpoints); empty disables durability")
	maxQueued := flag.Int("max-queued", 0, "admission queue depth beyond -max-active; 0 rejects immediately when saturated")
	checkpointEvery := flag.Duration("checkpoint-every", 2*time.Second, "checkpoint cadence for durable runs (takes effect with -state-dir)")
	maxRunMB := flag.Int("max-run-mb", 0, "per-run memory budget estimate, MiB (0 = unlimited)")
	retainRuns := flag.Int("retain-runs", 0, "terminal runs kept registered; older ones are evicted with their events and diagnostics (0 = keep all)")
	flag.Parse()

	reg := obs.NewRegistry()

	// Durability: replay whatever journal survives from the previous
	// process before opening it for appending, so the crash-recovery
	// pass sees only pre-restart records.
	var jw *journal.Writer
	var replayed *journal.Replayed
	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "mbrimd:", err)
			os.Exit(1)
		}
		jpath := filepath.Join(*stateDir, "run.journal")
		rep, err := journal.Replay(jpath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mbrimd: journal replay:", err)
			os.Exit(1)
		}
		replayed = rep
		if jw, err = journal.Open(jpath, reg); err != nil {
			fmt.Fprintln(os.Stderr, "mbrimd: journal open:", err)
			os.Exit(1)
		}
	}

	mgr := runs.NewManager(runs.Config{
		Registry:        reg,
		RingSize:        *ringSize,
		MaxActive:       *maxActive,
		MaxQueued:       *maxQueued,
		MaxSpins:        *maxSpins,
		MaxRunBytes:     int64(*maxRunMB) << 20,
		Journal:         jw,
		StateDir:        *stateDir,
		CheckpointEvery: *checkpointEvery,
		RetainRuns:      *retainRuns,
	})

	var draining, replaying atomic.Bool
	if jw != nil {
		// Hold submissions (503 on /readyz, ErrNotAccepting on POST
		// /runs) until the replay pass has rebuilt the run table.
		replaying.Store(true)
		mgr.SetAccepting(false)
	}
	mux := http.NewServeMux()
	runs.Mount(mux, mgr, reg, func() bool { return !draining.Load() && !replaying.Load() })
	if *worker {
		cluster.NewWorker(reg, *maxSlices).Routes(mux)
	}
	if *withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbrimd:", err)
		os.Exit(1)
	}
	srv := &http.Server{
		Handler: mux,
		// Slowloris guard: a client must finish its headers promptly.
		ReadHeaderTimeout: 5 * time.Second,
		// Bound how long a request body read may take. The SSE handler
		// clears its per-connection read deadline (it streams for as
		// long as the client listens), so this only fences regular
		// endpoints.
		ReadTimeout: 60 * time.Second,
		// Reap idle keep-alive connections from departed clients.
		IdleTimeout: 120 * time.Second,
	}
	// Printed (not logged) so scripts can scrape the bound address
	// when -addr used port 0.
	fmt.Printf("mbrimd: listening on http://%s\n", ln.Addr())

	// Catch SIGTERM before anything can answer /readyz: a client that
	// saw the daemon ready and signalled it must get a drain, never the
	// default action's bare kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	if jw != nil {
		if replayed.Torn {
			fmt.Fprintf(os.Stderr, "mbrimd: journal tail torn (%v); replaying the intact prefix\n", replayed.TailErr)
		}
		sum := mgr.Recover(replayed.Records)
		fmt.Fprintf(os.Stderr,
			"mbrimd: replayed %d journal record(s): %d tombstone(s), %d resumed, %d restarted from scratch, %d unrecoverable\n",
			len(replayed.Records), sum.Tombstones, sum.Resumed, sum.Restarted, sum.Unrecoverable)
		mgr.SetAccepting(true)
		replaying.Store(false)
	}

	select {
	case <-ctx.Done():
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "mbrimd:", err)
		os.Exit(1)
	}

	// Drain: stop advertising readiness, cancel in-flight runs (each
	// checkpointable run captures its checkpoint on the way out), wait
	// for them under the drain deadline, then close the listener.
	stop()
	draining.Store(true)
	if ids := mgr.CancelAll(); len(ids) > 0 {
		fmt.Fprintf(os.Stderr, "mbrimd: draining, cancelled %d run(s): %v\n", len(ids), ids)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	dirty := !mgr.Wait(drainCtx)
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "mbrimd: shutdown:", err)
	}
	if jw != nil {
		// Interrupt checkpoints for the cancelled runs are already
		// persisted by finish(); close the journal last so their
		// terminal records hit disk.
		if err := jw.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "mbrimd: journal close:", err)
		}
	}
	if dirty {
		fmt.Fprintln(os.Stderr, "mbrimd: drain timeout; exiting with runs in flight")
		os.Exit(exitDirtyDrain)
	}
}
