// Command mbrim solves a MaxCut/Ising problem from a Gset-format graph
// file (or a generated K-graph) with any engine in the library.
//
// Usage:
//
//	mbrim -solver mbrim -chips 4 -duration 500 graph.gset
//	mbrim -solver sa -sweeps 1000 -runs 10 -k 512
//	mbrim -solver mbrim -chips 3 -k 256 -span-trace run.trace.json -diag
//
// With -k N a seeded K-graph is generated instead of reading a file.
// The exit status is 0 on success; the solution, cut value, energy and
// the time ledger are printed to stdout.
//
// -cluster URL,URL,... is -solver cluster with its worker list: the
// registered "cluster" engine shards the model across mbrimd -worker
// nodes and coordinates them from this process, through the same solve
// call, interrupt path and printers as every other engine — so -resume,
// -checkpoint, -trace, -span-trace, -diag and -json mean what they mean
// for -solver mbrim, whose trajectory it reproduces bit for bit. The
// -chaos-* flags front the workers with fault-injecting proxies for
// robustness drills (cluster.go):
//
//	mbrimd -addr :8361 -worker &
//	mbrimd -addr :8362 -worker &
//	mbrim -cluster http://localhost:8361,http://localhost:8362 \
//	  -k 256 -chips 2 -duration 200 -chaos-kill-worker 1 -chaos-kill-epoch 9
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mbrim"
	_ "mbrim/internal/cluster" // registers the "cluster" engine
	"mbrim/internal/cluster/chaosproxy"
)

func main() {
	solver := flag.String("solver", "sa", "engine: "+fmt.Sprint(mbrim.Kinds()))
	k := flag.Int("k", 0, "generate a seeded K-graph of this size instead of reading a file")
	seed := flag.Uint64("seed", 1, "random seed")
	runs := flag.Int("runs", 1, "restarts / batch jobs")
	sweeps := flag.Int("sweeps", 200, "SA/tabu sweeps")
	steps := flag.Int("steps", 1000, "SBM steps")
	duration := flag.Float64("duration", 100, "machine anneal time, ns")
	chips := flag.Int("chips", 4, "multiprocessor chips")
	epoch := flag.Float64("epoch", 0, "multiprocessor epoch, ns (0 = default)")
	coordinated := flag.Bool("coordinated", false, "coordinate induced flips via synchronized PRNGs")
	bandwidth := flag.Float64("bandwidth", 0, "channel bandwidth, bytes/ns (0 = unlimited)")
	capacity := flag.Int("cap", 500, "machine capacity for d&c engines")
	printSpins := flag.Bool("spins", false, "print the solution spin vector")
	jsonOut := flag.Bool("json", false, "emit the outcome as JSON instead of text")
	traceFile := flag.String("trace", "", "write the run's event stream to this file as JSON Lines")
	spanTraceFile := flag.String("span-trace", "", "record hierarchical solve spans and write a Chrome trace (load in ui.perfetto.dev) to this file")
	diagOut := flag.Bool("diag", false, "print convergence and partition-quality diagnostics after the run")
	metricsOut := flag.Bool("metrics", false, "print a metrics-registry snapshot after the run")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	sample := flag.Float64("sample", 0, "record an energy sample every so many ns (machine engines)")
	epochStats := flag.Bool("epochstats", false, "record the multiprocessor's per-epoch activity ledger")
	probes := flag.Bool("probes", false, "record the multiprocessor's energy-surprise probe")
	parallel := flag.Bool("parallel", false, "run multiprocessor chips on host goroutines (bit-identical)")
	faultSeed := flag.Uint64("fault-seed", 0, "seed for the deterministic fault schedule")
	faultDrop := flag.Float64("fault-drop", 0, "per-message boundary-broadcast drop probability")
	faultCorrupt := flag.Float64("fault-corrupt", 0, "per-message corruption probability (one update inverted)")
	faultDelay := flag.Float64("fault-delay", 0, "per-message one-epoch delay probability")
	faultStall := flag.Float64("fault-stall", 0, "per-chip per-epoch transient stall probability")
	faultChipLoss := flag.Int("fault-chip-loss", 0, "kill one chip permanently at this 1-based epoch (0 = never)")
	faultChip := flag.Int("fault-chip", -1, "which chip dies at -fault-chip-loss (-1 = pick from seed)")
	recoverDetect := flag.Bool("recover", false, "enable CRC-style detection with bounded retransmit")
	recoverRetries := flag.Int("recover-retries", 0, "max retransmits per faulted message (0 = default 3)")
	recoverBackoff := flag.Float64("recover-backoff", 0, "stall per retransmit attempt, ns (0 = default 0.5)")
	recoverWatchdog := flag.Float64("recover-watchdog", 0, "shadow-divergence fraction forcing a full-bitmap resync (0 = off)")
	recoverRepartition := flag.Bool("recover-repartition", false, "repartition a dead chip's slice onto survivors")
	clusterWorkers := flag.String("cluster", "", "solve with the cluster engine across these mbrimd -worker URLs (comma-separated)")
	ckptEvery := flag.Int("ckpt-every", 0, "cluster coordinated-checkpoint cadence, epochs (0 = default 8)")
	federate := flag.Bool("federate", false, "cluster engine: pull the workers' spans into the run's stream (-span-trace then holds the fleet trace, -diag its fleet section)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "cluster chaos proxies: fate-schedule seed")
	chaosDrop := flag.Float64("chaos-drop", 0, "cluster chaos proxies: per-request connection-drop probability")
	chaosError := flag.Float64("chaos-error", 0, "cluster chaos proxies: per-request 503 probability")
	chaosDelayRate := flag.Float64("chaos-delay-rate", 0, "cluster chaos proxies: per-request delay probability")
	chaosDelay := flag.Duration("chaos-delay", 2*time.Millisecond, "cluster chaos proxies: injected delay")
	chaosKillWorker := flag.Int("chaos-kill-worker", -1, "blackhole this worker index at -chaos-kill-epoch (-1 = never)")
	chaosKillEpoch := flag.Int("chaos-kill-epoch", 0, "epoch at which -chaos-kill-worker goes dark")
	timeout := flag.Duration("timeout", 0, "cancel the solve after this wall-clock budget (0 = none)")
	ckptPath := flag.String("checkpoint", "", "on interruption, write resume state to this file (multichip engines)")
	resumePath := flag.String("resume", "", "resume a multichip solve from this checkpoint file")
	listEngines := flag.Bool("engines", false, "list the registered engines with their capabilities and exit")
	portfolioField := flag.String("portfolio", "", `portfolio engine: comma-separated entrant kinds, e.g. "sa,tabu,dsbm" (empty = structure-based auto-dispatch)`)
	targetEnergy := flag.String("target", "", "portfolio engine: first entrant to reach this energy wins and the rest are cancelled")
	raceBudget := flag.Float64("race-budget", 0, "portfolio engine: race wall-clock budget, ms (0 = none)")
	handoff := flag.String("handoff", "", "portfolio engine: hand the race's best state to this engine as a warm start")
	flag.Parse()

	if *listEngines {
		for _, inf := range mbrim.Engines() {
			caps := inf.Capabilities
			var tags []string
			for _, t := range []struct {
				on   bool
				name string
			}{{caps.Resume, "resume"}, {caps.WarmStart, "warm-start"}, {caps.Spans, "spans"},
				{caps.Traced, "traced"}, {caps.ModelTime, "model-time"}} {
				if t.on {
					tags = append(tags, t.name)
				}
			}
			fmt.Printf("%-10s %-28s %s\n", inf.Kind, strings.Join(tags, ","), caps.Description)
		}
		return
	}

	if *clusterWorkers != "" {
		*solver = string(mbrim.Cluster)
	}
	kind, err := mbrim.ParseKind(*solver)
	if err != nil {
		fatal(err)
	}
	var pspec mbrim.PortfolioSpec
	if kind == mbrim.Portfolio {
		if *portfolioField != "" {
			for _, name := range strings.Split(*portfolioField, ",") {
				pspec.Entrants = append(pspec.Entrants,
					mbrim.PortfolioEntrant{Kind: strings.TrimSpace(name)})
			}
		}
		if *targetEnergy != "" {
			t, perr := strconv.ParseFloat(*targetEnergy, 64)
			if perr != nil {
				fatal(fmt.Errorf("-target: %v", perr))
			}
			pspec.TargetEnergy = &t
		}
		pspec.BudgetMS = *raceBudget
		if *handoff != "" {
			pspec.HandOff = &mbrim.PortfolioEntrant{Kind: *handoff}
		}
	} else if *portfolioField != "" || *targetEnergy != "" || *raceBudget != 0 || *handoff != "" {
		fatal(fmt.Errorf("-portfolio/-target/-race-budget/-handoff require -solver portfolio"))
	}
	// With -json, stdout carries only the JSON document; progress
	// lines go to stderr.
	info := os.Stdout
	if *jsonOut {
		info = os.Stderr
	}

	// The problem comes from a generated K-graph, a Gset graph file, or
	// a qbsolv-format .qubo file.
	var g *mbrim.Graph
	var model *mbrim.Model
	var quboOffset float64
	switch {
	case *k > 0:
		g = mbrim.CompleteGraph(*k, *seed)
		fmt.Fprintf(info, "problem: K%d (seed %d)\n", *k, *seed)
	case flag.NArg() == 1 && strings.HasSuffix(flag.Arg(0), ".qubo"):
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		q, err := mbrim.ReadQUBOFile(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if model, quboOffset, err = q.ToIsing(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(info, "problem: %s (QUBO, %d variables)\n", flag.Arg(0), q.N())
	case flag.NArg() == 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		g, err = mbrim.ReadGraph(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(info, "problem: %s (%d vertices, %d edges)\n", flag.Arg(0), g.N(), g.M())
	default:
		fatal(fmt.Errorf("need a graph file argument or -k N"))
	}
	if model == nil {
		model = g.ToIsing()
	}

	// Observability: a JSONL tracer when -trace is set, a metrics
	// registry when -metrics or -pprof asked for one, and the pprof +
	// /metrics debug server when -pprof names an address.
	var tracer mbrim.Tracer
	var jsonl *mbrim.JSONLTracer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		jsonl = mbrim.NewJSONLTracer(f)
		tracer = jsonl
		defer jsonl.Close()
	}
	var registry *mbrim.Registry
	if *metricsOut || *pprofAddr != "" {
		registry = mbrim.NewRegistry()
	}
	// Introspection: -span-trace captures the whole event stream (span
	// events included) for the post-run Chrome trace export, and -diag
	// attaches the live diagnostics reducer. Both ride the same tracer
	// fan-out as -trace, and neither perturbs the solve trajectory.
	var capture *captureTracer
	var reducer *mbrim.DiagReducer
	if *spanTraceFile != "" || *diagOut {
		sinks := []mbrim.Tracer{tracer}
		if *spanTraceFile != "" {
			capture = &captureTracer{}
			sinks = append(sinks, capture)
		}
		if *diagOut {
			reducer = mbrim.NewDiagReducer(mbrim.DiagConfig{})
			sinks = append(sinks, reducer)
		}
		tracer = mbrim.Fanout(sinks...)
	}
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// The run's registry, as mbrimd serves its own: Prometheus at
		// /metrics, a JSON snapshot at /metrics.json.
		mux.Handle("GET /metrics", registry.PromHandler())
		mux.Handle("GET /metrics.json", registry)
		srv := &http.Server{
			Addr:    *pprofAddr,
			Handler: mux,
			// Slowloris guard: a client must finish its headers
			// promptly or lose the connection.
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := srv.ListenAndServe(); err != nil {
				fmt.Fprintln(os.Stderr, "mbrim: pprof server:", err)
			}
		}()
		fmt.Fprintf(info, "pprof:   http://%s/debug/pprof/ (Prometheus at /metrics, JSON at /metrics.json)\n", *pprofAddr)
	}

	// Lifecycle: -timeout bounds the run, SIGINT/SIGTERM cancel it, and
	// -resume feeds a prior run's checkpoint back in. Both cancellation
	// paths stop the engine at its next barrier; for multichip engines
	// the interruption carries resume bytes that -checkpoint persists.
	var resumeBytes []byte
	if *resumePath != "" {
		b, err := os.ReadFile(*resumePath)
		if err != nil {
			fatal(err)
		}
		resumeBytes = b
		fmt.Fprintf(info, "resume:  %s (%d bytes)\n", *resumePath, len(b))
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The cluster engine's part of the request: the workers (behind chaos
	// proxies when a -chaos-* flag asks), and a run id of this process's
	// own — the engine's anonymous numbering would collide between two
	// CLI processes sharing workers.
	var cspec mbrim.ClusterSpec
	var runID string
	if kind == mbrim.Cluster {
		cspec = mbrim.ClusterSpec{CheckpointEvery: *ckptEvery, Federate: *federate}
		var stopChaos func()
		cspec.Workers, tracer, stopChaos = chaosFront(info, splitWorkers(*clusterWorkers), tracer, chaosproxy.Config{
			Seed:      *chaosSeed,
			DropRate:  *chaosDrop,
			ErrorRate: *chaosError,
			DelayRate: *chaosDelayRate,
			Delay:     *chaosDelay,
		}, *chaosKillWorker, *chaosKillEpoch)
		defer stopChaos()
		runID = fmt.Sprintf("cli-%d-%d", os.Getpid(), time.Now().UnixNano())
	}

	// A QUBO has no graph: its Graph stays a nil Cutter, not a Cutter
	// holding a nil *Graph that the outcome would ask for a cut.
	var cuts mbrim.Cutter
	if g != nil {
		cuts = g
	}
	out, err := mbrim.SolveCtx(ctx, mbrim.Request{
		Kind:              kind,
		Model:             model,
		Graph:             cuts,
		Seed:              *seed,
		Runs:              *runs,
		Sweeps:            *sweeps,
		Steps:             *steps,
		DurationNS:        *duration,
		Chips:             *chips,
		EpochNS:           *epoch,
		Coordinated:       *coordinated,
		ChannelBytesPerNS: *bandwidth,
		MachineCapacity:   *capacity,
		SampleEveryNS:     *sample,
		RecordEpochStats:  *epochStats,
		Probes:            *probes,
		Parallel:          *parallel,
		Tracer:            tracer,
		SpanTrace:         *spanTraceFile != "",
		Diag:              *diagOut,
		Metrics:           registry,
		Faults: mbrim.FaultConfig{
			Seed:          *faultSeed,
			DropRate:      *faultDrop,
			CorruptRate:   *faultCorrupt,
			DelayRate:     *faultDelay,
			StallRate:     *faultStall,
			ChipLossEpoch: *faultChipLoss,
			ChipLossChip:  *faultChip,
			Recovery: mbrim.RecoveryConfig{
				Detect:              *recoverDetect,
				MaxRetransmits:      *recoverRetries,
				RetransmitBackoffNS: *recoverBackoff,
				WatchdogThreshold:   *recoverWatchdog,
				Repartition:         *recoverRepartition,
			},
		},
		Resume:    resumeBytes,
		Portfolio: pspec,
		Cluster:   cspec,
		RunID:     runID,
	})
	var intr *mbrim.InterruptedError
	if errors.As(err, &intr) {
		// Interrupted: summarize the best-so-far state, persist the
		// checkpoint when one exists, and exit nonzero so scripts can
		// tell a cut-short run from a completed one.
		stop()
		fmt.Fprintf(os.Stderr, "mbrim: interrupted: %v\n", intr.Cause)
		if p := intr.Outcome; p != nil {
			fmt.Fprintf(os.Stderr, "mbrim: best-so-far energy %.0f", p.Energy)
			if g != nil {
				fmt.Fprintf(os.Stderr, ", cut %.0f", p.Cut)
			}
			if p.ModelNS > 0 {
				fmt.Fprintf(os.Stderr, ", %.1f ns model time", p.ModelNS)
			}
			fmt.Fprintf(os.Stderr, " (wall %v)\n", p.Wall)
		}
		if *ckptPath != "" {
			if intr.Checkpoint == nil {
				fmt.Fprintf(os.Stderr, "mbrim: engine %s has no resumable state; no checkpoint written\n", *solver)
			} else if werr := os.WriteFile(*ckptPath, intr.Checkpoint, 0o644); werr != nil {
				fmt.Fprintln(os.Stderr, "mbrim:", werr)
			} else {
				fmt.Fprintf(os.Stderr, "mbrim: checkpoint written to %s (resume with -resume %s)\n", *ckptPath, *ckptPath)
			}
		}
		if jsonl != nil {
			if ferr := jsonl.Flush(); ferr != nil {
				fmt.Fprintln(os.Stderr, "mbrim:", ferr)
			}
		}
		if capture != nil {
			// Best-effort: a truncated run's spans still load (open
			// intervals are closed at the last observed timestamp).
			if werr := writeSpanTrace(*spanTraceFile, capture.events); werr != nil {
				fmt.Fprintln(os.Stderr, "mbrim:", werr)
			} else {
				fmt.Fprintf(os.Stderr, "mbrim: span trace written to %s\n", *spanTraceFile)
			}
		}
		os.Exit(3)
	}
	if err != nil {
		fatal(err)
	}
	if jsonl != nil {
		if err := jsonl.Flush(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(info, "trace:   %s\n", *traceFile)
	}
	if capture != nil {
		if err := writeSpanTrace(*spanTraceFile, capture.events); err != nil {
			fatal(err)
		}
		fmt.Fprintf(info, "spans:   %s (Chrome trace; load in ui.perfetto.dev)\n", *spanTraceFile)
	}

	if *jsonOut {
		var snap any
		if *metricsOut && registry != nil {
			snap = registry.Snapshot()
		}
		var diagSnap any
		if reducer != nil {
			diagSnap = reducer.Snapshot()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			*mbrim.Outcome
			WallNS    int64   `json:"wallNS"`
			QUBOValue float64 `json:"quboValue,omitempty"`
			HasGraph  bool    `json:"hasGraph"`
			Metrics   any     `json:"metrics,omitempty"`
			Diag      any     `json:"diag,omitempty"`
		}{out, out.Wall.Nanoseconds(), out.Energy + quboOffset, g != nil, snap, diagSnap}); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("solver:  %s\n", out.Kind)
	if out.Backend != "" {
		fmt.Printf("backend: %s\n", out.Backend)
	}
	if g != nil {
		fmt.Printf("cut:     %.0f\n", out.Cut)
	}
	fmt.Printf("energy:  %.0f\n", out.Energy)
	if quboOffset != 0 {
		fmt.Printf("qubo:    %.0f (energy + offset)\n", out.Energy+quboOffset)
	}
	if out.ModelNS > 0 {
		fmt.Printf("machine: %.1f ns model time\n", out.ModelNS)
	}
	fmt.Printf("wall:    %v\n", out.Wall)
	for _, name := range []string{"flips", "bitChanges", "trafficBytes", "stallNS", "launches", "glueOps",
		"faultDrops", "faultCorruptions", "faultDelays", "faultStalls", "faultChipLosses",
		"recoveryRetransmits", "recoveryResyncs", "recoveryRepartitions", "recoveryStallNS",
		"epochs", "liveWorkers", "rpcRetries", "workerDeaths", "recoveries", "replayedEpochs", "handoffBytes", "degraded"} {
		if v, ok := out.Stats[name]; ok && v != 0 {
			fmt.Printf("%-8s %.0f\n", name+":", v)
		}
	}
	if p := out.Portfolio; p != nil {
		how := "best at end of race"
		if p.HitTarget {
			how = "first to target"
		}
		fmt.Printf("race:    winner %s (entrant %d, %s)\n", p.WinnerKind, p.Winner, how)
		if p.Dispatched && p.Structure != nil {
			fmt.Printf("         auto-dispatched: density %.3f, degree CV %.2f\n",
				p.Structure.Density, p.Structure.DegreeCV)
		}
		for _, e := range p.Entrants {
			state := "finished"
			if e.Interrupted {
				state = "cancelled"
			}
			if e.Err != "" {
				state = "failed: " + e.Err
			}
			fmt.Printf("         e%d %-8s energy %.0f  wall %v  %s\n",
				e.Index, e.Kind, e.Energy, time.Duration(e.WallNS), state)
		}
		if h := p.HandOff; h != nil {
			fmt.Printf("         hand-off %s energy %.0f  wall %v\n",
				h.Kind, h.Energy, time.Duration(h.WallNS))
		}
	}
	if *printSpins {
		for _, s := range out.Spins {
			if s > 0 {
				fmt.Print("+")
			} else {
				fmt.Print("-")
			}
		}
		fmt.Println()
	}
	if reducer != nil {
		fmt.Println("diag:")
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reducer.Snapshot()); err != nil {
			fatal(err)
		}
	}
	if *metricsOut && registry != nil {
		fmt.Println("metrics:")
		if err := registry.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// captureTracer keeps the whole event stream in memory so the Chrome
// trace export can run after the solve completes.
type captureTracer struct{ events []mbrim.Event }

func (c *captureTracer) Emit(e mbrim.Event) { c.events = append(c.events, e) }

func writeSpanTrace(path string, events []mbrim.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mbrim.WriteChromeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mbrim:", err)
	os.Exit(1)
}
