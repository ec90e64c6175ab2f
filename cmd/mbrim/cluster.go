package main

// The -cluster mode: instead of solving in process, the CLI acts as a
// distributed-fabric coordinator, sharding the model across mbrimd
// -worker nodes (internal/cluster). The optional chaos flags stand up
// in-process fault-injecting proxies in front of the workers so the
// robustness layer can be exercised from the command line — the same
// harness the cluster-smoke CI job drives.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"mbrim"
	"mbrim/internal/cluster"
	"mbrim/internal/cluster/chaosproxy"
	"mbrim/internal/diag"
	"mbrim/internal/obs"
)

// clusterOpts carries the CLI flags the cluster mode consumes.
type clusterOpts struct {
	workers     string // comma-separated worker base URLs
	chips       int
	duration    float64
	epoch       float64
	coordinated bool
	bandwidth   float64
	backend     string
	seed        uint64
	sample      float64
	ckptEvery   int
	federate    bool
	tracePath   string // write the merged fleet trace here (implies federate)

	chaosSeed      uint64
	chaosDrop      float64
	chaosError     float64
	chaosDelayRate float64
	chaosDelay     time.Duration
	killWorker     int
	killEpoch      int

	jsonOut    bool
	printSpins bool
	metricsOut bool
	ckptPath   string

	tracer   mbrim.Tracer
	registry *mbrim.Registry
}

// runCluster executes the distributed solve and prints the outcome in
// the CLI's usual shape. It exits the process (0 success, 1 error,
// 3 interrupted-with-checkpoint) like the in-process path.
func runCluster(ctx context.Context, info io.Writer, model *mbrim.Model, g *mbrim.Graph, quboOffset float64, o clusterOpts) {
	workers := splitWorkers(o.workers)
	if len(workers) == 0 {
		fatal(fmt.Errorf("-cluster needs at least one worker URL"))
	}

	// Chaos harness: when any injection knob is set, each worker is
	// fronted by a loopback proxy with a per-worker fate schedule.
	var proxies []*chaosproxy.Proxy
	chaosOn := o.chaosDrop > 0 || o.chaosError > 0 || o.chaosDelayRate > 0 || o.killWorker >= 0
	if chaosOn {
		if o.killWorker >= len(workers) {
			fatal(fmt.Errorf("-chaos-kill-worker %d, but only %d workers", o.killWorker, len(workers)))
		}
		fronted, ps, stopProxies, err := startChaosProxies(workers, chaosproxy.Config{
			Seed:      o.chaosSeed,
			DropRate:  o.chaosDrop,
			ErrorRate: o.chaosError,
			DelayRate: o.chaosDelayRate,
			Delay:     o.chaosDelay,
		})
		if err != nil {
			fatal(err)
		}
		defer stopProxies()
		workers, proxies = fronted, ps
		fmt.Fprintf(info, "chaos:   %d proxies (seed %d, drop %.2f, error %.2f, delay %.2f×%v)\n",
			len(ps), o.chaosSeed, o.chaosDrop, o.chaosError, o.chaosDelayRate, o.chaosDelay)
	}

	cfg := cluster.Config{
		Workers:           workers,
		Chips:             o.chips,
		DurationNS:        o.duration,
		EpochNS:           o.epoch,
		Coordinated:       o.coordinated,
		Seed:              o.seed,
		Backend:           o.backend,
		ChannelBytesPerNS: o.bandwidth,
		SampleEveryNS:     o.sample,
		CheckpointEvery:   o.ckptEvery,
		Metrics:           o.registry,
		Tracer:            o.tracer,
		Federate:          o.federate || o.tracePath != "",
	}
	if o.killWorker >= 0 && o.killEpoch > 0 {
		killed := false // the replay crosses the kill epoch again; fire once
		cfg.OnEpoch = func(epoch int) {
			if epoch == o.killEpoch && !killed {
				killed = true
				proxies[o.killWorker].Blackhole(true)
				fmt.Fprintf(os.Stderr, "mbrim: chaos: blackholed worker %d at epoch %d\n", o.killWorker, epoch)
			}
		}
	}

	runID := fmt.Sprintf("cli-%d-%d", os.Getpid(), time.Now().UnixNano())
	// A federated run's fleet summary is folded from its own stream, as
	// the daemon's /runs/{id}/diag does it.
	var fleet *diag.Reducer
	if cfg.Federate {
		fleet = diag.New(diag.Config{Registry: o.registry, RunID: runID})
		cfg.Tracer = obs.Fanout(o.tracer, fleet)
	}
	co, err := cluster.New(model, runID, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(info, "cluster: %d workers, %d slices\n", len(workers), valueOrChips(o.chips, len(workers)))

	start := time.Now()
	res, env, err := co.Solve(ctx)
	wall := time.Since(start)
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// Interrupted: the coordinator captured a barrier-consistent
		// checkpoint the in-process engine can resume (-solver mbrim
		// -resume FILE). Mirror the in-process interrupt contract.
		fmt.Fprintf(os.Stderr, "mbrim: interrupted: %v\n", err)
		if res != nil {
			fmt.Fprintf(os.Stderr, "mbrim: best-so-far energy %.0f, %.1f ns model time (wall %v)\n",
				res.Energy, res.ModelNS, wall)
		}
		if o.ckptPath != "" {
			if env == nil {
				fmt.Fprintln(os.Stderr, "mbrim: no consistent cluster checkpoint available; nothing written")
			} else if werr := os.WriteFile(o.ckptPath, env, 0o644); werr != nil {
				fmt.Fprintln(os.Stderr, "mbrim:", werr)
			} else {
				fmt.Fprintf(os.Stderr, "mbrim: checkpoint written to %s (resume with -solver mbrim -resume %s)\n",
					o.ckptPath, o.ckptPath)
			}
		}
		writeFleetTrace(co, o.tracePath) // the partial trace still merges
		os.Exit(3)
	}
	if err != nil {
		fatal(err)
	}

	if co.TraceID() != 0 {
		fmt.Fprintf(info, "fleet:   trace %016x, %d federated events", co.TraceID(), len(co.FederatedEvents()))
		if snap := fleet.Snapshot().Fleet; snap != nil {
			fmt.Fprintf(info, ", sync %.0f%%, straggler worker %d", 100*snap.SyncFraction, snap.Straggler)
		}
		fmt.Fprintln(info)
	}
	writeFleetTrace(co, o.tracePath)
	printClusterOutcome(res, g, quboOffset, wall, o)
}

// writeFleetTrace renders the run's merged fleet trace to path
// (Perfetto/chrome://tracing loadable). No-op when path is empty.
func writeFleetTrace(co *cluster.Coordinator, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbrim:", err)
		return
	}
	defer f.Close()
	if err := obs.WriteChromeTrace(f, co.FederatedEvents()); err != nil {
		fmt.Fprintln(os.Stderr, "mbrim:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "mbrim: fleet trace written to %s\n", path)
}

func valueOrChips(chips, workers int) int {
	if chips == 0 {
		return workers
	}
	return chips
}

func splitWorkers(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, w)
		}
	}
	return out
}

// startChaosProxies fronts every worker with a fault-injecting loopback
// proxy. Each proxy's fate schedule is seeded per worker index so the
// injected faults are deterministic but uncorrelated across workers.
func startChaosProxies(workers []string, cfg chaosproxy.Config) (urls []string, proxies []*chaosproxy.Proxy, stop func(), err error) {
	var servers []*http.Server
	stop = func() {
		for _, s := range servers {
			s.Close()
		}
	}
	for i, w := range workers {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)*0x9e3779b97f4a7c15
		p, perr := chaosproxy.New(w, c)
		if perr != nil {
			stop()
			return nil, nil, nil, perr
		}
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			stop()
			return nil, nil, nil, lerr
		}
		srv := &http.Server{Handler: p, ReadHeaderTimeout: 5 * time.Second}
		servers = append(servers, srv)
		go srv.Serve(ln)
		urls = append(urls, "http://"+ln.Addr().String())
		proxies = append(proxies, p)
	}
	return urls, proxies, stop, nil
}

// printClusterOutcome renders a completed distributed solve in the same
// shape as the in-process path, plus the recovery ledger.
func printClusterOutcome(res *cluster.Result, g *mbrim.Graph, quboOffset float64, wall time.Duration, o clusterOpts) {
	cut := 0.0
	if g != nil {
		cut = g.CutValue(res.Spins)
	}
	if o.jsonOut {
		var snap any
		if o.metricsOut && o.registry != nil {
			snap = o.registry.Snapshot()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Solver               string                `json:"solver"`
			Energy               float64               `json:"energy"`
			Cut                  float64               `json:"cut,omitempty"`
			QUBOValue            float64               `json:"quboValue,omitempty"`
			ModelNS              float64               `json:"modelNS"`
			StallNS              float64               `json:"stallNS"`
			ElapsedNS            float64               `json:"elapsedNS"`
			Flips                int64                 `json:"flips"`
			BitChanges           int64                 `json:"bitChanges"`
			TrafficBytes         float64               `json:"trafficBytes"`
			PeakDemandBytesPerNS float64               `json:"peakDemandBytesPerNS"`
			Epochs               int                   `json:"epochs"`
			WallNS               int64                 `json:"wallNS"`
			LiveWorkers          int                   `json:"liveWorkers"`
			Recovery             cluster.RecoveryStats `json:"recovery"`
			Spins                []int8                `json:"spins,omitempty"`
			Metrics              any                   `json:"metrics,omitempty"`
		}{
			Solver: "cluster", Energy: res.Energy, Cut: cut,
			QUBOValue: res.Energy + quboOffset,
			ModelNS:   res.ModelNS, StallNS: res.StallNS, ElapsedNS: res.ElapsedNS,
			Flips: res.Flips, BitChanges: res.BitChanges,
			TrafficBytes: res.TrafficBytes, PeakDemandBytesPerNS: res.PeakDemandBytesPerNS,
			Epochs: res.Epochs, WallNS: wall.Nanoseconds(), LiveWorkers: res.LiveWorkers,
			Recovery: res.Recovery, Spins: spinsIf(o.printSpins, res.Spins), Metrics: snap,
		}); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("solver:  cluster (%d live workers)\n", res.LiveWorkers)
	if g != nil {
		fmt.Printf("cut:     %.0f\n", cut)
	}
	fmt.Printf("energy:  %.0f\n", res.Energy)
	if quboOffset != 0 {
		fmt.Printf("qubo:    %.0f (energy + offset)\n", res.Energy+quboOffset)
	}
	fmt.Printf("machine: %.1f ns model time (%.1f ns with stalls)\n", res.ModelNS, res.ElapsedNS)
	fmt.Printf("wall:    %v\n", wall)
	for _, kv := range []struct {
		name string
		v    float64
	}{
		{"flips", float64(res.Flips)},
		{"bitChanges", float64(res.BitChanges)},
		{"trafficBytes", res.TrafficBytes},
		{"stallNS", res.StallNS},
		{"epochs", float64(res.Epochs)},
		{"rpcRetries", float64(res.Recovery.RPCRetries)},
		{"workerDeaths", float64(res.Recovery.WorkerDeaths)},
		{"recoveries", float64(res.Recovery.Recoveries)},
		{"replayedEpochs", float64(res.Recovery.ReplayedEpochs)},
		{"handoffBytes", res.Recovery.HandoffBytes},
		{"recoveryStallNS", res.Recovery.RecoveryStallNS},
	} {
		if kv.v != 0 {
			fmt.Printf("%-8s %.0f\n", kv.name+":", kv.v)
		}
	}
	if res.Recovery.Degraded {
		fmt.Println("degraded: yes (a survivor hosts multiple slices)")
	}
	if o.printSpins {
		for _, s := range res.Spins {
			if s > 0 {
				fmt.Print("+")
			} else {
				fmt.Print("-")
			}
		}
		fmt.Println()
	}
	if o.metricsOut && o.registry != nil {
		fmt.Println("metrics:")
		if err := o.registry.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func spinsIf(on bool, spins []int8) []int8 {
	if !on {
		return nil
	}
	return spins
}
