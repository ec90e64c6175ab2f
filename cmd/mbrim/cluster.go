package main

// What is the CLI's own about a distributed solve. The solve itself is
// the registered "cluster" engine's, behind the one mbrim.SolveCtx call
// in main; here are the worker list and the chaos drill: in-process
// fault-injecting proxies in front of the workers, and a tracer that
// blackholes one of them at a chosen epoch, so the robustness layer can
// be exercised from the command line — the harness the cluster-smoke CI
// job drives.

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"mbrim"
	"mbrim/internal/cluster/chaosproxy"
	"mbrim/internal/obs"
)

func splitWorkers(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, w)
		}
	}
	return out
}

// chaosFront applies the chaos flags to a run's workers and tracer: when
// any injection knob is set every worker is fronted by a loopback proxy
// with a per-worker fate schedule, and -chaos-kill-worker wraps the
// tracer so the kill lands at its epoch. With no knob set it returns its
// arguments. It exits the process on a bad flag.
func chaosFront(info io.Writer, workers []string, tracer mbrim.Tracer, c chaosproxy.Config, killWorker, killEpoch int) ([]string, mbrim.Tracer, func()) {
	if c.DropRate <= 0 && c.ErrorRate <= 0 && c.DelayRate <= 0 && killWorker < 0 {
		return workers, tracer, func() {}
	}
	if killWorker >= len(workers) {
		fatal(fmt.Errorf("-chaos-kill-worker %d, but only %d workers", killWorker, len(workers)))
	}
	fronted, proxies, stop, err := startChaosProxies(workers, c)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(info, "chaos:   %d proxies (seed %d, drop %.2f, error %.2f, delay %.2f×%v)\n",
		len(proxies), c.Seed, c.DropRate, c.ErrorRate, c.DelayRate, c.Delay)
	if killWorker >= 0 && killEpoch > 0 {
		tracer = &killAtEpoch{next: tracer, epoch: killEpoch, worker: killWorker, proxy: proxies[killWorker]}
	}
	return fronted, tracer, stop
}

// killAtEpoch blackholes one worker's proxy when the run's stream
// reports the barrier of the chosen epoch. The coordinator emits
// EpochSync at the barrier, before the next RPC goes out, so the worker
// goes dark between two epochs — deterministically. The replay after the
// recovery crosses the epoch again; the kill fires once.
type killAtEpoch struct {
	next   mbrim.Tracer
	epoch  int
	worker int
	proxy  *chaosproxy.Proxy
	fired  bool
}

func (k *killAtEpoch) Emit(e mbrim.Event) {
	if e.Kind == obs.EpochSync && e.Epoch == k.epoch && !k.fired {
		k.fired = true
		k.proxy.Blackhole(true)
		fmt.Fprintf(os.Stderr, "mbrim: chaos: blackholed worker %d at epoch %d\n", k.worker, k.epoch)
	}
	if k.next != nil {
		k.next.Emit(e)
	}
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
