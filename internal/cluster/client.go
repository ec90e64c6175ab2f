package cluster

import (
	"bytes"
	"context"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mbrim/internal/obs"
	"mbrim/internal/rng"
)

// This file is the coordinator's transport: per-RPC deadlines,
// deterministic-jittered exponential backoff under a per-run retry
// budget, and the heartbeat prober that separates slow from dead.
//
// Failure taxonomy:
//   - transport errors and 5xx are retryable (a chaos proxy injects
//     exactly these; so do real networks);
//   - 4xx are protocol errors — a coordinator/worker disagreement no
//     retry can fix — and abort the run;
//   - a worker whose heartbeats still answer gets a doubled attempt
//     allowance before being declared dead (slow ≠ dead, Sec: failure
//     model in DESIGN.md);
//   - exhausting attempts or the budget declares the worker dead and
//     surfaces errWorkerDead, which the coordinator turns into a
//     checkpoint-rollback recovery.

// writeWire answers a /worker RPC with 200 and a compact body — read by
// a coordinator every epoch, not by a person: v's binary form when it
// has one (SyncResponse), else its JSON.
func writeWire(w http.ResponseWriter, v any) {
	w.Header().Set("Cache-Control", "no-store")
	if bm, ok := v.(encoding.BinaryMarshaler); ok {
		body, err := bm.MarshalBinary()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(body)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers a /worker RPC with status and an error envelope,
// indented: a person reads these.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]string{"error": err.Error()})
}

// workerDeadError reports that a worker was declared dead.
type workerDeadError struct {
	worker int // index into the coordinator's worker list
	cause  error
}

func (e *workerDeadError) Error() string {
	return fmt.Sprintf("cluster: worker %d declared dead: %v", e.worker, e.cause)
}

// protocolError is a non-retryable 4xx/422 from a worker.
type protocolError struct {
	status int
	body   string
}

func (e *protocolError) Error() string {
	return fmt.Sprintf("cluster: worker protocol error %d: %s", e.status, strings.TrimSpace(e.body))
}

// workerHealth is one worker's liveness ledger, shared between the
// prober goroutine and RPC issuers.
type workerHealth struct {
	misses atomic.Int64 // consecutive heartbeat misses
	dead   atomic.Bool  // declared dead (sticky for the run)
	probes atomic.Int64
}

// transport issues the coordinator's RPCs against one worker set.
type transport struct {
	cfg Config
	// client is cfg.Client — the caller's, shared across runs and left
	// alone when this run ends — or, absent one, a client of this
	// transport's own (ownClient) whose idle connections close with it.
	client    *http.Client
	ownClient bool
	workers   []string
	health    []*workerHealth
	reg       *obs.Registry // cfg.Metrics; nil instruments are no-ops

	budget  atomic.Int64 // remaining retries for the run
	retries atomic.Int64 // retries actually spent
	jitter  atomic.Uint64

	stopProbe chan struct{}
	probeWG   sync.WaitGroup

	// The per-attempt instruments once records into, by wire method and
	// by worker index, each resolved on first use.
	seriesMu sync.Mutex
	rpc      map[string]*rpcSeries
	wire     []wireSeries
}

// rpcSeries are one wire method's instruments and wireSeries one
// worker's. Each is looked up in the registry the first time it
// records, so a run exposes the series per-call lookups would make,
// without building a label map and series key on every RPC.
type rpcSeries struct {
	latency        atomic.Pointer[obs.Histogram]
	errors, tx, rx atomic.Pointer[obs.Counter]
}

type wireSeries struct{ tx, rx atomic.Pointer[obs.Counter] }

// resolve returns the instrument held in p, looking it up on first use.
// The registry hands out one instrument per series, so lookups that
// race store the same pointer.
func resolve[T any](p *atomic.Pointer[T], lookup func() *T) *T {
	v := p.Load()
	if v == nil {
		v = lookup()
		p.Store(v)
	}
	return v
}

// methodSeries returns wire method ml's instruments.
func (t *transport) methodSeries(ml string) *rpcSeries {
	t.seriesMu.Lock()
	defer t.seriesMu.Unlock()
	rs := t.rpc[ml]
	if rs == nil {
		rs = &rpcSeries{}
		t.rpc[ml] = rs
	}
	return rs
}

func newTransport(cfg Config, workers []string) *transport {
	t := &transport{
		cfg:     cfg,
		client:  cfg.Client,
		workers: workers,
		health:  make([]*workerHealth, len(workers)),
		reg:     cfg.Metrics,
		rpc:     make(map[string]*rpcSeries),
		wire:    make([]wireSeries, len(workers)),
	}
	if t.client == nil {
		t.client, t.ownClient = newKeepAliveClient(), true
	}
	for i := range t.health {
		t.health[i] = &workerHealth{}
	}
	t.budget.Store(int64(cfg.RetryBudget))
	if t.reg != nil {
		t.reg.SetHelp("cluster.rpc_inflight", "coordinator RPCs currently in flight (including backoff waits)")
		t.reg.SetHelp("cluster.rpc_latency_ns", "per-attempt RPC wall latency by wire method")
		t.reg.SetHelp("cluster.rpc_backoff_ns", "retry backoff waited by wire method")
		t.reg.SetHelp("cluster.rpc_retries_total", "RPC retries by wire method")
		t.reg.SetHelp("cluster.rpc_attempt_errors", "failed RPC attempts by wire method")
		t.reg.SetHelp("cluster.rpc_bytes", "request/response bytes on the wire by method and direction")
		t.reg.SetHelp("fleet.wire_bytes", "bytes actually moved to/from each worker (compare fleet.model_traffic_bytes)")
		t.reg.SetHelp("fleet.heartbeat_rtt_ns", "per-worker /healthz heartbeat round-trip time")
	}
	return t
}

// newKeepAliveClient returns an HTTP client with a connection pool of
// its own: whoever builds it decides when its idle connections close,
// and nothing it does reaches http.DefaultTransport. The per-host idle
// allowance covers a degraded worker's several slices stepping at once
// beside the heartbeat probe.
func newKeepAliveClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// close releases what the transport owns; a caller's client is not its
// to close.
func (t *transport) close() {
	if t.ownClient {
		t.client.CloseIdleConnections()
	}
}

// rpcMethod maps an RPC to its wire-method label — the dimension the
// per-method latency/retry/backoff series are keyed by.
func rpcMethod(method, path string) string {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i] // label by route, not by cursor value
	}
	switch {
	case strings.HasSuffix(path, "/step"):
		return "step"
	case strings.HasSuffix(path, "/sync"):
		return "sync"
	case strings.HasSuffix(path, "/events"):
		return "events"
	case strings.HasSuffix(path, "/clock"):
		return "clock"
	case method == http.MethodPut:
		return "create"
	case method == http.MethodDelete:
		return "delete"
	default:
		return "status"
	}
}

// startProber launches one heartbeat goroutine per worker, probing
// GET /healthz every HeartbeatEvery. HeartbeatMisses consecutive
// failures mark the worker dead; any success clears the count (unless
// already declared dead — death is sticky, a flapping worker cannot
// rejoin mid-run).
func (t *transport) startProber() {
	t.stopProbe = make(chan struct{})
	for wi := range t.workers {
		t.probeWG.Add(1)
		go func(wi int) {
			defer t.probeWG.Done()
			ticker := time.NewTicker(t.cfg.HeartbeatEvery)
			defer ticker.Stop()
			for {
				select {
				case <-t.stopProbe:
					return
				case <-ticker.C:
				}
				h := t.health[wi]
				if h.dead.Load() {
					return
				}
				h.probes.Add(1)
				if t.probe(wi) {
					h.misses.Store(0)
					continue
				}
				if h.misses.Add(1) >= int64(t.cfg.HeartbeatMisses) {
					h.dead.Store(true)
					return
				}
			}
		}(wi)
	}
}

func (t *transport) stopProber() {
	if t.stopProbe != nil {
		close(t.stopProbe)
		t.probeWG.Wait()
		t.stopProbe = nil
	}
}

// probe issues one heartbeat. Probes ride the same chaos-exposed URL
// as RPCs, so an injected blackhole looks like death here too. The
// deadline is floored well above the probe cadence: it fences a hung
// worker, while refused/reset connections (how a crashed or blackholed
// worker actually presents) fail immediately regardless — so
// scheduling jitter on a loaded host cannot masquerade as death.
func (t *transport) probe(wi int) bool {
	d := t.cfg.HeartbeatEvery
	if d < 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.workers[wi]+"/healthz", nil)
	if err != nil {
		return false
	}
	start := time.Now()
	resp, err := t.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.reg.HistogramWith("fleet.heartbeat_rtt_ns", obs.Labels{"worker": strconv.Itoa(wi)}).
			Observe(float64(time.Since(start).Nanoseconds()))
		return true
	}
	return false
}

// alive reports whether the worker has not been declared dead.
func (t *transport) alive(wi int) bool { return !t.health[wi].dead.Load() }

// markDead declares a worker dead directly (RPC-layer detection).
func (t *transport) markDead(wi int) { t.health[wi].dead.Store(true) }

// do issues one RPC against worker wi with deadline, backoff and
// budget, decoding a 2xx body into out (when non-nil). It returns
// *workerDeadError when the worker is declared dead, *protocolError on
// 4xx, ctx.Err() on coordinator cancellation.
func (t *transport) do(ctx context.Context, wi int, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("cluster: encoding %s %s: %w", method, path, err)
		}
	}
	ml := rpcMethod(method, path)
	t.reg.Gauge("cluster.rpc_inflight").Add(1)
	defer t.reg.Gauge("cluster.rpc_inflight").Add(-1)
	maxAttempts := t.cfg.MaxAttempts
	var lastErr error
	for attempt := 0; ; attempt++ {
		if !t.alive(wi) {
			if lastErr == nil {
				lastErr = errors.New("heartbeats missed")
			}
			return &workerDeadError{worker: wi, cause: lastErr}
		}
		if attempt >= maxAttempts {
			// Out of attempts. A worker whose heartbeats still answer is
			// slow, not dead: grant one doubling of the allowance before
			// giving up on it.
			if maxAttempts == t.cfg.MaxAttempts && t.health[wi].misses.Load() == 0 && t.health[wi].probes.Load() > 0 {
				maxAttempts *= 2
			} else {
				t.markDead(wi)
				return &workerDeadError{worker: wi, cause: lastErr}
			}
		}
		if attempt > 0 {
			if t.budget.Add(-1) < 0 {
				t.markDead(wi)
				return &workerDeadError{worker: wi, cause: fmt.Errorf("retry budget exhausted (%w)", lastErr)}
			}
			t.retries.Add(1)
			t.reg.CounterWith("cluster.rpc_retries_total", obs.Labels{"method": ml}).Inc()
			if err := t.sleepBackoff(ctx, wi, attempt, ml); err != nil {
				return err
			}
		}
		err := t.once(ctx, wi, method, path, body, out)
		if err == nil {
			return nil
		}
		var pe *protocolError
		if errors.As(err, &pe) {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lastErr = err
	}
}

// once is a single attempt under the per-RPC deadline. Every attempt
// is measured into the per-method latency histogram (failures are
// additionally counted in cluster.rpc_attempt_errors), and actual
// request/response bytes are charged to the wire ledgers — the
// "bytes on the wire" side of the fleet.wire_bytes vs.
// fleet.model_traffic_bytes comparison.
func (t *transport) once(ctx context.Context, wi int, method, path string, body []byte, out any) error {
	ml := rpcMethod(method, path)
	rs, ws := t.methodSeries(ml), &t.wire[wi]
	start := time.Now()
	defer func() {
		resolve(&rs.latency, func() *obs.Histogram {
			return t.reg.HistogramWith("cluster.rpc_latency_ns", obs.Labels{"method": ml})
		}).Observe(float64(time.Since(start).Nanoseconds()))
	}()
	fail := func(err error) error {
		resolve(&rs.errors, func() *obs.Counter {
			return t.reg.CounterWith("cluster.rpc_attempt_errors", obs.Labels{"method": ml})
		}).Inc()
		return err
	}
	rctx, cancel := context.WithTimeout(ctx, t.cfg.RPCTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, t.workers[wi]+path, rd)
	if err != nil {
		return fail(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
		resolve(&rs.tx, func() *obs.Counter {
			return t.reg.CounterWith("cluster.rpc_bytes", obs.Labels{"method": ml, "dir": "tx"})
		}).Add(int64(len(body)))
		resolve(&ws.tx, func() *obs.Counter {
			return t.reg.CounterWith("fleet.wire_bytes", obs.Labels{"worker": strconv.Itoa(wi), "dir": "tx"})
		}).Add(int64(len(body)))
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxSliceBody))
	if err != nil {
		return fail(err)
	}
	resolve(&rs.rx, func() *obs.Counter {
		return t.reg.CounterWith("cluster.rpc_bytes", obs.Labels{"method": ml, "dir": "rx"})
	}).Add(int64(len(data)))
	resolve(&ws.rx, func() *obs.Counter {
		return t.reg.CounterWith("fleet.wire_bytes", obs.Labels{"worker": strconv.Itoa(wi), "dir": "rx"})
	}).Add(int64(len(data)))
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		if out == nil {
			return nil
		}
		if bu, ok := out.(encoding.BinaryUnmarshaler); ok {
			err = bu.UnmarshalBinary(data)
		} else {
			err = json.Unmarshal(data, out)
		}
		if err != nil {
			return fmt.Errorf("cluster: decoding %s %s: %w", method, path, err)
		}
		return nil
	case resp.StatusCode >= 400 && resp.StatusCode < 500 || resp.StatusCode == http.StatusUnprocessableEntity:
		return fail(&protocolError{status: resp.StatusCode, body: string(data)})
	default:
		return fail(fmt.Errorf("cluster: %s %s: status %d", method, path, resp.StatusCode))
	}
}

// backoffDelay is the pure schedule behind sleepBackoff:
// base·2^(attempt−1), capped at max, with ±50% deterministic jitter
// hashed from (seed, worker index, send counter). Extracted so tests
// can pin the exact sequence a fixed seed produces without sleeping.
func backoffDelay(base, max time.Duration, seed uint64, wi int, counter uint64, attempt int) time.Duration {
	d := base << (attempt - 1)
	if d > max {
		d = max
	}
	h := rng.Mix64(seed ^ uint64(wi)<<32 ^ counter)
	frac := 0.5 + float64(h>>11)/float64(1<<53) // [0.5, 1.5)
	return time.Duration(float64(d) * frac)
}

// sleepBackoff waits out backoffDelay for the next send counter —
// reproducible schedules, like everything else in the repo. ml is the
// wire-method label the waited delay is charged to.
func (t *transport) sleepBackoff(ctx context.Context, wi, attempt int, ml string) error {
	d := backoffDelay(t.cfg.BackoffBase, t.cfg.BackoffMax, t.cfg.Seed, wi, t.jitter.Add(1), attempt)
	t.reg.HistogramWith("cluster.rpc_backoff_ns", obs.Labels{"method": ml}).Observe(float64(d.Nanoseconds()))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}
