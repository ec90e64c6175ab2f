package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mbrim/internal/cluster"
)

// The cluster layer is measured from both ends of its wire: a counting
// middleware around each worker's mux sees requests, bytes and handler
// time, and a timing transport under the coordinator's HTTP client sees
// how long each RPC took from the caller's side.

// wireCounter is the middleware's ledger for one worker.
type wireCounter struct {
	mu        sync.Mutex
	rpcs      int
	bytes     int64   // request plus response bodies
	handlerNS int64   // time inside the worker's handlers
	stepNS    []int64 // handler time of each step RPC, in arrival order
	lastStep  []byte  // one captured step response, for the encode timing
}

// countingWriter counts (and optionally keeps) a response body.
type countingWriter struct {
	http.ResponseWriter
	n    int64
	keep []byte
	want bool
}

func (c *countingWriter) Write(b []byte) (int, error) {
	c.n += int64(len(b))
	if c.want {
		c.keep = append(c.keep, b...)
	}
	return c.ResponseWriter.Write(b)
}

// countingBody counts a request body as the handler reads it.
type countingBody struct {
	io.ReadCloser
	n int64
}

func (c *countingBody) Read(b []byte) (int, error) {
	n, err := c.ReadCloser.Read(b)
	c.n += int64(n)
	return n, err
}

// newWorkerServer hosts one worker node behind the counting middleware.
func newWorkerServer(wc *wireCounter) *httptest.Server {
	mux := workerMux()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" { // heartbeats are not RPCs
			mux.ServeHTTP(w, r)
			return
		}
		step := strings.HasSuffix(r.URL.Path, "/step")
		body := &countingBody{ReadCloser: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w, want: step}
		t0 := time.Now()
		mux.ServeHTTP(cw, r)
		ns := time.Since(t0).Nanoseconds()
		wc.mu.Lock()
		wc.rpcs++
		wc.bytes += body.n + cw.n
		wc.handlerNS += ns
		if step {
			wc.stepNS = append(wc.stepNS, ns)
			wc.lastStep = cw.keep
		}
		wc.mu.Unlock()
	}))
}

// timingTransport accumulates caller-side RPC time: request sent to
// response body closed.
type timingTransport struct {
	base http.RoundTripper
	ns   atomic.Int64
}

type timedBody struct {
	io.ReadCloser
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	if b.done != nil {
		b.done()
		b.done = nil
	}
	return err
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/healthz" {
		return t.base.RoundTrip(req)
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.ns.Add(time.Since(t0).Nanoseconds())
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.ns.Add(time.Since(t0).Nanoseconds()) }}
	return resp, nil
}

// clusterPassStats sums the wire ledgers over the pass's cluster solves.
type clusterPassStats struct {
	solves                           int
	rpcs, bytes, epochs, retries     float64
	handlerMS, clientMS, stragglerMS float64
}

// clusterSolve runs one distributed solve through cluster.New(...).Solve
// against the pass's workers and folds its wire activity into stats.
func clusterSolve(tp *tracePass, in *solveInput, wires []*wireCounter, workerURLs []string,
	stats *clusterPassStats, check func(path string, energy float64)) error {
	w := tp.w
	type snap struct {
		rpcs  int
		bytes int64
		ns    int64
		steps int
	}
	before := make([]snap, len(wires))
	for k, wc := range wires {
		wc.mu.Lock()
		before[k] = snap{wc.rpcs, wc.bytes, wc.handlerNS, len(wc.stepNS)}
		wc.mu.Unlock()
	}
	tt := &timingTransport{base: http.DefaultTransport}
	co, err := cluster.New(in.inst.m, fmt.Sprintf("bench-%d-%d", in.seed, stats.solves), cluster.Config{
		Workers: workerURLs, Chips: w.chips(), DurationNS: w.durationNS(), Seed: in.seed,
		SampleEveryNS: w.durationNS() / 100, Client: &http.Client{Transport: tt},
	})
	if err != nil {
		return err
	}
	res, _, err := co.Solve(context.Background())
	if err != nil {
		return err
	}
	check("cluster.solve", res.Energy)

	stats.solves++
	stats.epochs += float64(res.Epochs)
	stats.retries += float64(res.Recovery.RPCRetries)
	stats.clientMS += float64(tt.ns.Load()) / 1e6
	steps := make([][]int64, len(wires))
	for k, wc := range wires {
		wc.mu.Lock()
		stats.rpcs += float64(wc.rpcs - before[k].rpcs)
		stats.bytes += float64(wc.bytes - before[k].bytes)
		stats.handlerMS += float64(wc.handlerNS-before[k].ns) / 1e6
		steps[k] = append([]int64(nil), wc.stepNS[before[k].steps:]...)
		wc.mu.Unlock()
	}
	// One slice per worker, so worker k's e-th step is epoch e+1.
	for e := 0; e < res.Epochs; e++ {
		lo, hi := int64(0), int64(0)
		for k := range steps {
			if e >= len(steps[k]) {
				continue
			}
			ns := steps[k][e]
			if lo == 0 || ns < lo {
				lo = ns
			}
			if ns > hi {
				hi = ns
			}
		}
		stats.stragglerMS += float64(hi-lo) / 1e6
	}
	return nil
}

// publish reports the ledgers per solve and per epoch.
func (s *clusterPassStats) publish(tp *tracePass, wires []*wireCounter) {
	n := float64(s.solves)
	tp.set("cluster.rpcs_per_epoch", s.rpcs/s.epochs, "count")
	tp.set("cluster.wire_bytes_per_epoch", s.bytes/s.epochs, "bytes")
	tp.set("cluster.worker_step_ms", s.handlerMS/n, "ms")
	tp.set("cluster.rpc_wait_ms", (s.clientMS-s.handlerMS)/n, "ms")
	tp.set("cluster.straggler_ms", s.stragglerMS/n, "ms")
	tp.set("cluster.retries", s.retries/n, "count")
	wires[0].mu.Lock()
	body := wires[0].lastStep
	wires[0].mu.Unlock()
	var resp cluster.StepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		tp.fail("decoding a captured step response: %v", err)
		return
	}
	enc, _ := medianOf(30, func() error { _, err := json.Marshal(&resp); return err })
	tp.set("cluster.wire_encode_us", enc*1e3, "us")
}
