// Package chaosproxy is an in-process fault-injecting HTTP proxy for
// exercising the cluster robustness layer. It forwards requests to one
// upstream worker and injects failures — added latency, 5xx responses,
// dropped (connection-reset) requests, and a blackhole switch that
// kills the worker from the coordinator's point of view — from a
// deterministic schedule: each request's fate is hashed from the proxy
// seed and a request counter, the same seed-hashed-fates philosophy as
// the modeled fault layer (internal/fault). Two runs over the same
// request sequence inject the same faults.
package chaosproxy

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"mbrim/internal/rng"
)

// Config sets the injection rates. All rates are probabilities in
// [0, 1], evaluated per request in order: drop, error, delay.
type Config struct {
	// Seed drives the deterministic fate schedule.
	Seed uint64
	// DropRate resets the connection without a response — what a
	// crashed or partitioned worker looks like mid-request.
	DropRate float64
	// ErrorRate answers 503 without forwarding.
	ErrorRate float64
	// DelayRate stalls the request by Delay before forwarding.
	DelayRate float64
	Delay     time.Duration
}

// Stats counts what the proxy did.
type Stats struct {
	Requests   int64 `json:"requests"`
	Forwarded  int64 `json:"forwarded"`
	Dropped    int64 `json:"dropped"`
	Errored    int64 `json:"errored"`
	Delayed    int64 `json:"delayed"`
	Blackholed int64 `json:"blackholed"`
}

// Proxy fronts one upstream. Use httptest.NewServer(proxy) or mount it
// on any server; point the coordinator's worker URL at it.
type Proxy struct {
	cfg   Config
	rp    *httputil.ReverseProxy
	seq   atomic.Uint64
	black atomic.Bool
	mu    sync.Mutex
	st    Stats
}

// New builds a proxy for the upstream base URL.
func New(upstream string, cfg Config) (*Proxy, error) {
	u, err := url.Parse(upstream)
	if err != nil {
		return nil, fmt.Errorf("chaosproxy: upstream %q: %w", upstream, err)
	}
	p := &Proxy{cfg: cfg}
	p.rp = &httputil.ReverseProxy{
		Rewrite: func(r *httputil.ProxyRequest) { r.SetURL(u) },
		ErrorHandler: func(w http.ResponseWriter, _ *http.Request, _ error) {
			w.WriteHeader(http.StatusBadGateway)
		},
	}
	return p, nil
}

// Blackhole toggles total loss: while set, every request (heartbeats
// included) is dropped — the coordinator's view of a dead worker. The
// chaos harness flips this at a chosen epoch to stage a worker kill.
func (p *Proxy) Blackhole(on bool) { p.black.Store(on) }

func (p *Proxy) count(f func(*Stats)) {
	p.mu.Lock()
	f(&p.st)
	p.mu.Unlock()
}

// fate draws this request's uniform in [0, 1).
func (p *Proxy) fate(seq uint64) float64 {
	h := rng.Mix64(p.cfg.Seed ^ seq)
	return float64(h>>11) / float64(1<<53)
}

// drop severs the connection without a response. Hijack gives a raw
// close (RST-like from the client's view); non-hijackable writers
// (e.g. HTTP/2) fall back to panicking with ErrAbortHandler, which
// also aborts the response without a reply.
func (p *Proxy) drop(w http.ResponseWriter, _ *http.Request) {
	if hj, ok := w.(http.Hijacker); ok {
		conn, _, err := hj.Hijack()
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetLinger(0) // RST instead of FIN
			}
			conn.Close()
			return
		}
	}
	panic(http.ErrAbortHandler)
}

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	seq := p.seq.Add(1)
	p.count(func(s *Stats) { s.Requests++ })
	if p.black.Load() {
		p.count(func(s *Stats) { s.Blackholed++ })
		io.Copy(io.Discard, r.Body)
		p.drop(w, r)
		return
	}
	u := p.fate(seq)
	switch {
	case u < p.cfg.DropRate:
		p.count(func(s *Stats) { s.Dropped++ })
		io.Copy(io.Discard, r.Body)
		p.drop(w, r)
		return
	case u < p.cfg.DropRate+p.cfg.ErrorRate:
		p.count(func(s *Stats) { s.Errored++ })
		io.Copy(io.Discard, r.Body)
		http.Error(w, "chaosproxy: injected failure", http.StatusServiceUnavailable)
		return
	case u < p.cfg.DropRate+p.cfg.ErrorRate+p.cfg.DelayRate && p.cfg.Delay > 0:
		p.count(func(s *Stats) { s.Delayed++ })
		select {
		case <-time.After(p.cfg.Delay):
		case <-r.Context().Done():
			return
		}
	}
	p.count(func(s *Stats) { s.Forwarded++ })
	p.rp.ServeHTTP(w, r)
}
