package cluster

// Trace federation: the coordinator-side collector that turns a
// distributed solve's scattered observability into one run-scoped
// view. Two streams feed it:
//
//   - the coordinator's own spans and events, fanned in live;
//   - each worker's span stream, pulled page-by-page from
//     GET /worker/events with obs.Ring.EventsSince cursors — once per
//     checkpoint round plus a final catch-up pull, piggybacking on the
//     cadence the run already pays for instead of adding a poller.
//
// A worker's node-level cluster.worker_* series stay on that worker's
// own /metrics; the coordinator does not copy them.
//
// Every pulled worker event is forwarded, origin-stamped and
// clock-shifted, to Config.Tracer, so the run's own sinks — a run
// manager's ring, SSE tail and diag.Reducer, or the CLI's capture —
// see the workers beside the coordinator. That stream is the federated
// trace: the collector keeps no copy of it. The reducer's fleet view is
// built from it, and obs.WriteChromeTrace renders it (GET
// /runs/{id}/trace, mbrim -span-trace).
//
// The stream is deterministic up to interleaving: pulls land between
// the coordinator's own events wherever the checkpoint cadence puts
// them, but each origin's events arrive in its emission order and every
// field but the two wall-clock ones is deterministic, so a stable sort
// by (model time, origin, span ID, start-before-end) brings any two runs
// of one seeded configuration to the same sequence (the golden test does
// exactly that). Wall stamps from workers are shifted onto the
// coordinator's clock by the offset the /worker/clock handshake
// estimated.
//
// Federation is observability, not control: every fetch is a single
// t.once attempt — no retries, no retry-budget draw — so a flaky or
// dead worker degrades the trace (an eviction gap, counted) but can
// never degrade the solve.

import (
	"context"
	"hash/fnv"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mbrim/internal/obs"
	"mbrim/internal/rng"
)

// deriveTraceID derives the run's trace ID deterministically from the
// solve seed and the run ID, so re-running a seeded solve federates
// under the same trace ID. Never zero (zero means "no trace context").
func deriveTraceID(seed uint64, runID string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(runID))
	id := rng.Mix64(seed ^ h.Sum64())
	if id == 0 {
		id = 1
	}
	return id
}

// federation is the per-run collector state hanging off a Coordinator.
type federation struct {
	traceID uint64
	chips   int
	spans   *obs.Spanner // coordinator-side spans (IDs from 1)
	runSpan obs.Span
	out     obs.Tracer    // Config.Tracer: pulled worker events are forwarded here
	reg     *obs.Registry // Config.Metrics; nil instruments are no-ops

	mu      sync.Mutex
	cursors []int64 // EventsSince cursor per worker
	offsets []int64 // worker wall clock minus coordinator's, ns
}

func newFederation(c Config, runID string, workers int) *federation {
	f := &federation{
		traceID: deriveTraceID(c.Seed, runID),
		chips:   c.Chips,
		out:     c.Tracer,
		reg:     c.Metrics,
		cursors: make([]int64, workers),
		offsets: make([]int64, workers),
	}
	if reg := c.Metrics; reg != nil {
		reg.SetHelp("fleet.pull_wall_ns", "wall time one federation pull round took")
		reg.SetHelp("fleet.pulled_events", "worker trace events the federation collector ingested")
		reg.SetHelp("fleet.model_traffic_bytes", "modeled fabric bytes the run charged (compare fleet.wire_bytes)")
		reg.SetHelp("fleet.dropped_events", "worker ring events evicted before the federation collector pulled them")
	}
	return f
}

// spanBase hands slice s of generation gen a disjoint span-ID range.
// The coordinator allocates from 1 up; each slice incarnation gets its
// own 2³²-wide window, so worker spans never collide with the
// coordinator's or each other's — including across recoveries, where a
// replayed slice re-emits spans for epochs its previous incarnation
// already covered and must not reuse their IDs.
func (f *federation) spanBase(gen, s int) uint64 {
	return (uint64(gen)*uint64(f.chips) + uint64(s) + 1) << 32
}

func (f *federation) setOffset(wi int, off int64) {
	f.mu.Lock()
	f.offsets[wi] = off
	f.mu.Unlock()
}

func (f *federation) cursor(wi int) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cursors[wi]
}

// ingest folds one pulled page from worker wi: filter to this run's
// trace, shift wall stamps onto the coordinator's clock, stamp the
// origin, and forward to the run's tracer. Returns how many events were
// kept.
//
// The page's last ordinal, First+len(Events)−1, is the next cursor; an
// empty page's First is the ring's total plus one, so the same sum is
// the total. Every ordinal between since and the page's first event was
// evicted before this pull.
func (f *federation) ingest(wi int, since int64, page EventsPage) int {
	head := page.First + int64(len(page.Events)) - 1
	f.mu.Lock()
	if gap := page.First - since - 1; gap > 0 {
		f.reg.Counter("fleet.dropped_events").Add(gap)
	}
	if head > f.cursors[wi] {
		f.cursors[wi] = head
	}
	off := f.offsets[wi]
	origin := "w" + strconv.Itoa(wi)
	kept := page.Events[:0]
	for _, e := range page.Events {
		if e.Trace != f.traceID {
			continue // another run's slice on the same worker
		}
		e.WallNS -= off
		e.Origin = origin
		kept = append(kept, e)
	}
	f.mu.Unlock()
	// The caller's sinks run outside the collector's lock.
	if f.out != nil {
		for _, e := range kept {
			f.out.Emit(e)
		}
	}
	return len(kept)
}

// --- Coordinator-side federation driver -----------------------------

// handshakeClocks estimates each live worker's clock offset via
// GET /worker/clock (Cristian's algorithm: offset = remote now minus
// the midpoint of the local send/receive bracket). One attempt per
// worker; a failed handshake leaves the offset at 0 — wall stamps from
// that worker stay on its own clock, which is exactly the pre-fleet
// behavior.
func (co *Coordinator) handshakeClocks(ctx context.Context) {
	for wi := range co.cfg.Workers {
		if !co.tr.alive(wi) {
			continue
		}
		t0 := time.Now().UnixNano()
		var cr ClockResponse
		if err := co.tr.once(ctx, wi, http.MethodGet, "/worker/clock", nil, &cr); err != nil {
			continue
		}
		t1 := time.Now().UnixNano()
		co.fed.setOffset(wi, cr.NowNS-(t0+(t1-t0)/2))
	}
}

// federateRound runs one collection round: pull every live worker's
// event page and record the round's cost as a federation_pull span
// under the run — the pull overhead is itself on the trace it builds.
func (co *Coordinator) federateRound(ctx context.Context) {
	if co.fed == nil {
		return
	}
	start := time.Now()
	kept := 0
	for wi := range co.cfg.Workers {
		if !co.tr.alive(wi) {
			continue
		}
		cur := co.fed.cursor(wi)
		var page EventsPage
		if err := co.tr.once(ctx, wi, http.MethodGet,
			"/worker/events?since="+strconv.FormatInt(cur, 10), nil, &page); err != nil {
			continue
		}
		kept += co.fed.ingest(wi, cur, page)
	}
	wall := time.Since(start).Nanoseconds()
	co.fed.spans.Complete("federation_pull", co.fed.runSpan, -1, co.pos.ModelNS, 0, wall,
		&obs.Event{Count: int64(kept)})
	if m := co.metric(); m != nil {
		m.Histogram("fleet.pull_wall_ns").Observe(float64(wall))
		m.Counter("fleet.pulled_events").Add(int64(kept))
	}
}

// finishFederation closes out the run's trace: a final catch-up pull
// under a private deadline (the run context may already be cancelled)
// and the run span's end.
func (co *Coordinator) finishFederation(res *Result) {
	if co.fed == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*co.cfg.RPCTimeout)
	defer cancel()
	co.federateRound(ctx)
	co.fed.runSpan.End(co.pos.ModelNS, &obs.Event{Count: res.Flips, StallNS: res.StallNS})
	if m := co.metric(); m != nil {
		m.Gauge("fleet.model_traffic_bytes").Set(res.TrafficBytes)
	}
}
