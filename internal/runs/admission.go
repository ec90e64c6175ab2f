package runs

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"mbrim/internal/core"
	"mbrim/internal/diag"
	"mbrim/internal/graph"
	"mbrim/internal/journal"
	"mbrim/internal/lattice"
	"mbrim/internal/multichip"
	"mbrim/internal/obs"
	"mbrim/internal/portfolio"
)

// This file is the admission layer: the bounded queue behind
// MaxActive, priority-then-FIFO dispatch, per-run deadline and
// memory-budget checks, and the overload-shedding error taxonomy the
// HTTP surface maps onto 429/413/503. The policy in one line: admit
// cheaply or reject cheaply — a shed submission costs one lock
// acquisition and no allocation of run machinery.

// ErrNotAccepting reports the submission gate is closed — the daemon
// is replaying its journal after a restart, or draining for shutdown.
var ErrNotAccepting = errors.New("runs: not accepting submissions (replaying or draining)")

// QueueFullError sheds a submission: MaxActive runs are executing and
// the admission queue holds MaxQueued more. RetryAfter estimates, in
// seconds, when a slot should free (the HTTP layer sends it verbatim
// as Retry-After on the 429).
type QueueFullError struct {
	Active     int
	Queued     int
	RetryAfter int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("runs: overloaded: %d active, %d queued; retry in ~%ds",
		e.Active, e.Queued, e.RetryAfter)
}

// TooLargeError rejects a submission whose estimated resident
// footprint exceeds the manager's memory budget (HTTP 413).
type TooLargeError struct {
	Estimated int64
	Budget    int64
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("runs: estimated footprint %d bytes exceeds the %d-byte budget",
		e.Estimated, e.Budget)
}

// SubmitOptions carries admission metadata for SubmitWith.
type SubmitOptions struct {
	// Priority orders the admission queue: higher dispatches first,
	// equal priorities dispatch FIFO. Executing runs are never
	// preempted.
	Priority int
	// Deadline, when set, bounds the run's whole life: an expired
	// deadline is refused at submit, sheds a queued run at dispatch,
	// and cancels an executing run (like POST /runs/{id}/cancel).
	Deadline time.Time
	// Spec is the serialized submit body recorded in the journal; a
	// crashed run is rebuilt from it on replay. Runs submitted without
	// one are not replayable and resurface as failed tombstones.
	Spec []byte

	restarts int // replay-internal: restart records already on the journal
}

// requestShape is the shape of a request whose model exists: its layout
// answers for what it stores, and a dispatched race is the field
// portfolio.Dispatch picks from the model's own structure.
func requestShape(req *core.Request) runShape {
	c := req.Model.View(lattice.Auto)
	s := runShape{n: c.N(), nnz: c.NNZ(), model: lattice.Bytes(c), dense: c.Kind() == lattice.Dense}
	if g, ok := req.Graph.(*graph.Graph); ok {
		s.edges = g.M()
	}
	var stats core.StructureStats
	if req.Kind == core.Portfolio && len(req.Portfolio.Entrants) == 0 {
		stats = portfolio.Analyze(req.Model)
	}
	s.solvers = fenceSolvers(req, s.n, req.Chips, stats)
	return s
}

// runShape is what the fence prices a run by.
type runShape struct {
	n, nnz int   // spins and directed couplings
	model  int64 // the bytes the model stores (lattice.Footprint)
	dense  bool  // the model is an n×n matrix, planes or floats
	edges  int   // the parsed edge list kept beside the model
	// solvers are the engines that run over the shared model: one, or a
	// portfolio's entrants (fenceSolvers)
	solvers []solver
}

// solver is one engine over the model: its kind and the chips the fence
// charges this process for.
type solver struct {
	kind  core.Kind
	chips int
}

// storesDense reports whether n spins with nnz directed couplings end
// up in the n×n layout: lattice.Resolve, the rule ising.Builder will
// apply to them — asked here because the fence runs before a model
// exists.
func storesDense(n, nnz int) bool {
	return lattice.Resolve(lattice.Auto, n, nnz) == lattice.Dense
}

// fenceSolvers lists the engines a request runs over its model of n
// spins on chips chips: the request's own engine, or a portfolio's
// entrants — the named ones, else the field portfolio.Dispatch picks
// from stats — and its hand-off stage, priced like one more entrant.
// Each gets the chips entrantRequest gives it, and a multiprocessor
// that names none the engine's default.
func fenceSolvers(req *core.Request, n, chips int, stats core.StructureStats) []solver {
	ents := []core.PortfolioEntrant{{Kind: string(req.Kind)}}
	if req.Kind == core.Portfolio {
		if ents = req.Portfolio.Entrants; len(ents) == 0 {
			ents = portfolio.Dispatch(stats, req.Portfolio.MaxEntrants)
		}
		if h := req.Portfolio.HandOff; h != nil {
			ents = append(slices.Clip(ents), *h)
		}
	}
	out := make([]solver, len(ents))
	for i, e := range ents {
		kind, c := core.Kind(e.Kind), cmp.Or(e.Chips, chips)
		if caps, _ := core.EngineCaps(kind); caps.Resume && c == 0 {
			if cfg, _, err := multichip.Partition(n, multichip.Config{}); err == nil {
				c = cfg.Chips
			}
		}
		out[i] = solver{kind, fenceChips(c, req)}
	}
	return out
}

// fenceChips is the chip count the fence charges this process for:
// chips, unless the request hosts them on cluster workers.
func fenceChips(chips int, req *core.Request) int {
	if len(req.Cluster.Workers) > 0 {
		return 1
	}
	return chips
}

// copiesModel reports whether the engine runs one machine over a float
// copy of the whole model: brim's scaled matrix, bSBM's mat-vec, and a
// multiprocessor with a single chip.
func copiesModel(kind core.Kind) bool {
	switch kind {
	case core.BRIM, core.BSBM, core.MBRIMConcurrent, core.MBRIMBatch, core.MBRIMSequential:
		return true
	}
	return false
}

// estimate approximates a run's resident footprint for the
// admission memory budget: the couplings as the model stores them
// (lattice.Footprint: a ±1 K-graph its planes, 2·n·⌈n/64⌉·8 + 4·n bytes;
// any other dense model 8·n²; compressed rows their lane slots), a
// parsed edge list kept beside the model at 24 bytes an edge, per-spin
// chip state and the run's retained-event ring — and what the engine
// builds on top of the model. A multi-chip request holds the k chips'
// brim machines, each over a scaled float copy of its owned×owned block
// (8·n²/k together for a dense problem, 1/k of the compressed rows for a
// sparse one), and their owned×remote cross columns, 12 bytes an entry,
// (k−1)/k of the entries (of n² for a dense problem: its worst case). A
// single brim machine or bSBM runs on a float copy of the whole model
// (lattice.Floats). A portfolio run pays everything but the shared model
// and the ring once for each entrant, priced as the engine it is — the
// named ones, or the field portfolio.Dispatch picks, and the hand-off —
// and a cluster run is the model and the ring: its chips live on the
// workers. It is an admission fence, not an
// accountant — it exists to refuse the submission that would OOM the
// daemon, not to meter kilobytes. A K-graph is generated straight into
// its planes, with no edge list and no float matrix
// (TestKGraphRequestAllocatesItsMatrix), so {"k":4096} is 4 MB to a
// dSBM and 150 MB of cross columns to four brim chips. Both fence call
// sites reach it through checkBudget.
func (s runShape) estimate(ringSize int) int64 {
	if ringSize <= 0 {
		ringSize = 4096
	}
	const eventBytes = 192 // sizeof(obs.Event), rounded to its alloc class
	n, nnz := int64(s.n), int64(s.nnz)
	floats := s.model // a float copy of the model, brim's and bSBM's
	if s.dense {
		floats, nnz = 8*n*n, n*n
	}
	est := s.model + 24*int64(s.edges) + int64(ringSize)*eventBytes
	for _, v := range s.solvers {
		k := int64(max(v.chips, 1))
		est += 16 * n * k
		switch {
		case k > 1:
			est += floats/k + 12*nnz*(k-1)/k
		case copiesModel(v.kind):
			est += floats
		}
	}
	return est
}

// checkBudget applies the MaxRunBytes fence to a submission of shape s.
// buildRequest calls it BEFORE constructing the model — with 2·len(edges)
// as the bound on nnz, since building an oversized model first would hang
// the submit handler for exactly the request the budget is meant to
// bounce — and with the chip count the engine resolves an omitted one
// to; SubmitWith calls it on the built model, whose layout answers for
// itself, and a caller of SubmitWith says how many chips it wants fenced
// in the request.
func (m *Manager) checkBudget(s runShape) error {
	if m.cfg.MaxRunBytes <= 0 {
		return nil
	}
	if est := s.estimate(m.cfg.RingSize); est > m.cfg.MaxRunBytes {
		m.reg.Counter("runs.rejected_too_large_total").Inc()
		return &TooLargeError{Estimated: est, Budget: m.cfg.MaxRunBytes}
	}
	return nil
}

// SubmitWith registers req under the admission policy in opts. With a
// free MaxActive slot the run starts immediately; with MaxQueued
// headroom it parks in state "queued"; otherwise the submission is
// shed (*QueueFullError, or ErrBusy when no queue is configured).
func (m *Manager) SubmitWith(ctx context.Context, req core.Request, opts SubmitOptions) (*Run, error) {
	if req.Model == nil {
		return nil, fmt.Errorf("runs: request has no model")
	}
	if !m.accepting.Load() {
		return nil, ErrNotAccepting
	}
	if err := m.checkBudget(requestShape(&req)); err != nil {
		return nil, err
	}
	if !opts.Deadline.IsZero() && !time.Now().Before(opts.Deadline) {
		m.reg.Counter("runs.shed_total").Inc()
		return nil, fmt.Errorf("runs: deadline already passed")
	}
	return m.admit(ctx, "", req, opts, false)
}

// admit performs registration under the capacity policy. id is ""
// except on journal replay, which re-registers crashed runs under
// their original IDs (and skips re-journaling the submit — the
// original record is still on the log).
func (m *Manager) admit(ctx context.Context, id string, req core.Request, opts SubmitOptions, fromReplay bool) (*Run, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m.mu.Lock()
	queued := false
	if m.cfg.MaxActive > 0 && m.active >= m.cfg.MaxActive {
		if m.cfg.MaxQueued <= 0 {
			m.mu.Unlock()
			return nil, ErrBusy
		}
		if len(m.queue) >= m.cfg.MaxQueued {
			qerr := &QueueFullError{
				Active:     m.active,
				Queued:     len(m.queue),
				RetryAfter: m.retryAfterLocked(),
			}
			m.mu.Unlock()
			m.reg.Counter("runs.queue_rejected_total").Inc()
			return nil, qerr
		}
		queued = true
	}
	if id == "" {
		m.seq++
		id = "run-" + strconv.Itoa(m.seq)
	}
	var rctx context.Context
	var cancel context.CancelFunc
	if opts.Deadline.IsZero() {
		rctx, cancel = context.WithCancel(ctx)
	} else {
		rctx, cancel = context.WithDeadline(ctx, opts.Deadline)
	}
	r := &Run{
		id:       id,
		mgr:      m,
		req:      req,
		spins:    req.Model.N(),
		ring:     obs.NewRing(m.cfg.RingSize),
		done:     make(chan struct{}),
		cancel:   cancel,
		rctx:     rctx,
		priority: opts.Priority,
		deadline: opts.Deadline,
		restarts: opts.restarts,
		state:    StatePending,
		created:  time.Now(),
	}
	// Every managed run carries the introspection plane: hierarchical
	// span events in the retained stream (GET /runs/{id}/trace
	// exports them as a Chrome trace) and a diagnostics reducer behind
	// GET /runs/{id}/diag. Both are opt-in at the engine layer and
	// trajectory-neutral — a managed solve stays bit-identical to an
	// unmanaged one with the same seed.
	r.diag = diag.New(diag.Config{})
	// One wall stamp at the head of the fan-out, so the ring's events and
	// the reducer's updatedWallNS carry the same wallNS for the same
	// event.
	req.Tracer = obs.StampWall(r.ring, r.diag, req.Tracer)
	req.RunID = id
	req.SpanTrace = true
	req.Diag = true
	if req.Metrics == nil {
		req.Metrics = m.reg
	}
	r.execReq = req
	m.runs[id] = r
	m.order = append(m.order, id)
	if queued {
		r.state = StateQueued
		r.queuedAt = time.Now()
		m.queue = append(m.queue, r)
		m.gaugeQueueDepthLocked()
	} else {
		m.active++
	}
	m.mu.Unlock()

	m.reg.Counter("runs.submitted").Inc()
	if !fromReplay {
		var deadlineNS int64
		if !opts.Deadline.IsZero() {
			deadlineNS = opts.Deadline.UnixNano()
		}
		// Durability ordering: the submit record lands (fsynced) before
		// Submit returns, so any run a client saw accepted survives
		// kill -9 into the replay pass.
		m.journalAppend(journal.Record{
			Type: journal.TypeSubmit, ID: id,
			Spec: opts.Spec, Priority: opts.Priority, DeadlineWallNS: deadlineNS,
		})
	}
	if !queued {
		m.reg.Gauge("runs.active").Add(1)
		go m.execute(rctx, r, r.execReq)
	}
	return r, nil
}

// dispatch drains the queue into free MaxActive slots: highest
// priority first, FIFO within a priority. Runs whose context died
// while queued (cancel or deadline) are shed without consuming a slot.
func (m *Manager) dispatch() {
	for {
		m.mu.Lock()
		if len(m.queue) == 0 || (m.cfg.MaxActive > 0 && m.active >= m.cfg.MaxActive) {
			m.gaugeQueueDepthLocked()
			m.mu.Unlock()
			return
		}
		r := m.popLocked()
		if err := r.rctx.Err(); err != nil {
			m.gaugeQueueDepthLocked()
			m.mu.Unlock()
			if errors.Is(err, context.DeadlineExceeded) {
				m.reg.Counter("runs.shed_total").Inc()
				m.finishQueued(r, StateFailed,
					fmt.Errorf("runs: deadline expired after %s queued", time.Since(r.queuedAt).Round(time.Millisecond)))
			} else {
				m.finishQueued(r, StateInterrupted, errors.New("runs: cancelled while queued"))
			}
			continue
		}
		m.active++
		m.gaugeQueueDepthLocked()
		m.mu.Unlock()
		m.reg.Gauge("runs.active").Add(1)
		go m.execute(r.rctx, r, r.execReq)
	}
}

// popLocked removes and returns the dispatch candidate: the first run
// holding the maximum priority (slice order preserves FIFO within a
// priority). Caller holds m.mu and has checked the queue is non-empty.
func (m *Manager) popLocked() *Run {
	best := 0
	for i := 1; i < len(m.queue); i++ {
		if m.queue[i].priority > m.queue[best].priority {
			best = i
		}
	}
	r := m.queue[best]
	m.queue = append(m.queue[:best], m.queue[best+1:]...)
	return r
}

// shedIfQueued removes r from the queue if it is still there and
// finishes it as interrupted — the Cancel path for queued runs, which
// must terminate promptly instead of waiting for a dispatch slot.
func (m *Manager) shedIfQueued(r *Run) {
	m.mu.Lock()
	found := false
	for i, q := range m.queue {
		if q == r {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			found = true
			break
		}
	}
	m.gaugeQueueDepthLocked()
	m.mu.Unlock()
	if found {
		m.finishQueued(r, StateInterrupted, errors.New("runs: cancelled while queued"))
	}
}

// finishQueued publishes a terminal state for a run that never got a
// slot. Idempotent — dispatch, Cancel and CancelAll can race here.
func (m *Manager) finishQueued(r *Run, state State, err error) {
	r.mu.Lock()
	if r.state.Terminal() {
		r.mu.Unlock()
		return
	}
	r.state = state
	r.err = err
	r.ended = time.Now()
	r.release()
	r.mu.Unlock()
	m.journalTerminal(r, state)
	m.reg.CounterWith("runs.finished", obs.Labels{
		"engine": string(r.req.Kind), "state": string(state)}).Inc()
	r.cancel()
	close(r.done)
}

// gaugeQueueDepthLocked refreshes the queue-depth gauge; caller holds
// m.mu.
func (m *Manager) gaugeQueueDepthLocked() {
	m.reg.Gauge("runs.queue_depth").Set(float64(len(m.queue)))
}

// retryAfterLocked estimates when a shed client should come back: the
// queue ahead of it must drain at MaxActive runs per smoothed mean run
// wall time. Clamped to [1, 60] seconds — Retry-After is a hint, not a
// reservation. Caller holds m.mu.
func (m *Manager) retryAfterLocked() int {
	mean := m.wallEWMA
	if mean <= 0 {
		mean = 1
	}
	slots := m.cfg.MaxActive
	if slots < 1 {
		slots = 1
	}
	sec := int(math.Ceil(mean * float64(len(m.queue)+1) / float64(slots)))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// observeWallLocked folds one finished run's wall time into the EWMA
// behind Retry-After. Caller holds m.mu.
func (m *Manager) observeWallLocked(wall time.Duration) {
	s := wall.Seconds()
	if m.wallEWMA == 0 {
		m.wallEWMA = s
		return
	}
	m.wallEWMA = 0.8*m.wallEWMA + 0.2*s
}

// queueWaitSpan is the synthetic span ID for admission-queue wait.
// Engine span IDs are small sequential integers; 1<<62 cannot collide.
const queueWaitSpan = uint64(1) << 62

// emitQueueWait injects a queue_wait span into the run's event stream
// so the wait shows up in the trace export and the diag snapshot.
func emitQueueWait(tracer obs.Tracer, wait time.Duration) {
	if tracer == nil {
		return
	}
	now := time.Now().UnixNano()
	tracer.Emit(obs.Event{Kind: obs.SpanStart, Span: queueWaitSpan,
		Label: "queue_wait", WallNS: now - wait.Nanoseconds()})
	tracer.Emit(obs.Event{Kind: obs.SpanEnd, Span: queueWaitSpan,
		Label: "queue_wait", WallNS: now, WallDurNS: wait.Nanoseconds()})
}
