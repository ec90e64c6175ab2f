// Package runs is the live operations plane's run manager: it
// registers every in-flight core.Solve under a run ID, retains the run's
// recent obs.Tracer events — the one store that replay and the live SSE
// tail both page by ordinal — folds them once — in a diag.Reducer,
// whose Progress is the live view GET /runs/{id} shows and whose
// Snapshot is /diag — and keeps the terminal state — outcome, error,
// checkpoint bytes — for later retrieval. The HTTP surface in this
// package (http.go) is what cmd/mbrimd serves.
//
// A Manager owns a set of Runs. Submitting puts two sinks in front of
// any caller-supplied tracer, behind one wall stamp (obs.StampWall, so
// both see the same WallNS for the same event): a bounded Ring (replay
// and the live tail, which never blocks the solve: a reader that falls
// behind the ring sees a jump in ids) and the diag.Reducer. The package
// implements no Tracer of its own. The solve itself executes on a
// goroutine under a per-run context, so cancellation — and, for the
// engines with the Resume capability, the checkpoint carried by the
// resulting InterruptedError — flows through the PR 3 lifecycle
// machinery unchanged.
//
// It is the daemon's only run plane. Whatever the engine registry can
// solve is a run here, a solve spread over cluster workers included
// (engine "cluster", registered by internal/cluster, which imports this
// package and not the other way round); /cluster/runs, the prefix that
// engine's runs used to have a manager of their own behind, is an alias
// of /runs served by the same handlers (http.go).
package runs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mbrim/internal/checkpoint"
	"mbrim/internal/core"
	"mbrim/internal/diag"
	"mbrim/internal/journal"
	"mbrim/internal/obs"
)

// State is a run's lifecycle phase.
type State string

// The run lifecycle. Pending covers the window between registration
// and the solve goroutine starting; Queued means admission accepted
// the run but MaxActive runs are executing — it dispatches when a slot
// frees. Interrupted means the run was cancelled and holds its
// best-so-far outcome (plus, for multichip engines, downloadable
// checkpoint bytes).
const (
	StatePending     State = "pending"
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateCompleted   State = "completed"
	StateInterrupted State = "interrupted"
	StateFailed      State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateInterrupted || s == StateFailed
}

// OutcomeSummary is the JSON-friendly projection of a core.Outcome —
// the solution metadata without the spin vector (which can be large;
// fetch it via the full outcome if needed).
type OutcomeSummary struct {
	Energy  float64            `json:"energy"`
	Cut     float64            `json:"cut,omitempty"`
	ModelNS float64            `json:"modelNS,omitempty"`
	WallNS  int64              `json:"wallNS"`
	Spins   int                `json:"spins"`
	Backend string             `json:"backend,omitempty"`
	Stats   map[string]float64 `json:"stats,omitempty"`
}

// summarize projects an outcome onto its summary: what GET /runs/{id}
// serves and the journal's terminal record keeps.
func summarize(o *core.Outcome) *OutcomeSummary {
	return &OutcomeSummary{
		Energy:  o.Energy,
		Cut:     o.Cut,
		ModelNS: o.ModelNS,
		WallNS:  o.Wall.Nanoseconds(),
		Spins:   len(o.Spins),
		Backend: o.Backend,
		Stats:   o.Stats,
	}
}

// Status is a run's externally visible state: what GET /runs/{id}
// returns.
type Status struct {
	ID            string          `json:"id"`
	State         State           `json:"state"`
	Engine        string          `json:"engine"`
	Spins         int             `json:"spins"`
	Seed          uint64          `json:"seed"`
	CreatedWallNS int64           `json:"createdWallNS"`
	EndedWallNS   int64           `json:"endedWallNS,omitempty"`
	Progress      diag.Progress   `json:"progress"`
	Outcome       *OutcomeSummary `json:"outcome,omitempty"`
	Error         string          `json:"error,omitempty"`
	HasCheckpoint bool            `json:"hasCheckpoint"`
	// Admission/supervision ledger: queue priority, time spent queued
	// (live while queued, final once dispatched), dispatch wall time,
	// the enforcement deadline, and supervised restarts survived.
	Priority       int   `json:"priority,omitempty"`
	QueueWaitNS    int64 `json:"queueWaitNS,omitempty"`
	StartedWallNS  int64 `json:"startedWallNS,omitempty"`
	DeadlineWallNS int64 `json:"deadlineWallNS,omitempty"`
	Restarts       int   `json:"restarts,omitempty"`
}

// Run is one registered solve. All mutable state is behind mu; the
// solve goroutine touches it concurrently with HTTP readers. The event
// sinks (ring, diag) carry their own locks.
type Run struct {
	id  string
	mgr *Manager
	// req is the request as submitted; spins its problem size, which
	// outlives the model release drops.
	req   core.Request
	spins int
	ring  *obs.Ring
	diag  *diag.Reducer
	// done closes when the solve goroutine finished and the terminal
	// state is readable.
	done   chan struct{}
	cancel context.CancelFunc
	// rctx is the run's lifetime context (cancel + optional deadline);
	// dispatch checks it before spending a slot on a dead run.
	rctx context.Context
	// execReq is the request with the manager's sinks wired in, kept so
	// a queued run can dispatch later.
	execReq  core.Request
	priority int
	deadline time.Time

	mu         sync.Mutex
	state      State
	created    time.Time
	queuedAt   time.Time
	started    time.Time
	ended      time.Time
	queueWait  time.Duration
	restarts   int
	outcome    *core.Outcome
	err        error
	checkpoint []byte
	// lastRef points at the newest durable checkpoint file (periodic
	// persistence); summary carries a recovered terminal outcome for
	// journal tombstones whose full outcome died with the old process.
	lastRef *checkpoint.Ref
	ckptSeq int
	summary *OutcomeSummary
	// recovered marks such a tombstone: terminal from birth, no stream.
	recovered bool
}

// ID returns the run's identifier.
func (r *Run) ID() string { return r.id }

// Done returns a channel closed when the run reaches a terminal state.
func (r *Run) Done() <-chan struct{} { return r.done }

// Recent returns the retained recent events, oldest first.
func (r *Run) Recent() []obs.Event { return r.ring.Events() }

// EventsSince returns the retained events with emission ordinal > seq,
// oldest first, plus the ordinal of the first returned event (see
// obs.Ring.EventsSince) — the page the SSE tail reads.
func (r *Run) EventsSince(seq int64) ([]obs.Event, int64) { return r.ring.EventsSince(seq) }

// EventsTotal returns how many trace events the run has emitted,
// including any already evicted from the retention ring.
func (r *Run) EventsTotal() int64 { return r.ring.Total() }

// Diag returns the live diagnostics snapshot assembled from the run's
// event stream: trajectory analytics, chip-pair disagreement, traffic
// attribution and the TTS estimate. See internal/diag.
func (r *Run) Diag() diag.Snapshot { return r.diag.Snapshot() }

// Cancel requests cancellation; the engine stops at its next natural
// boundary, and a still-queued run is shed immediately (state
// interrupted) without ever consuming an execution slot. Safe to call
// in any state.
func (r *Run) Cancel() {
	r.cancel()
	if r.mgr != nil {
		r.mgr.shedIfQueued(r)
	}
}

// Checkpoint returns the serialized resume envelope captured when the
// run was interrupted, or nil.
func (r *Run) Checkpoint() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.checkpoint
}

// Outcome returns the terminal outcome (full, including spins) and
// error. Before the run finishes both are nil.
func (r *Run) Outcome() (*core.Outcome, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.outcome, r.err
}

// Status snapshots the run's externally visible state.
func (r *Run) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		ID:            r.id,
		State:         r.state,
		Engine:        string(r.req.Kind),
		Seed:          r.req.Seed,
		CreatedWallNS: r.created.UnixNano(),
		Progress:      r.diag.Progress(),
		HasCheckpoint: len(r.checkpoint) > 0,
	}
	// The stream's phase runs "" → annealing (RunStart) → done (RunEnd);
	// what it cannot say is the run state's to say: where a run waits
	// before its first event, and how one that never reached RunEnd ended.
	switch phase := &st.Progress.Phase; {
	case r.recovered:
		*phase = "recovered"
	case r.state.Terminal() && *phase != "done":
		*phase = string(r.state)
	case *phase != "":
	case r.state == StateQueued:
		*phase = "queued"
	default:
		*phase = "submitted"
	}
	st.Spins = r.spins
	if !r.ended.IsZero() {
		st.EndedWallNS = r.ended.UnixNano()
	}
	st.Priority = r.priority
	st.Restarts = r.restarts
	if !r.deadline.IsZero() {
		st.DeadlineWallNS = r.deadline.UnixNano()
	}
	if !r.started.IsZero() {
		st.StartedWallNS = r.started.UnixNano()
	}
	switch {
	case r.queueWait > 0:
		st.QueueWaitNS = r.queueWait.Nanoseconds()
	case r.state == StateQueued:
		st.QueueWaitNS = time.Since(r.queuedAt).Nanoseconds()
	}
	if r.outcome == nil && r.summary != nil {
		// A journal tombstone: the full outcome died with the previous
		// process, but its recorded summary survives replay.
		s := *r.summary
		st.Outcome = &s
	}
	if r.outcome != nil {
		st.Outcome = summarize(r.outcome)
	}
	if r.err != nil {
		st.Error = r.err.Error()
	}
	return st
}

// Config parameterizes a Manager.
type Config struct {
	// Registry receives the manager's own instruments and is the
	// default Metrics for submitted requests. Nil disables both.
	Registry *obs.Registry
	// RingSize bounds the per-run recent-event buffer. Default 4096.
	RingSize int
	// MaxActive bounds concurrently executing runs. Beyond it, Submit
	// queues (when MaxQueued > 0) or returns ErrBusy. 0 means
	// unlimited.
	MaxActive int
	// MaxQueued bounds the admission queue behind MaxActive. 0 keeps
	// the historical behavior — saturate and reject with ErrBusy; a
	// positive value accepts up to that many queued runs and sheds the
	// rest with *QueueFullError (HTTP 429 + Retry-After).
	MaxQueued int
	// MaxSpins bounds submitted problem sizes at the HTTP boundary.
	// 0 applies DefaultMaxSpins.
	MaxSpins int
	// MaxRunBytes, when positive, rejects submissions whose estimated
	// resident footprint (see runShape.estimate) exceeds it.
	MaxRunBytes int64
	// Journal, when set, receives a durable record of each run
	// transition replay reads (submit/checkpoint/restart/terminal); StateDir
	// is where periodic checkpoints persist (a "checkpoints" subdir).
	// Both set enables crash recovery via Recover.
	Journal *journal.Writer
	// StateDir is the durability root shared with the journal.
	StateDir string
	// CheckpointEvery is the cadence of periodic durable checkpoints
	// for checkpointable (multichip) engines. 0 disables periodic
	// persistence (interrupt checkpoints still persist on drain).
	CheckpointEvery time.Duration
	// RetainRuns, when positive, bounds how many terminal runs stay
	// registered: each time a run finishes, the oldest terminal runs
	// beyond the bound are evicted — their rings and reducers freed,
	// their IDs gone from the HTTP surface. The metrics registry holds
	// no per-run series, so retention bounds memory, not cardinality.
	// Live runs never count against the bound, and durable interrupt
	// checkpoints on disk are kept — the eviction is an in-memory
	// retention policy, not a durability one. 0 retains everything.
	RetainRuns int
}

// DefaultMaxSpins bounds the problem size accepted over HTTP when the
// manager does not configure its own limit.
const DefaultMaxSpins = 1 << 16

// ErrBusy reports that MaxActive runs are already executing.
var ErrBusy = errors.New("runs: manager at capacity")

// ErrNotFound reports an unknown run ID.
var ErrNotFound = errors.New("runs: no such run")

// Manager registers and executes runs.
type Manager struct {
	cfg Config
	reg *obs.Registry

	// accepting gates new submissions; the daemon flips it false while
	// replaying the journal and during drain.
	accepting atomic.Bool

	mu       sync.Mutex
	runs     map[string]*Run
	order    []string
	seq      int
	active   int
	queue    []*Run  // admitted, waiting for a slot (priority, then FIFO)
	wallEWMA float64 // smoothed run wall seconds, feeds Retry-After
}

// NewManager returns a manager with the given configuration.
func NewManager(cfg Config) *Manager {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 4096
	}
	if cfg.MaxSpins <= 0 {
		cfg.MaxSpins = DefaultMaxSpins
	}
	m := &Manager{cfg: cfg, reg: cfg.Registry, runs: map[string]*Run{}}
	m.accepting.Store(true)
	m.initStateDir()
	if m.reg != nil {
		m.reg.SetHelp("runs.active", "Solves currently executing under the run manager.")
		m.reg.SetHelp("runs.submitted", "Runs accepted by the run manager since start.")
		m.reg.SetHelp("runs.finished", "Runs reaching a terminal state, by engine and state.")
		m.reg.SetHelp("runs.wall_ns", "Wall-clock duration of finished runs, by engine.")
		m.reg.SetHelp("runs.queue_depth", "Runs waiting in the admission queue.")
		m.reg.SetHelp("runs.queue_wait_ns", "Admission-queue wait of dispatched runs.")
		m.reg.SetHelp("runs.queue_rejected_total", "Submissions shed with 429: queue at MaxQueued.")
		m.reg.SetHelp("runs.shed_total", "Runs shed for an expired deadline.")
		m.reg.SetHelp("runs.rejected_too_large_total", "Submissions refused by the memory-budget check.")
		m.reg.SetHelp("runs.restarts_total", "Supervised restart-once recoveries after an engine panic.")
		m.reg.SetHelp("runs.checkpoints_persisted_total", "Durable periodic checkpoints written.")
		m.reg.SetHelp("runs.evicted_total", "Terminal runs evicted by the retention bound.")
	}
	return m
}

// SetAccepting opens or closes the submission gate. While closed,
// Submit returns ErrNotAccepting (HTTP 503); runs already admitted
// keep executing. The daemon closes the gate during journal replay
// and drain.
func (m *Manager) SetAccepting(v bool) { m.accepting.Store(v) }

// Submit registers req and starts solving it on a goroutine. The
// request's Tracer is composed with the run's progress, replay and
// fan-out sinks; its Metrics defaults to the manager's registry.
// Equivalent to SubmitWith with zero options.
func (m *Manager) Submit(ctx context.Context, req core.Request) (*Run, error) {
	return m.SubmitWith(ctx, req, SubmitOptions{})
}

// execute runs the solve and publishes the terminal state.
func (m *Manager) execute(ctx context.Context, r *Run, req core.Request) {
	// Panic isolation: core.SolveCtx already converts engine panics
	// into *core.PanicError, so anything reaching this recover is a
	// manager-layer bug — contain it to the run instead of killing the
	// daemon.
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			m.finish(r, req, start, nil, fmt.Errorf("runs: run goroutine panic: %v", p))
		}
	}()

	r.mu.Lock()
	r.state = StateRunning
	now := time.Now()
	r.started = now
	if !r.queuedAt.IsZero() {
		r.queueWait = now.Sub(r.queuedAt)
	}
	wait := r.queueWait
	r.mu.Unlock()
	if wait > 0 {
		// Make the wait attributable: a synthetic span in the run's own
		// event stream (diag folds it into the snapshot) plus the
		// aggregate histogram.
		emitQueueWait(req.Tracer, wait)
		m.reg.Histogram("runs.queue_wait_ns").Observe(float64(wait.Nanoseconds()))
	}
	out, err := m.supervisedSolve(ctx, r, req)
	m.finish(r, req, start, out, err)
}

// finish publishes a run's terminal state exactly once: the released
// request, the journal terminal record (and, for interrupts, the final
// durable checkpoint), metrics, the closed live tail, the next dispatch.
func (m *Manager) finish(r *Run, req core.Request, start time.Time, out *core.Outcome, err error) {
	r.mu.Lock()
	if r.state.Terminal() {
		r.mu.Unlock()
		return
	}
	r.ended = time.Now()
	var intr *core.InterruptedError
	switch {
	case err == nil:
		r.state = StateCompleted
		r.outcome = out
	case errors.As(err, &intr):
		r.state = StateInterrupted
		r.outcome = intr.Outcome
		r.checkpoint = intr.Checkpoint
		r.err = err
	default:
		r.state = StateFailed
		r.err = err
	}
	r.release()
	state := r.state
	ck := r.checkpoint
	r.mu.Unlock()

	m.mu.Lock()
	m.active--
	m.observeWallLocked(time.Since(start))
	m.mu.Unlock()
	m.reg.Gauge("runs.active").Add(-1)
	m.reg.CounterWith("runs.finished", obs.Labels{
		"engine": string(req.Kind), "state": string(state)}).Inc()
	m.reg.HistogramWith("runs.wall_ns", obs.Labels{"engine": string(req.Kind)}).
		Observe(float64(time.Since(start).Nanoseconds()))
	// Durable tail: an interrupt's final checkpoint (the drain path —
	// restart resumes from it), then the terminal record.
	if state == StateInterrupted && len(ck) > 0 && m.durable() {
		m.persistCheckpoint(r, ck)
	}
	m.journalTerminal(r, state)
	if state == StateCompleted {
		m.dropCheckpointFile(r)
	}
	// Release the run's cancel context, then signal terminal state: the
	// live tail sends its last page and ends.
	r.cancel()
	close(r.done)
	m.dispatch()
	m.evictExpired()
}

// release lets go of what only the solve read — the model, its graph,
// the request wired to the sinks — and of the ring slots the run did not
// fill: a terminal run answers from its outcome, events, diag, spins and
// req's Kind and Seed. Every terminal path calls it, with r.mu held.
func (r *Run) release() {
	r.req.Model, r.req.Graph, r.execReq = nil, nil, core.Request{}
	r.ring.Trim()
}

// evictExpired enforces Config.RetainRuns: the oldest terminal runs
// beyond the bound are deregistered. Live and queued runs never count
// against the bound.
func (m *Manager) evictExpired() {
	if m.cfg.RetainRuns <= 0 {
		return
	}
	m.mu.Lock()
	terminal := make([]string, 0, len(m.order))
	for _, id := range m.order {
		r := m.runs[id]
		if r == nil {
			continue
		}
		r.mu.Lock()
		if r.state.Terminal() {
			terminal = append(terminal, id)
		}
		r.mu.Unlock()
	}
	evicted := max(len(terminal)-m.cfg.RetainRuns, 0)
	for _, id := range terminal[:evicted] {
		delete(m.runs, id)
	}
	if evicted > 0 {
		keep := m.order[:0]
		for _, id := range m.order {
			if _, ok := m.runs[id]; ok {
				keep = append(keep, id)
			}
		}
		m.order = keep
	}
	m.mu.Unlock()
	m.reg.Counter("runs.evicted_total").Add(int64(evicted))
}

// Get returns the run with the given ID.
func (m *Manager) Get(id string) (*Run, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[id]
	return r, ok
}

// List snapshots every run's status in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	order := append([]string(nil), m.order...)
	runs := make([]*Run, 0, len(order))
	for _, id := range order {
		runs = append(runs, m.runs[id])
	}
	m.mu.Unlock()
	out := make([]Status, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Status())
	}
	return out
}

// CancelAll cancels every non-terminal run and returns their IDs,
// sorted — the drain step of a graceful shutdown. Queued runs are shed
// immediately (they will never get a slot during a drain); executing
// runs stop at their next engine boundary.
func (m *Manager) CancelAll() []string {
	m.mu.Lock()
	queued := m.queue
	m.queue = nil
	m.gaugeQueueDepthLocked()
	var cancelled []string
	for id, r := range m.runs {
		r.mu.Lock()
		terminal := r.state.Terminal()
		r.mu.Unlock()
		if !terminal {
			r.cancel()
			cancelled = append(cancelled, id)
		}
	}
	m.mu.Unlock()
	for _, r := range queued {
		m.finishQueued(r, StateInterrupted, errors.New("runs: cancelled while queued"))
	}
	sort.Strings(cancelled)
	return cancelled
}

// Wait blocks until every registered run reaches a terminal state or
// the context expires; it reports whether the drain completed.
func (m *Manager) Wait(ctx context.Context) bool {
	m.mu.Lock()
	runs := make([]*Run, 0, len(m.runs))
	for _, r := range m.runs {
		runs = append(runs, r)
	}
	m.mu.Unlock()
	for _, r := range runs {
		select {
		case <-r.Done():
		case <-ctx.Done():
			return false
		}
	}
	return true
}
