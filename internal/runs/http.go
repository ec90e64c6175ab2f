package runs

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"mbrim/internal/core"
	"mbrim/internal/graph"
	"mbrim/internal/lattice"
	"mbrim/internal/multichip"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
)

// This file is the operations plane's HTTP surface:
//
//	GET  /engines               registered engines + capabilities
//	POST /runs                  submit a problem (JSON body below)
//	GET  /runs                  list run statuses
//	GET  /runs/{id}             one run's status
//	GET  /runs/{id}/events      SSE live tail of the trace stream
//	GET  /runs/{id}/diag        convergence / partition-quality snapshot
//	GET  /runs/{id}/trace       Chrome trace-event JSON (ui.perfetto.dev)
//	POST /runs/{id}/cancel      context cancellation
//	GET  /runs/{id}/checkpoint  download the resume envelope
//	GET  /runs/{id}/outcome     terminal outcome, spins included
//	GET  /metrics               Prometheus text exposition
//	GET  /metrics.json          expvar-style JSON snapshot
//	GET  /healthz               liveness (always 200 while serving)
//	GET  /readyz                readiness (503 once draining)
//
// Every /runs… route also answers under /cluster/runs…, the prefix the
// cluster fabric's own run manager had: same handlers, table and ids,
// except that POST /cluster/runs defaults the engine to "cluster" and
// GET /cluster/runs/{id} adds that surface's done and result fields.
//
// Everything is stdlib net/http; patterns use Go 1.22+ method routing
// and PathValue.

// SubmitRequest is the POST /runs body. The problem is either a
// generated K-graph (k > 0, seeded by graphSeed) or an explicit edge
// list over n vertices (1-based endpoints, Gset convention). Omitted
// solver knobs inherit the core defaults.
type SubmitRequest struct {
	// Engine is the solver kind (see core.Kinds). Required.
	Engine string `json:"engine"`
	// K generates a seeded complete ±1 graph K_k.
	K int `json:"k,omitempty"`
	// GraphSeed seeds the generated graph (default 1).
	GraphSeed uint64 `json:"graphSeed,omitempty"`
	// N and Edges give an explicit graph: n vertices, [u, v, w] rows
	// with 1-based u, v.
	N     int      `json:"n,omitempty"`
	Edges EdgeList `json:"edges,omitempty"`

	Seed              uint64  `json:"seed,omitempty"`
	Runs              int     `json:"runs,omitempty"`
	Sweeps            int     `json:"sweeps,omitempty"`
	Steps             int     `json:"steps,omitempty"`
	DurationNS        float64 `json:"durationNS,omitempty"`
	Chips             int     `json:"chips,omitempty"`
	EpochNS           float64 `json:"epochNS,omitempty"`
	Coordinated       bool    `json:"coordinated,omitempty"`
	Channels          int     `json:"channels,omitempty"`
	ChannelBytesPerNS float64 `json:"channelBytesPerNS,omitempty"`
	SampleEveryNS     float64 `json:"sampleEveryNS,omitempty"`
	Parallel          bool    `json:"parallel,omitempty"`
	// Priority orders the admission queue when -max-active is
	// saturated: higher dispatches first, ties FIFO. Executing runs are
	// never preempted.
	Priority int `json:"priority,omitempty"`
	// DeadlineMS bounds the run's whole life, queue wait included, in
	// milliseconds from submission. A run that cannot finish in time is
	// shed (queued) or interrupted (executing). 0 means no deadline.
	DeadlineMS int64 `json:"deadlineMS,omitempty"`
	// Portfolio configures the "portfolio" engine: the entrant race
	// field (omit for structure-based auto-dispatch), the first-to-target
	// energy, the race budget and the optional warm-start hand-off stage.
	// Rejected with any other engine.
	Portfolio *core.PortfolioSpec `json:"portfolio,omitempty"`
	// The "cluster" engine's fields, flat in the body (workers, …;
	// rejected with any other engine). chips omitted: one per worker.
	core.ClusterSpec
}

// buildRequest turns a submit body into a core.Request, constructing
// the problem's model. It is the one place a submission is validated:
// whatever is wrong with it is an error here, before a run exists.
func (m *Manager) buildRequest(sr *SubmitRequest) (core.Request, error) {
	kind, err := core.ParseKind(sr.Engine)
	if err != nil {
		return core.Request{}, err
	}
	if sr.Portfolio != nil && kind != core.Portfolio {
		return core.Request{}, fmt.Errorf("runs: a portfolio spec requires engine %q, not %q", core.Portfolio, kind)
	}
	n := sr.K
	switch {
	case sr.K > 0 && len(sr.Edges) > 0:
		return core.Request{}, fmt.Errorf("runs: give k or edges, not both")
	case sr.K > 0:
	case len(sr.Edges) > 0:
		if n = sr.N; n < 2 {
			return core.Request{}, fmt.Errorf("runs: edges need n >= 2 vertices")
		}
	default:
		return core.Request{}, fmt.Errorf("runs: need k > 0 or an edge list")
	}
	if n > m.cfg.MaxSpins {
		return core.Request{}, fmt.Errorf("runs: %d spins exceeds the %d-spin limit", n, m.cfg.MaxSpins)
	}
	req := core.Request{
		Kind:              kind,
		Seed:              sr.Seed,
		Runs:              sr.Runs,
		Sweeps:            sr.Sweeps,
		Steps:             sr.Steps,
		DurationNS:        sr.DurationNS,
		Chips:             sr.Chips,
		EpochNS:           sr.EpochNS,
		Coordinated:       sr.Coordinated,
		Channels:          sr.Channels,
		ChannelBytesPerNS: sr.ChannelBytesPerNS,
		SampleEveryNS:     sr.SampleEveryNS,
		Parallel:          sr.Parallel,
		Cluster:           sr.ClusterSpec,
	}
	if sr.Portfolio != nil {
		req.Portfolio = *sr.Portfolio
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	// Three policies are keyed by capability (Resume — the checkpointable
	// model-time engines, i.e. the multiprocessor, in process or over a
	// cluster), not by name, so a new engine declaring the capability
	// inherits them. The chip geometry the engine would reject, and an
	// epoch count no run finishes, are rejected here, so the client gets a
	// 400 instead of a failed or never-ending run. The memory fence counts
	// the chips the engine will really build — its default when the body
	// names none. And the diagnostics plane (plateau detection, live TTS)
	// needs an energy trajectory, so submissions that don't choose a
	// sampling cadence get ~100 samples over the run by default. Samples
	// are observational; the trajectory stays seed-determined.
	chips := sr.Chips
	if caps, _ := core.EngineCaps(kind); caps.Resume {
		d := sr.DurationNS
		if d == 0 {
			d = 100 // the core default duration
		}
		if chips == 0 {
			chips = len(sr.Workers) // a cluster run's default: one chip per worker
		}
		if chips, err = checkEpochGeometry(n, chips, sr, d); err != nil {
			return req, err
		}
		if req.SampleEveryNS == 0 {
			req.SampleEveryNS = d / 100
		}
	}
	// The fence comes BEFORE the model: building an oversized problem
	// costs the very bytes the fence exists to refuse. A K-graph stores
	// n(n−1) ±1 couplings, its planes; an edge list at most two per edge,
	// priced as floats if dense, since parallel edges sum past ±1, and
	// keeps its parsed graph.
	// A race nobody named is the field portfolio.Dispatch picks at this
	// density.
	s := runShape{n: n, nnz: 2 * len(sr.Edges), edges: len(sr.Edges)}
	if sr.K > 0 {
		s.nnz = n * (n - 1)
	}
	s.model = lattice.Footprint(lattice.Auto, n, s.nnz, sr.K > 0)
	s.dense = storesDense(n, s.nnz)
	stats := core.StructureStats{N: n, NNZ: s.nnz}
	if n > 1 {
		stats.Density = float64(s.nnz) / float64(n*(n-1))
	}
	s.solvers = fenceSolvers(&req, n, chips, stats)
	if err := m.checkBudget(s); err != nil {
		return req, err
	}
	// A K-graph is generated straight into its model, which also reports
	// its cuts; only an edge list is parsed into a graph first.
	if sr.K > 0 {
		kg := graph.NewKGraph(sr.K, rng.New(cmp.Or(sr.GraphSeed, 1)))
		req.Model, req.Graph = kg.Model, kg
	} else {
		g, err := graph.FromTriples(sr.N, sr.Edges)
		if err != nil {
			return req, fmt.Errorf("runs: %w", err)
		}
		req.Model, req.Graph = g.ToIsing(), g
	}
	// What only the engine can judge (a malformed race, a worker list the
	// fabric refuses), through the registry: a 400, not a failed run.
	return req, core.Validate(&req)
}

// maxSubmitEpochs bounds durationNS/epochNS at submit: a run is one
// barrier, one event batch and one ledger row per epoch, and a body
// asking for 10³⁰⁰ of them would hold an admission slot forever. The
// paper's longest runs are a few hundred epochs.
const maxSubmitEpochs = 1e6

// checkEpochGeometry validates a multiprocessor submission of
// durationNS over n spins on chips chips (0: the engine's default)
// against the engine's own rules (multichip.Partition: chips, epoch
// length, channels) and against maxSubmitEpochs, with the engine's
// default epoch applied when the body left it out. It returns the chip
// count the engine resolves to.
func checkEpochGeometry(n, chips int, sr *SubmitRequest, durationNS float64) (int, error) {
	cfg, _, err := multichip.Partition(n, multichip.Config{
		Chips: chips, EpochNS: sr.EpochNS, Channels: sr.Channels,
	})
	if err != nil {
		return 0, fmt.Errorf("runs: %w", err)
	}
	if epochs := durationNS / cfg.EpochNS; epochs > maxSubmitEpochs {
		return 0, fmt.Errorf("runs: durationNS/epochNS is %.3g epochs, above the %.0e-epoch limit", epochs, float64(maxSubmitEpochs))
	}
	return cfg.Chips, nil
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes a JSON error envelope.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxSubmitBody bounds the POST /runs body (explicit edge lists can
// be large, but not unbounded).
const maxSubmitBody = 64 << 20

// Routes registers the run endpoints on mux, under /runs and under the
// /cluster/runs alias (see the file comment for the two differences).
func (m *Manager) Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /engines", m.handleEngines)
	for _, p := range []struct {
		prefix, engine string // engine: the alias's submit default; its status keeps the old fields
	}{{prefix: "/runs"}, {"/cluster/runs", "cluster"}} {
		mux.HandleFunc("POST "+p.prefix, func(w http.ResponseWriter, r *http.Request) { m.handleSubmit(w, r, p.engine) })
		mux.HandleFunc("GET "+p.prefix, m.handleList)
		mux.HandleFunc("GET "+p.prefix+"/{id}", func(w http.ResponseWriter, r *http.Request) { m.handleGet(w, r, p.engine != "") })
		mux.HandleFunc("POST "+p.prefix+"/{id}/cancel", m.handleCancel)
		mux.HandleFunc("GET "+p.prefix+"/{id}/events", m.handleEvents)
		mux.HandleFunc("GET "+p.prefix+"/{id}/checkpoint", m.handleCheckpoint)
		mux.HandleFunc("GET "+p.prefix+"/{id}/diag", m.handleDiag)
		mux.HandleFunc("GET "+p.prefix+"/{id}/trace", m.handleTrace)
		mux.HandleFunc("GET "+p.prefix+"/{id}/outcome", m.handleOutcome)
	}
}

// Mount registers the full operations surface — run endpoints,
// Prometheus and JSON metrics, health and readiness — on mux. ready
// reports readiness (nil means always ready); it flips false when the
// daemon starts draining.
func Mount(mux *http.ServeMux, m *Manager, reg *obs.Registry, ready func() bool) {
	m.Routes(mux)
	mux.Handle("GET /metrics", reg.PromHandler())
	mux.Handle("GET /metrics.json", reg)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Cache-Control", "no-store")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Cache-Control", "no-store")
		if ready != nil && !ready() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
}

// decodeSubmit is the one submit decoder: strict, so a misspelt knob is
// an error and not a default, and so is anything after the body's one
// JSON value. A body it accepts is therefore a spec replay rebuilds the
// run from.
func decodeSubmit(body []byte) (*SubmitRequest, error) {
	var sr SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sr); err != nil {
		return nil, fmt.Errorf("runs: parsing body: %w", err)
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return nil, fmt.Errorf("runs: parsing body: data after the JSON value at offset %d", len(body)-len(rest))
	}
	return &sr, nil
}

// handleSubmit serves POST /runs; engine is the default for a body that
// names none (empty on /runs: the field is required there).
func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request, engine string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("runs: reading body: %w", err))
		return
	}
	sr, err := decodeSubmit(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The journal records the body as received: the strict decoder took
	// every field of it, so replay rebuilds the run from exactly what was
	// submitted. Only a default filled in here is not in the body; then
	// the journal records the request re-marshalled (it cannot fail: a
	// decoded body holds no NaN or infinity).
	spec := body
	if sr.Engine == "" && engine != "" {
		sr.Engine = engine
		spec, _ = json.Marshal(sr)
	}
	req, err := m.buildRequest(sr)
	if err != nil {
		var terr *TooLargeError
		if errors.As(err, &terr) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opts := SubmitOptions{Priority: sr.Priority, Spec: spec}
	if sr.DeadlineMS > 0 {
		opts.Deadline = time.Now().Add(time.Duration(sr.DeadlineMS) * time.Millisecond)
	}
	// The run outlives the submit request: solve under the manager's
	// lifetime, not the HTTP request context.
	run, err := m.SubmitWith(nil, req, opts)
	if err != nil {
		var qerr *QueueFullError
		var terr *TooLargeError
		switch {
		case errors.As(err, &qerr):
			// The overload-shedding contract: 429, with Retry-After
			// estimating the queue's drain time.
			w.Header().Set("Retry-After", strconv.Itoa(qerr.RetryAfter))
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrBusy), errors.Is(err, ErrNotAccepting):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.As(err, &terr):
			writeError(w, http.StatusRequestEntityTooLarge, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, run.Status())
}

// handleEngines serves the registry's view of the available solvers:
// every registered engine with its capability flags. This is derived
// from core's engine registry, not a hard-coded list — an engine
// linked into the daemon (including external registrants like the
// portfolio) appears here automatically.
func (m *Manager) handleEngines(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"engines": core.Engines()})
}

func (m *Manager) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"runs": m.List()})
}

func (m *Manager) handleGet(w http.ResponseWriter, r *http.Request, legacy bool) {
	run, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	st := run.Status()
	if !legacy {
		writeJSON(w, http.StatusOK, st)
		return
	}
	writeJSON(w, http.StatusOK, legacyStatus{Status: st, Done: st.State.Terminal(), Result: legacyResult(st.Outcome)})
}

// legacyStatus is the GET /cluster/runs/{id} body: the status plus the
// two fields the old cluster surface's clients poll.
type legacyStatus struct {
	Status
	Done   bool           `json:"done"`
	Result map[string]any `json:"result,omitempty"`
}

// legacyResult lays an outcome out as the old surface did; nil while
// there is none. elapsedNS is model time with stalls (the outcome's
// modelNS), modelNS without.
func legacyResult(o *OutcomeSummary) map[string]any {
	if o == nil {
		return nil
	}
	res := map[string]any{"energy": o.Energy, "elapsedNS": o.ModelNS, "modelNS": o.Stats["annealNS"]}
	for _, k := range []string{"stallNS", "flips", "bitChanges", "trafficBytes", "epochs", "liveWorkers"} {
		res[k] = o.Stats[k]
	}
	rec := map[string]any{}
	for _, k := range []string{"rpcRetries", "workerDeaths", "recoveries", "replayedEpochs", "handoffBytes", "recoveryStallNS"} {
		rec[k] = o.Stats[k]
	}
	if o.Stats["degraded"] != 0 {
		rec["degraded"] = true
	}
	res["recovery"] = rec
	return res
}

func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	run, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	run.Cancel()
	// Report the state after the cancel landed (the engine may need a
	// moment to reach its next barrier; the client polls the status).
	writeJSON(w, http.StatusAccepted, run.Status())
}

func (m *Manager) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	run, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	st := run.Status()
	if !st.State.Terminal() {
		writeError(w, http.StatusConflict,
			fmt.Errorf("runs: %s is %s; cancel it and wait for the interrupt", run.ID(), st.State))
		return
	}
	ck := run.Checkpoint()
	if len(ck) == 0 {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("runs: %s holds no checkpoint (state %s)", run.ID(), st.State))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", run.ID()+".ckpt"))
	_, _ = w.Write(ck)
}

// OutcomeBody is the GET /runs/{id}/outcome response: the full
// terminal outcome, spin vector included — the bit-identity surface
// the crash-recovery smoke compares against an uninterrupted reference
// run. encoding/json round-trips float64 exactly, so equality of the
// JSON numbers is equality of the bits.
type OutcomeBody struct {
	ID      string             `json:"id"`
	State   State              `json:"state"`
	Engine  string             `json:"engine"`
	Seed    uint64             `json:"seed"`
	Energy  float64            `json:"energy"`
	Cut     float64            `json:"cut,omitempty"`
	ModelNS float64            `json:"modelNS,omitempty"`
	WallNS  int64              `json:"wallNS"`
	Backend string             `json:"backend,omitempty"`
	Stats   map[string]float64 `json:"stats,omitempty"`
	Spins   []int8             `json:"spins"`
	// Portfolio carries the race ledger (winner attribution, per-entrant
	// results) when the run's engine was "portfolio". Nil otherwise.
	Portfolio *core.PortfolioReport `json:"portfolio,omitempty"`
	Error     string                `json:"error,omitempty"`
}

// handleOutcome serves a terminal run's full outcome. 409 while the
// run is live; 404 when no outcome is retained (a failed run, or a
// journal tombstone whose full outcome died with the old process —
// its summary is still on GET /runs/{id}).
func (m *Manager) handleOutcome(w http.ResponseWriter, r *http.Request) {
	run, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	st := run.Status()
	if !st.State.Terminal() {
		writeError(w, http.StatusConflict,
			fmt.Errorf("runs: %s is %s; the outcome lands at a terminal state", run.ID(), st.State))
		return
	}
	out, rerr := run.Outcome()
	if out == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("runs: %s retains no full outcome (state %s)", run.ID(), st.State))
		return
	}
	body := OutcomeBody{
		ID: run.ID(), State: st.State, Engine: st.Engine, Seed: st.Seed,
		Energy: out.Energy, Cut: out.Cut, ModelNS: out.ModelNS,
		WallNS: out.Wall.Nanoseconds(), Backend: out.Backend,
		Stats: out.Stats, Spins: out.Spins, Portfolio: out.Portfolio,
	}
	if rerr != nil {
		body.Error = rerr.Error()
	}
	writeJSON(w, http.StatusOK, body)
}

// handleDiag serves the run's live diagnostics snapshot: energy
// trajectory analytics (plateau, improvement rate, best staleness),
// per chip-pair shadow disagreement, traffic/stall attribution, and
// the live TTS estimate with Wilson confidence bounds. Works in any
// run state; the view simply reflects the events seen so far.
func (m *Manager) handleDiag(w http.ResponseWriter, r *http.Request) {
	run, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, run.Diag())
}

// handleTrace exports the run's retained events as Chrome trace-event
// JSON — load the download in ui.perfetto.dev (or chrome://tracing)
// for the span hierarchy, energy/fabric counters and fault instants.
// The ring bounds retention: for long runs the trace covers the most
// recent window, not the whole solve.
func (m *Manager) handleTrace(w http.ResponseWriter, r *http.Request) {
	run, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", run.ID()+".trace.json"))
	_ = obs.WriteChromeTrace(w, run.Recent())
}

// handleEvents streams the run's trace as Server-Sent Events: each
// event is one `event: trace` message carrying the obs.Event JSON,
// with an `id:` line holding the event's emission ordinal in the run's
// ring. The stream pages the ring from a cursor, so ids are exact and
// consecutive; a client that falls behind the ring sees a jump in ids,
// which is how many events it missed.
//
// The cursor starts after Last-Event-ID (per the SSE spec; ?lastEventID=N
// works too), else N events back from the head for ?replay=N, else at
// the head. The stream ends with `event: done` carrying the final
// status once the run is terminal.
func (m *Manager) handleEvents(w http.ResponseWriter, r *http.Request) {
	run, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError,
			fmt.Errorf("runs: response writer cannot stream"))
		return
	}
	// An SSE stream lives as long as the client listens. Clear this
	// connection's read deadline so a server-wide ReadTimeout (set by
	// mbrimd to fence regular endpoints) cannot reap the stream
	// mid-tail; errors are ignored because not every transport supports
	// deadlines, and those that don't impose none.
	_ = http.NewResponseController(w).SetReadDeadline(time.Time{})
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush() // the client holds a stream before the run emits

	send := func(kind string, id int64, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if id > 0 {
			if _, err := fmt.Fprintf(w, "id: %d\n", id); err != nil {
				return false
			}
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", kind, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	cursor := int64(-1)
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n >= 0 {
			cursor = n
		}
	} else if v := r.URL.Query().Get("lastEventID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n >= 0 {
			cursor = n
		}
	}
	switch total := run.EventsTotal(); {
	case cursor < 0:
		cursor = max(total-int64(atoiDefault(r.URL.Query().Get("replay"), 0)), 0)
	case cursor > total: // an id this run has not sent
		cursor = total
	}
	// A run that is done emits no more, so the page read after Done
	// closed is the last.
	for finished := false; ; {
		events, first := run.EventsSince(cursor)
		for i, e := range events {
			if cursor = first + int64(i); !send("trace", cursor, e) {
				return
			}
		}
		if finished {
			send("done", 0, run.Status())
			return
		}
		select {
		case <-run.ring.Changed(cursor):
		case <-run.Done():
			finished = true
		case <-r.Context().Done():
			return
		}
	}
}

// atoiDefault parses s as a non-negative int, returning def on any
// failure.
func atoiDefault(s string, def int) int {
	if s == "" {
		return def
	}
	var n int
	if _, err := fmt.Sscanf(s, "%d", &n); err != nil || n < 0 {
		return def
	}
	return n
}
