package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/journal"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
)

// Manager hosts the coordinator API — the service half of `mbrim
// -cluster`, mounted into mbrimd next to the runs surface:
//
//	POST   /cluster/runs                 start a distributed solve
//	GET    /cluster/runs                 list runs
//	GET    /cluster/runs/{id}            status (result when finished)
//	POST   /cluster/runs/{id}/cancel     cancel; checkpoint kept
//	GET    /cluster/runs/{id}/checkpoint interrupt-checkpoint envelope
//	GET    /cluster/runs/{id}/trace      merged Perfetto trace (federated runs)
//	GET    /cluster/runs/{id}/diag       fleet diagnostics (federated runs)
type Manager struct {
	reg      *obs.Registry
	tracer   obs.Tracer
	maxSpins int
	jw       *journal.Writer
	// client carries every run's RPCs and heartbeats: one keep-alive
	// pool for the manager's lifetime, so back-to-back solves reuse their
	// connections to the workers and a finishing run closes nobody's.
	client *http.Client

	mu   sync.Mutex
	next int
	runs map[string]*clusterRun
}

type clusterRun struct {
	mu       sync.Mutex
	id       string
	co       *Coordinator // nil for journal tombstones
	cancel   context.CancelFunc
	done     chan struct{}
	epoch    int
	elapsed  float64
	result   *Result
	envelope []byte
	err      error
}

// DefaultMaxSpins mirrors the runs surface's submission bound.
const DefaultMaxSpins = 65536

// NewManager builds the coordinator service. reg and tracer may be
// nil.
func NewManager(reg *obs.Registry, tracer obs.Tracer, maxSpins int) *Manager {
	if maxSpins <= 0 {
		maxSpins = DefaultMaxSpins
	}
	return &Manager{reg: reg, tracer: tracer, maxSpins: maxSpins, client: newKeepAliveClient(),
		runs: make(map[string]*clusterRun)}
}

// SetJournal routes submit and terminal records for cluster runs
// through the same durable journal the runs surface writes. Call
// before serving traffic; nil leaves journaling off.
func (m *Manager) SetJournal(jw *journal.Writer) { m.jw = jw }

func (m *Manager) journalAppend(rec journal.Record) {
	if m.jw == nil {
		return
	}
	rec.Scope = journal.ScopeCluster
	_ = m.jw.Append(rec) // durability failures never fail the run; Append counts them
}

// Routes registers the coordinator endpoints on mux.
func (m *Manager) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /cluster/runs", m.handleSubmit)
	mux.HandleFunc("GET /cluster/runs", m.handleList)
	mux.HandleFunc("GET /cluster/runs/{id}", m.handleStatus)
	mux.HandleFunc("POST /cluster/runs/{id}/cancel", m.handleCancel)
	mux.HandleFunc("GET /cluster/runs/{id}/checkpoint", m.handleCheckpoint)
	mux.HandleFunc("GET /cluster/runs/{id}/trace", m.handleTrace)
	mux.HandleFunc("GET /cluster/runs/{id}/diag", m.handleFleetDiag)
}

// SubmitRequest is the POST /cluster/runs body. The problem spec (k /
// graphSeed or n / edges) matches the runs surface; the rest maps onto
// Config.
type SubmitRequest struct {
	Workers   []string     `json:"workers"`
	K         int          `json:"k,omitempty"`
	GraphSeed uint64       `json:"graphSeed,omitempty"`
	N         int          `json:"n,omitempty"`
	Edges     [][3]float64 `json:"edges,omitempty"`

	Seed              uint64  `json:"seed,omitempty"`
	Chips             int     `json:"chips,omitempty"`
	DurationNS        float64 `json:"durationNS,omitempty"`
	EpochNS           float64 `json:"epochNS,omitempty"`
	Coordinated       bool    `json:"coordinated,omitempty"`
	Channels          int     `json:"channels,omitempty"`
	ChannelBytesPerNS float64 `json:"channelBytesPerNS,omitempty"`
	SampleEveryNS     float64 `json:"sampleEveryNS,omitempty"`
	Backend           string  `json:"backend,omitempty"`
	CheckpointEvery   int     `json:"checkpointEvery,omitempty"`
	RPCTimeoutMS      int     `json:"rpcTimeoutMS,omitempty"`
	MaxAttempts       int     `json:"maxAttempts,omitempty"`
	RetryBudget       int     `json:"retryBudget,omitempty"`
	// Federate enables fleet observability for the run (Config.Federate):
	// trace propagation to workers, stream federation, and the
	// /trace + /diag endpoints.
	Federate bool `json:"federate,omitempty"`
}

// buildModel constructs the problem graph, mirroring the runs
// surface's conventions (1-based edge endpoints, graphSeed default 1).
func (m *Manager) buildModel(sr *SubmitRequest) (*ising.Model, error) {
	switch {
	case sr.K > 0 && len(sr.Edges) > 0:
		return nil, fmt.Errorf("cluster: give k or edges, not both")
	case sr.K > 0:
		if sr.K > m.maxSpins {
			return nil, fmt.Errorf("cluster: k=%d exceeds the %d-spin limit", sr.K, m.maxSpins)
		}
		gseed := sr.GraphSeed
		if gseed == 0 {
			gseed = 1
		}
		return graph.Complete(sr.K, rng.New(gseed)).ToIsing(), nil
	case len(sr.Edges) > 0:
		if sr.N < 2 {
			return nil, fmt.Errorf("cluster: edges need n >= 2 vertices")
		}
		if sr.N > m.maxSpins {
			return nil, fmt.Errorf("cluster: n=%d exceeds the %d-spin limit", sr.N, m.maxSpins)
		}
		g, err := graph.FromTriples(sr.N, sr.Edges)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		return g.ToIsing(), nil
	default:
		return nil, fmt.Errorf("cluster: need k > 0 or an edge list")
	}
}

func (m *Manager) config(sr *SubmitRequest) Config {
	seed := sr.Seed
	if seed == 0 {
		seed = 1
	}
	duration := sr.DurationNS
	if duration == 0 {
		duration = 100 // the core default duration
	}
	sampleEvery := sr.SampleEveryNS
	if sampleEvery == 0 {
		sampleEvery = duration / 100
	}
	cfg := Config{
		Workers:           sr.Workers,
		Chips:             sr.Chips,
		DurationNS:        duration,
		EpochNS:           sr.EpochNS,
		Coordinated:       sr.Coordinated,
		Seed:              seed,
		Backend:           sr.Backend,
		Channels:          sr.Channels,
		ChannelBytesPerNS: sr.ChannelBytesPerNS,
		SampleEveryNS:     sampleEvery,
		CheckpointEvery:   sr.CheckpointEvery,
		MaxAttempts:       sr.MaxAttempts,
		RetryBudget:       sr.RetryBudget,
		Federate:          sr.Federate,
		Metrics:           m.reg,
		Tracer:            m.tracer,
		Client:            m.client,
	}
	if sr.RPCTimeoutMS > 0 {
		cfg.RPCTimeout = msDuration(sr.RPCTimeoutMS)
	}
	return cfg
}

const maxClusterBody = 64 << 20

// maxSubmitEpochs bounds durationNS/epochNS at submit, as the runs
// surface does: every epoch is a barrier of RPCs, and a body asking for
// 10³⁰⁰ of them would never end.
const maxSubmitEpochs = 1e6

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sr SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxClusterBody)).Decode(&sr); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: parsing body: %w", err))
		return
	}
	model, err := m.buildModel(&sr)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Validate before the run exists: a configuration the engine rejects
	// is a 400 here, with no id taken and nothing journaled or shipped.
	co, err := prepare(model, m.config(&sr))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if epochs := co.cfg.DurationNS / co.mc.EpochNS; epochs > maxSubmitEpochs {
		writeError(w, http.StatusBadRequest, fmt.Errorf(
			"cluster: durationNS/epochNS is %.3g epochs, above the %.0e-epoch limit", epochs, float64(maxSubmitEpochs)))
		return
	}
	m.mu.Lock()
	m.next++
	id := fmt.Sprintf("cr-%d", m.next)
	m.mu.Unlock()
	co.name(id)
	ctx, cancel := context.WithCancel(context.Background())
	cr := &clusterRun{id: id, co: co, cancel: cancel, done: make(chan struct{})}
	co.Progress = func(epoch int, elapsed float64) {
		cr.mu.Lock()
		cr.epoch, cr.elapsed = epoch, elapsed
		cr.mu.Unlock()
	}
	m.mu.Lock()
	m.runs[id] = cr
	m.mu.Unlock()
	spec, _ := json.Marshal(&sr)
	m.journalAppend(journal.Record{Type: journal.TypeSubmit, ID: id, Spec: spec})
	go func() {
		defer close(cr.done)
		defer cancel()
		res, env, err := co.Solve(ctx)
		cr.mu.Lock()
		cr.result, cr.envelope, cr.err = res, env, err
		cr.mu.Unlock()
		term := journal.Record{Type: journal.TypeTerminal, ID: id, State: "completed"}
		if err != nil {
			term.State, term.Error = "failed", err.Error()
		}
		if res != nil {
			sum, merr := json.Marshal(map[string]any{
				"energy": res.Energy, "flips": res.Flips, "epochs": res.Epochs,
			})
			if merr == nil {
				term.Summary = sum
			}
		}
		m.journalAppend(term)
	}()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

func (m *Manager) lookup(id string) (*clusterRun, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cr, ok := m.runs[id]
	return cr, ok
}

// statusBody snapshots a run for JSON.
func (cr *clusterRun) statusBody() map[string]any {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	body := map[string]any{"id": cr.id, "epoch": cr.epoch, "elapsedNS": cr.elapsed}
	select {
	case <-cr.done:
		body["done"] = true
		if cr.err != nil {
			body["error"] = cr.err.Error()
		}
		if cr.result != nil {
			body["result"] = map[string]any{
				"energy":       cr.result.Energy,
				"modelNS":      cr.result.ModelNS,
				"stallNS":      cr.result.StallNS,
				"elapsedNS":    cr.result.ElapsedNS,
				"flips":        cr.result.Flips,
				"bitChanges":   cr.result.BitChanges,
				"trafficBytes": cr.result.TrafficBytes,
				"epochs":       cr.result.Epochs,
				"recovery":     cr.result.Recovery,
				"liveWorkers":  cr.result.LiveWorkers,
			}
		}
		body["checkpoint"] = len(cr.envelope) > 0
	default:
		body["done"] = false
	}
	return body
}

func (m *Manager) handleList(w http.ResponseWriter, _ *http.Request) {
	m.mu.Lock()
	ids := make([]string, 0, len(m.runs))
	for id := range m.runs {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	sort.Strings(ids)
	writeJSON(w, http.StatusOK, map[string]any{"runs": ids})
}

func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	cr, ok := m.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("cluster: no run %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, cr.statusBody())
}

func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	cr, ok := m.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("cluster: no run %q", r.PathValue("id")))
		return
	}
	cr.cancel()
	writeJSON(w, http.StatusOK, map[string]string{"id": cr.id, "state": "cancelling"})
}

func (m *Manager) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	cr, ok := m.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("cluster: no run %q", r.PathValue("id")))
		return
	}
	select {
	case <-cr.done:
	default:
		writeError(w, http.StatusConflict, fmt.Errorf("cluster: run %q still in progress", cr.id))
		return
	}
	cr.mu.Lock()
	env := cr.envelope
	cr.mu.Unlock()
	if len(env) == 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("cluster: run %q has no checkpoint (it completed)", cr.id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", cr.id+".ckpt.json"))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(env)
}

// handleTrace serves the run's merged federated trace in the Chrome
// trace-event format Perfetto loads. Live runs serve the events
// federated so far; finished runs the complete canonical merge.
func (m *Manager) handleTrace(w http.ResponseWriter, r *http.Request) {
	cr, ok := m.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("cluster: no run %q", r.PathValue("id")))
		return
	}
	if cr.co == nil || cr.co.TraceID() == 0 {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("cluster: run %q has no federated trace (submit with \"federate\": true)", cr.id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", cr.id+".trace.json"))
	w.Header().Set("Cache-Control", "no-store")
	_ = obs.WriteChromeTrace(w, cr.co.FederatedEvents())
}

// handleFleetDiag serves the cluster-level diagnostics snapshot —
// straggler attribution, sync-vs-compute split, pull health.
func (m *Manager) handleFleetDiag(w http.ResponseWriter, r *http.Request) {
	cr, ok := m.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("cluster: no run %q", r.PathValue("id")))
		return
	}
	if cr.co == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("cluster: run %q predates this coordinator", cr.id))
		return
	}
	snap, federated := cr.co.FleetDiag()
	if !federated {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("cluster: run %q is not federated (submit with \"federate\": true)", cr.id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":      cr.id,
		"traceID": fmt.Sprintf("%016x", cr.co.TraceID()),
		"fleet":   snap,
	})
}

// Recover folds replayed journal records with the cluster scope back
// into the run table after a coordinator restart. Cluster runs cannot
// be resumed across a coordinator death — worker slices are gone with
// their processes — so non-terminal runs become failed tombstones that
// name the restart as the cause; terminal runs become status-only
// tombstones. The id counter resumes past the highest journaled run so
// fresh submissions never collide. Returns (tombstones, failed).
func (m *Manager) Recover(recs []journal.Record) (int, int) {
	type state struct {
		terminal *journal.Record
	}
	states := make(map[string]*state)
	order := make([]string, 0, 8)
	maxSeq := 0
	for i := range recs {
		rec := recs[i]
		if rec.Scope != journal.ScopeCluster {
			continue
		}
		if n, ok := strings.CutPrefix(rec.ID, "cr-"); ok {
			if v, err := strconv.Atoi(n); err == nil && v > maxSeq {
				maxSeq = v
			}
		}
		s, ok := states[rec.ID]
		if !ok {
			s = &state{}
			states[rec.ID] = s
			order = append(order, rec.ID)
		}
		if rec.Type == journal.TypeTerminal {
			s.terminal = &rec
		}
	}

	tombstones, failed := 0, 0
	m.mu.Lock()
	if maxSeq > m.next {
		m.next = maxSeq
	}
	m.mu.Unlock()
	for _, id := range order {
		s := states[id]
		cr := &clusterRun{id: id, cancel: func() {}, done: make(chan struct{})}
		close(cr.done)
		switch {
		case s.terminal == nil:
			cr.err = errors.New("cluster: interrupted by coordinator restart")
			failed++
			m.journalAppend(journal.Record{
				Type: journal.TypeTerminal, ID: id,
				State: "failed", Error: cr.err.Error(),
			})
		case s.terminal.State == "failed":
			cr.err = errors.New(s.terminal.Error)
		}
		m.mu.Lock()
		if _, exists := m.runs[id]; !exists {
			m.runs[id] = cr
			tombstones++
		}
		m.mu.Unlock()
	}
	return tombstones, failed
}

// CancelAll cancels every live run and waits for them to settle — the
// drain path.
func (m *Manager) CancelAll() {
	m.mu.Lock()
	runs := make([]*clusterRun, 0, len(m.runs))
	for _, cr := range m.runs {
		runs = append(runs, cr)
	}
	m.mu.Unlock()
	for _, cr := range runs {
		cr.cancel()
	}
	for _, cr := range runs {
		<-cr.done
	}
}

// Active reports how many runs are still in flight.
func (m *Manager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, cr := range m.runs {
		select {
		case <-cr.done:
		default:
			n++
		}
	}
	return n
}

func msDuration(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
