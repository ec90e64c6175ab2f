package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mbrim/internal/multichip"
	"mbrim/internal/obs"
)

// Worker hosts slices on behalf of remote coordinators — the server
// half of the cluster protocol, mounted into mbrimd with -worker:
//
//	PUT    /worker/slices/{id}       create/replace a slice (idempotent)
//	GET    /worker/slices            list hosted slices
//	POST   /worker/slices/{id}/step  integrate the next epoch
//	POST   /worker/slices/{id}/sync  deliver a barrier, return the snapshot
//	DELETE /worker/slices/{id}       drop a slice
//
// Slice ids are coordinator-chosen ("run-3-s1-g2"), which makes every
// mutation idempotent: a re-PUT replaces, a repeated step replays the
// cached response, a repeated sync acknowledges again. Idempotency is
// what lets the coordinator retry any RPC blindly after a timeout — it
// can never double-integrate an epoch.
type Worker struct {
	reg *obs.Registry
	// ring is the worker's observability stream: every federated
	// slice's span events land here (stamped with their run's trace
	// ID), and coordinators page it via GET /worker/events — the
	// server half of trace federation.
	ring *obs.Ring

	mu        sync.Mutex
	slices    map[string]*workerSlice
	maxSlices int
}

// workerSlice is one hosted slice plus its replay cache. Its own lock
// serializes step/sync per slice while leaving distinct slices (one
// worker can host several after a degraded reassignment) concurrent.
type workerSlice struct {
	mu    sync.Mutex
	slice *multichip.Slice
	// syncedEpoch is the last barrier whose cross-chip updates were
	// delivered (via step piggyback or /sync); lastStep replays the
	// last completed epoch for retried RPCs.
	syncedEpoch int
	lastStep    *StepResponse
	// spans emits this slice's intervals into the worker ring when the
	// coordinator sent trace context on creation (nil otherwise — the
	// disabled path). spanFlips is the cumulative flip count already
	// attributed to closed chip_step spans, so each span carries its
	// epoch's delta even across a hand-off restore.
	spans     *obs.Spanner
	spanFlips int64
}

// DefaultMaxSlices bounds how many slices one worker will host.
const DefaultMaxSlices = 64

// DefaultWorkerRing is the capacity of the worker's observability
// ring. A slice emits two events per epoch plus checkpoint syncs, so
// this retains several thousand epochs across hosted slices; the
// federation collector pages with EventsSince cursors every checkpoint
// round, and an exposed eviction gap only truncates the oldest spans
// of a merged trace.
const DefaultWorkerRing = 16384

// NewWorker builds a worker. reg may be nil.
func NewWorker(reg *obs.Registry, maxSlices int) *Worker {
	if maxSlices <= 0 {
		maxSlices = DefaultMaxSlices
	}
	if reg != nil {
		reg.SetHelp("cluster.worker_slices", "slices currently hosted by this worker")
		reg.SetHelp("cluster.worker_steps", "slice epochs integrated by this worker")
		reg.SetHelp("cluster.worker_step_replays", "retried step RPCs answered from the replay cache")
	}
	return &Worker{
		reg:       reg,
		ring:      obs.NewRing(DefaultWorkerRing),
		slices:    make(map[string]*workerSlice),
		maxSlices: maxSlices,
	}
}

// Routes registers the worker endpoints on mux (Go 1.22 method
// patterns, like the runs surface).
func (wk *Worker) Routes(mux *http.ServeMux) {
	mux.HandleFunc("PUT /worker/slices/{id}", wk.handleCreate)
	mux.HandleFunc("GET /worker/slices", wk.handleList)
	mux.HandleFunc("POST /worker/slices/{id}/step", wk.handleStep)
	mux.HandleFunc("POST /worker/slices/{id}/sync", wk.handleSync)
	mux.HandleFunc("DELETE /worker/slices/{id}", wk.handleDelete)
	mux.HandleFunc("GET /worker/events", wk.handleEvents)
	mux.HandleFunc("GET /worker/clock", wk.handleClock)
}

// handleEvents pages the worker's observability ring: the federation
// collector fetches ?since=<cursor> each checkpoint round and filters
// the page by trace ID (one worker may host slices of several runs).
func (wk *Worker) handleEvents(w http.ResponseWriter, r *http.Request) {
	since := int64(0)
	if s := r.URL.Query().Get("since"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad since cursor %q", s))
			return
		}
		since = v
	}
	evs, first := wk.ring.EventsSince(since)
	writeWire(w, EventsPage{Events: evs, First: first})
}

// handleClock answers the coordinator's clock-offset handshake.
func (wk *Worker) handleClock(w http.ResponseWriter, _ *http.Request) {
	writeWire(w, ClockResponse{NowNS: time.Now().UnixNano()})
}

// maxSliceBody bounds slice-creation bodies (a model plus a snapshot).
const maxSliceBody = 128 << 20

func (wk *Worker) handleCreate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := r.PathValue("id")
	var req CreateSliceRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSliceBody))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: parsing body: %w", err))
		return
	}
	m, err := req.Model.Build()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sl, err := multichip.NewSlice(m, req.Config.multichipConfig(), req.Slice, req.Config.DurationNS)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ws := &workerSlice{slice: sl}
	var state *multichip.SliceState
	if req.State != nil {
		if state, err = unpackState(req.State); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if err := sl.Restore(state); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		// A restored snapshot is post-sync by construction.
		ws.syncedEpoch = sl.Epochs()
	}
	if tc := req.Trace; tc != nil && tc.TraceID != 0 {
		// Federated run: this slice's intervals go to the worker ring,
		// stamped with the coordinator-assigned trace ID, with IDs from
		// the slice's disjoint SpanBase range. The restored snapshot's
		// cumulative flip counter seeds the per-epoch delta so a
		// handed-off slice's first chip_step span doesn't claim the
		// pre-hand-off flips.
		ws.spans = obs.NewSpannerAt(obs.StampTracer(wk.ring, tc.TraceID, ""), tc.SpanBase)
		if state != nil {
			ws.spanFlips = state.State.Machine.Flips
		}
		ws.spans.Complete("slice_install", obs.RemoteSpan(tc.Parent), sl.Chip(),
			sl.ModelNS(), 0, time.Since(start).Nanoseconds(), nil)
	}
	wk.mu.Lock()
	if _, exists := wk.slices[id]; !exists && len(wk.slices) >= wk.maxSlices {
		wk.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("cluster: worker at its %d-slice capacity", wk.maxSlices))
		return
	}
	wk.slices[id] = ws
	n := len(wk.slices)
	wk.mu.Unlock()
	if wk.reg != nil {
		wk.reg.Gauge("cluster.worker_slices").Set(float64(n))
	}
	w.WriteHeader(http.StatusNoContent)
}

func (wk *Worker) lookup(id string) (*workerSlice, bool) {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	ws, ok := wk.slices[id]
	return ws, ok
}

func (wk *Worker) handleList(w http.ResponseWriter, _ *http.Request) {
	wk.mu.Lock()
	ids := make([]string, 0, len(wk.slices))
	for id := range wk.slices {
		ids = append(ids, id)
	}
	wk.mu.Unlock()
	writeWire(w, map[string]any{"slices": ids})
}

func (wk *Worker) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	wk.mu.Lock()
	delete(wk.slices, id)
	n := len(wk.slices)
	wk.mu.Unlock()
	if wk.reg != nil {
		wk.reg.Gauge("cluster.worker_slices").Set(float64(n))
	}
	w.WriteHeader(http.StatusNoContent)
}

func (wk *Worker) handleStep(w http.ResponseWriter, r *http.Request) {
	ws, ok := wk.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("cluster: no slice %q", r.PathValue("id")))
		return
	}
	var req StepRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSliceBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: parsing body: %w", err))
		return
	}
	ups, err := unpackUpdates(req.Sync)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	done := ws.slice.Epochs()
	switch {
	case req.Epoch == done && ws.lastStep != nil && ws.lastStep.Report.Epoch == req.Epoch:
		// A retry of the epoch we just integrated: the first response was
		// lost in flight. Replay it — never integrate twice.
		if wk.reg != nil {
			wk.reg.Counter("cluster.worker_step_replays").Inc()
		}
		writeWire(w, ws.lastStep)
		return
	case req.Epoch != done+1:
		writeError(w, http.StatusConflict,
			fmt.Errorf("cluster: slice at epoch %d cannot step epoch %d", done, req.Epoch))
		return
	}
	// Deliver the previous barrier if it rode along (it must not have
	// been delivered already — that would double-apply updates).
	if len(ups) > 0 {
		if ws.syncedEpoch >= done {
			writeError(w, http.StatusConflict,
				fmt.Errorf("cluster: barrier %d already delivered to slice", done))
			return
		}
		if err := ws.slice.ApplySync(ups); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	ws.syncedEpoch = done
	start := time.Now()
	rep, err := ws.slice.RunEpoch()
	if err != nil {
		// Integrator divergence is not retryable; 422 tells the
		// coordinator to abort rather than back off.
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	ws.lastStep = &StepResponse{Report: packReport(rep)}
	if ws.spans != nil {
		// The epoch's interval on the model axis, under the
		// coordinator's epoch span, with the worker-measured compute
		// wall time and this epoch's flip delta.
		ws.spans.Complete("chip_step", obs.RemoteSpan(req.Parent), ws.slice.Chip(),
			rep.ModelNS-rep.EpochNS, rep.EpochNS, time.Since(start).Nanoseconds(),
			&obs.Event{Count: rep.Flips - ws.spanFlips})
		ws.spanFlips = rep.Flips
	}
	if wk.reg != nil {
		wk.reg.Counter("cluster.worker_steps").Inc()
	}
	writeWire(w, ws.lastStep)
}

func (wk *Worker) handleSync(w http.ResponseWriter, r *http.Request) {
	ws, ok := wk.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("cluster: no slice %q", r.PathValue("id")))
		return
	}
	var req SyncRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSliceBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: parsing body: %w", err))
		return
	}
	ups, err := unpackUpdates(req.Sync)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	done := ws.slice.Epochs()
	if req.Epoch != done {
		writeError(w, http.StatusConflict,
			fmt.Errorf("cluster: sync for barrier %d, slice at epoch %d", req.Epoch, done))
		return
	}
	if ws.syncedEpoch < done {
		start := time.Now()
		if err := ws.slice.ApplySync(ups); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		ws.syncedEpoch = done
		if ws.spans != nil {
			// Zero-width on the model axis (a barrier delivery), under
			// the coordinator's checkpoint-round span. Retried syncs
			// take the acknowledge-only branch and emit nothing.
			ws.spans.Complete("slice_sync", obs.RemoteSpan(req.Parent), ws.slice.Chip(),
				ws.slice.ModelNS(), 0, time.Since(start).Nanoseconds(),
				&obs.Event{Count: int64(len(ups))})
		}
	}
	// else: a retry of a barrier already delivered — acknowledge again.
	writeWire(w, &SyncResponse{Epoch: done, State: packState(ws.slice.Snapshot())})
}
