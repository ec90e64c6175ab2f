// Package cluster distributes one Ising problem across mbrimd worker
// nodes over HTTP — ROADMAP item 1, the paper's multi-chip slicing
// (vertical slices + shadow spins, Sec 5.4) realized across processes
// instead of across modeled chips. A Coordinator takes its partition,
// epoch length and channel count from multichip.Partition — the head of
// the derivation NewSystem and NewSlice continue from — hosts no
// dynamics itself, and drives one multichip.Slice per chip on remote
// workers in epoch lockstep; shadow-spin exchange and epoch sync are one
// batched wire message per slice per epoch. Its run position is a
// multichip.Position and its rollback point a multichip.Checkpoint, the
// same structures an in-process run keeps.
//
// The robustness layer is the point: every RPC runs under a deadline
// with jittered exponential backoff and a per-run retry budget; a
// background prober heartbeats /healthz so the coordinator can tell a
// slow worker (RPCs time out, heartbeats answer → keep retrying) from
// a dead one (heartbeats miss → recover); recovery reassigns a lost
// worker's slices to survivors and rolls every slice back to the last
// coordinated checkpoint, replaying deterministically — the final
// trajectory is bit-identical to a fault-free run, and the replayed
// work and hand-off reprogramming are charged into the stall/traffic
// ledgers the way the modeled fault layer charges its recoveries.
//
// Parity contract: with no faults injected, a cluster solve equals
// System.RunConcurrent for the same (model, config, seed) bit for
// bit, including fabric traffic, stall and peak-demand accounting;
// the interrupt checkpoint is a standard PR-3 envelope the in-process
// engine resumes.
package cluster

import (
	"fmt"

	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/multichip"
	"mbrim/internal/obs"
	"mbrim/internal/sched"
)

// Wire format notes: everything is JSON. encoding/json prints float64
// at shortest round-trip precision, so couplings, biases and μ cross
// the wire bit-exactly — the same property the PR-3 checkpoint format
// relies on.

// ModelWire carries an Ising model: the upper triangle's nonzero
// couplings as [i, j, J] rows (0-based), plus biases and μ.
type ModelWire struct {
	N         int          `json:"n"`
	Mu        float64      `json:"mu,omitempty"`
	Biases    []float64    `json:"biases,omitempty"`
	Couplings [][3]float64 `json:"couplings"`
}

// ModelToWire encodes m for transport, scanning the CSR view so sparse
// problems pay O(nnz), not O(N²).
func ModelToWire(m *ising.Model) *ModelWire {
	n := m.N()
	w := &ModelWire{N: n, Mu: m.Mu()}
	for _, h := range m.Biases() {
		if h != 0 {
			w.Biases = append([]float64(nil), m.Biases()...)
			break
		}
	}
	view := m.View(lattice.CSR)
	for i := 0; i < n; i++ {
		view.Scan(i, func(j int, v float64) {
			if j > i {
				w.Couplings = append(w.Couplings, [3]float64{float64(i), float64(j), v})
			}
		})
	}
	return w
}

// Build reconstructs the model. Wire bytes are untrusted: every index
// is validated, failures are errors.
func (w *ModelWire) Build() (*ising.Model, error) {
	if w == nil {
		return nil, fmt.Errorf("cluster: nil model")
	}
	if w.N < 1 {
		return nil, fmt.Errorf("cluster: model n=%d", w.N)
	}
	if w.Biases != nil && len(w.Biases) != w.N {
		return nil, fmt.Errorf("cluster: model has %d biases for n=%d", len(w.Biases), w.N)
	}
	m := ising.NewModel(w.N)
	m.SetMu(w.Mu)
	for i, h := range w.Biases {
		m.SetBias(i, h)
	}
	for r, c := range w.Couplings {
		i, j := int(c[0]), int(c[1])
		if i < 0 || j <= i || j >= w.N {
			return nil, fmt.Errorf("cluster: model coupling %d has indices (%d,%d) for n=%d", r, i, j, w.N)
		}
		m.SetCoupling(i, j, c[2])
	}
	return m, nil
}

// SliceConfig is the run configuration a worker needs to host one
// slice. It is the distributable subset of multichip.Config: the brim
// dynamics use their defaults, and the induced-flip schedule is the
// linear ramp (the repo default; InducedFrom = InducedTo = 0 selects
// the default 0.08 → 0 decay).
type SliceConfig struct {
	Chips          int     `json:"chips"`
	EpochNS        float64 `json:"epochNS,omitempty"`
	FlipIntervalNS float64 `json:"flipIntervalNS,omitempty"`
	Coordinated    bool    `json:"coordinated,omitempty"`
	Seed           uint64  `json:"seed"`
	DurationNS     float64 `json:"durationNS"`
	Backend        string  `json:"backend,omitempty"`
	InducedFrom    float64 `json:"inducedFrom,omitempty"`
	InducedTo      float64 `json:"inducedTo,omitempty"`
}

// multichipConfig translates the wire configuration into the engine's.
func (c SliceConfig) multichipConfig() (multichip.Config, error) {
	backend := lattice.Auto
	if c.Backend != "" {
		var err error
		if backend, err = lattice.ParseKind(c.Backend); err != nil {
			return multichip.Config{}, fmt.Errorf("cluster: %w", err)
		}
	}
	var induced sched.Schedule
	if c.InducedFrom != 0 || c.InducedTo != 0 {
		induced = sched.Linear{From: c.InducedFrom, To: c.InducedTo}
	}
	return multichip.Config{
		Chips:          c.Chips,
		EpochNS:        c.EpochNS,
		FlipIntervalNS: c.FlipIntervalNS,
		InducedFlip:    induced,
		Coordinated:    c.Coordinated,
		Seed:           c.Seed,
		Backend:        backend,
	}, nil
}

// TraceContext threads distributed span parentage across the wire —
// the fleet-observability counterpart of the in-process Spanner parent
// links. The coordinator sends it on slice creation to bind the slice
// to its run: RunID and TraceID identify the run's single federated
// trace, SpanBase hands the slice a disjoint span-ID range (the worker
// allocates interval IDs from SpanBase+1 up, so streams merged by the
// federation collector never collide), and Parent is the coordinator
// interval the slice's spans nest under. Step and sync requests then
// carry only the per-RPC Parent — the coordinator's current epoch or
// checkpoint-round span — so worker chip_step/slice_sync intervals
// open as children of the coordinator's run tree. Absent trace context
// (nil pointer, zero Parent) disables worker-side span emission for
// the slice or RPC: the federation-off path costs one nil check.
type TraceContext struct {
	RunID    string `json:"runID,omitempty"`
	TraceID  uint64 `json:"traceID,omitempty"`
	SpanBase uint64 `json:"spanBase,omitempty"`
	Parent   uint64 `json:"parentSpan,omitempty"`
}

// ClockResponse is the GET /worker/clock body: the worker's wall clock
// at handling time. The coordinator brackets the RPC with its own
// clock reads and estimates the worker's clock offset as
// NowNS − (t₀+t₁)/2 (Cristian's algorithm), which the federation
// collector subtracts from fetched WallNS stamps so all wall times in
// a merged trace sit on the coordinator's clock. Model time — the
// trace layout axis — is deterministic and needs no alignment; the
// offset only aligns the advisory wall fields.
type ClockResponse struct {
	NowNS int64 `json:"nowNS"`
}

// EventsPage is the GET /worker/events?since=N body: one page of the
// worker's observability ring, fetched by the coordinator's federation
// collector. Events carries the retained events with emission ordinal
// > since (oldest first, obs.Ring.EventsSince semantics), First the
// ordinal of the first returned event, and Total the ring's lifetime
// emission count — First > since+1 exposes an eviction gap, and Total
// is the cursor for the next page.
type EventsPage struct {
	Events []obs.Event `json:"events,omitempty"`
	First  int64       `json:"first"`
	Total  int64       `json:"total"`
}

// CreateSliceRequest is the PUT /worker/slices/{id} body: host this
// chip of the problem. Re-PUT with the same id replaces the slice —
// creation is idempotent, so a retried or re-assigned create converges.
// State, when set, restores a hand-off snapshot after creation. Trace,
// when set, enables worker-side span emission for the slice under the
// coordinator's run tree.
type CreateSliceRequest struct {
	Slice  int                   `json:"slice"`
	Model  *ModelWire            `json:"model"`
	Config SliceConfig           `json:"config"`
	State  *multichip.SliceState `json:"state,omitempty"`
	Trace  *TraceContext         `json:"trace,omitempty"`
}

// SliceStatus reports a hosted slice's position.
type SliceStatus struct {
	ID     string  `json:"id"`
	Slice  int     `json:"slice"`
	Epoch  int     `json:"epoch"`
	Synced int     `json:"synced"`
	Model  float64 `json:"modelNS"`
	Done   bool    `json:"done"`
}

// StepRequest is the POST /worker/slices/{id}/step body: integrate
// epoch Epoch (1-based, must be the slice's next). Sync carries the
// previous barrier's cross-chip updates, batched into this message so
// epoch sync and shadow exchange are one round trip; it must be absent
// when the coordinator already delivered that barrier via /sync (a
// checkpoint round). Repeating the last completed epoch returns the
// cached response — the idempotency retried RPCs need.
type StepRequest struct {
	Epoch int                       `json:"epoch"`
	Sync  []multichip.PendingUpdate `json:"sync,omitempty"`
	// Parent is the coordinator's epoch interval ID: the worker's
	// chip_step span for this epoch nests under it. Zero when the run
	// is not federated.
	Parent uint64 `json:"parentSpan,omitempty"`
}

// StepResponse is the worker's epoch report.
type StepResponse struct {
	Report *multichip.EpochReport `json:"report"`
}

// SyncRequest is the POST /worker/slices/{id}/sync body: deliver
// barrier Epoch's cross-chip updates without integrating — the
// checkpoint path, which needs post-sync state at the barrier.
// Idempotent per epoch; WantState returns the slice snapshot.
type SyncRequest struct {
	Epoch     int                       `json:"epoch"`
	Sync      []multichip.PendingUpdate `json:"sync,omitempty"`
	WantState bool                      `json:"wantState,omitempty"`
	// Parent is the coordinator's checkpoint-round interval ID; the
	// worker's slice_sync span nests under it. Zero when not federated.
	Parent uint64 `json:"parentSpan,omitempty"`
}

// SyncResponse acknowledges a barrier delivery.
type SyncResponse struct {
	Epoch int                   `json:"epoch"`
	State *multichip.SliceState `json:"state,omitempty"`
}
