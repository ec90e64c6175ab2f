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
//
// The package has three faces and no service of its own. The Worker is
// what `mbrimd -worker` mounts. The Coordinator (New, Solve) is what the
// CLI's -cluster mode drives directly. And engine.go registers the
// Coordinator in core's registry as engine "cluster", which is how a
// daemon runs it: through the one run manager (internal/runs), as a run
// like any other — admission, retention, the SSE tail, /diag, /trace,
// /outcome, periodic checkpoints and crash-resume are the manager's, and
// only worker-loss recovery is the coordinator's. compat.go holds four
// deprecated names the benchmark harness still compiles against.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/multichip"
	"mbrim/internal/obs"
)

// Wire format notes: the envelope is JSON; what is large or hot inside
// it is a packed little-endian []byte, which encoding/json carries as
// base64. There are three such frames — the model's couplings
// (ModelWire.Frame), a barrier's update list (packUpdates) and a slice's
// owned readout (packSpins) — and this file holds their codecs. Float64
// couplings cross as their IEEE-754 bits; the few floats left in the
// envelope (μ, biases, epoch times) are printed by encoding/json at
// shortest round-trip precision, so both cross bit-exactly — the same
// property the PR-3 checkpoint format relies on. SliceState snapshots
// keep multichip's JSON form: the on-disk checkpoint envelope shares it.

// The two arms of ModelWire.Frame.
const (
	// armPlanes carries a model whose nonzero couplings are all exactly
	// ±1 (the paper's K-graph family — the property the lattice's bit
	// planes key on). The upper triangle is numbered row-major
	// (t = 0 for (0,1), then (0,2) … (0,n−1), (1,2) …; T = n(n−1)/2
	// couplings) and the frame is two bit planes of ⌈T/8⌉ bytes each,
	// bit t at byte t/8, bit t%8: first presence (J_ij ≠ 0), then sign
	// (J_ij = −1). Sign bits without their presence bit and padding bits
	// past T must be zero.
	armPlanes = "planes"
	// armCSR carries any other model: n uint32 row counts, then row by
	// row each stored j > i entry as a uint32 column (strictly ascending
	// within its row) and the float64 bits of J_ij, which must be
	// finite and nonzero. len(Frame) = 4n + 12·Σcounts exactly.
	armCSR = "csr"
)

// ModelWire carries an Ising model: the couplings as one packed frame
// in the arm its values allow, plus biases and μ.
type ModelWire struct {
	N      int       `json:"n"`
	Mu     float64   `json:"mu,omitempty"`
	Biases []float64 `json:"biases,omitempty"`
	Arm    string    `json:"arm"`
	Frame  []byte    `json:"frame"`
}

// ModelToWire encodes m for transport, straight from its stored
// couplings: the planes arm when every one is ±1, else CSR.
func ModelToWire(m *ising.Model) *ModelWire {
	w := &ModelWire{N: m.N(), Mu: m.Mu()}
	for _, h := range m.Biases() {
		if h != 0 {
			w.Biases = append([]float64(nil), m.Biases()...)
			break
		}
	}
	lat := m.View(lattice.Auto)
	var ok bool
	if w.Frame, ok = planesFrame(lat); ok {
		w.Arm = armPlanes
	} else {
		w.Arm, w.Frame = armCSR, csrFrame(lat)
	}
	return w
}

// planeBytes is the length of one bit plane over n spins' upper triangle.
func planeBytes(n int) int { return (n*(n-1)/2 + 7) / 8 }

// planesFrame encodes the upper triangle of lat in the planes arm, or
// reports false at the first coupling that is not ±1.
func planesFrame(lat lattice.Coupling) ([]byte, bool) {
	n := lat.N()
	pb := planeBytes(n)
	frame := make([]byte, 2*pb)
	present, neg := frame[:pb], frame[pb:]
	unit := true
	for i := 0; i < n && unit; i++ {
		first := i*n - i*(i+1)/2 - i - 1 // bit t of (i, j) is first + j
		lat.Scan(i, func(j int, v float64) {
			if j < i {
				return
			}
			t := first + j
			switch v {
			case 1:
				present[t>>3] |= 1 << (t & 7)
			case -1:
				present[t>>3] |= 1 << (t & 7)
				neg[t>>3] |= 1 << (t & 7)
			default:
				unit = false
			}
		})
	}
	return frame, unit
}

// csrFrame encodes the upper triangle's entries in the CSR arm.
func csrFrame(lat lattice.Coupling) []byte {
	n := lat.N()
	frame := make([]byte, 4*n+12*lat.NNZ()/2)
	at := 4 * n
	for i := 0; i < n; i++ {
		count := 0
		lat.Scan(i, func(j int, v float64) {
			if j < i {
				return
			}
			binary.LittleEndian.PutUint32(frame[at:], uint32(j))
			binary.LittleEndian.PutUint64(frame[at+4:], math.Float64bits(v))
			at += 12
			count++
		})
		binary.LittleEndian.PutUint32(frame[4*i:], uint32(count))
	}
	return frame
}

// DefaultMaxSpins bounds the model a worker will build from the wire;
// it equals the run surface's submission bound.
const DefaultMaxSpins = 65536

// Build reconstructs the model. Wire bytes are untrusted: n is bounded,
// the frame's length is checked against it, every index, value and
// padding bit is validated, and failures are errors. What is allocated
// follows the frame, not n²: a CSR frame builds O(n + entries), so a
// short body cannot demand a dense matrix.
func (w *ModelWire) Build() (*ising.Model, error) {
	if w == nil {
		return nil, errors.New("cluster: nil model")
	}
	if w.N < 1 || w.N > DefaultMaxSpins {
		return nil, fmt.Errorf("cluster: model n=%d outside 1..%d", w.N, DefaultMaxSpins)
	}
	if w.Biases != nil && len(w.Biases) != w.N {
		return nil, fmt.Errorf("cluster: model has %d biases for n=%d", len(w.Biases), w.N)
	}
	b := ising.NewBuilder(w.N)
	b.SetMu(w.Mu)
	for i, h := range w.Biases {
		b.SetBias(i, h)
	}
	var err error
	switch w.Arm {
	case armPlanes:
		err = w.fillPlanes(b)
	case armCSR:
		err = w.fillCSR(b)
	default:
		err = fmt.Errorf("cluster: model frame arm %q", w.Arm)
	}
	if err != nil {
		return nil, err
	}
	m, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("cluster: model: %w", err)
	}
	return m, nil
}

// fillPlanes sets b's couplings from a planes frame.
func (w *ModelWire) fillPlanes(b *ising.Builder) error {
	pb := planeBytes(w.N)
	if len(w.Frame) != 2*pb {
		return fmt.Errorf("cluster: planes frame of %d bytes for n=%d, want %d", len(w.Frame), w.N, 2*pb)
	}
	present, neg := w.Frame[:pb], w.Frame[pb:]
	total := w.N * (w.N - 1) / 2
	for k := range present {
		if neg[k]&^present[k] != 0 {
			return fmt.Errorf("cluster: planes frame byte %d has sign bits without presence", k)
		}
	}
	if pad := total % 8; pad != 0 && present[pb-1]>>pad != 0 {
		return errors.New("cluster: planes frame has padding bits set")
	}
	t := 0
	for i := 0; i < w.N; i++ {
		for j := i + 1; j < w.N; j++ {
			if bit := byte(1) << (t & 7); present[t>>3]&bit != 0 {
				v := 1.0
				if neg[t>>3]&bit != 0 {
					v = -1
				}
				b.SetCoupling(i, j, v)
			}
			t++
		}
	}
	return nil
}

// fillCSR sets b's couplings from a CSR frame, whose row counts must
// agree with its length before any entry is read.
func (w *ModelWire) fillCSR(b *ising.Builder) error {
	if len(w.Frame) < 4*w.N {
		return fmt.Errorf("cluster: csr frame of %d bytes is shorter than its %d row counts", len(w.Frame), w.N)
	}
	nnz := 0
	for i := 0; i < w.N; i++ {
		count := int(binary.LittleEndian.Uint32(w.Frame[4*i:]))
		if count > w.N-1-i {
			return fmt.Errorf("cluster: csr row %d stores %d entries above the diagonal of n=%d", i, count, w.N)
		}
		nnz += count
	}
	if len(w.Frame) != 4*w.N+12*nnz {
		return fmt.Errorf("cluster: csr frame of %d bytes for n=%d with %d entries, want %d",
			len(w.Frame), w.N, nnz, 4*w.N+12*nnz)
	}
	at := 4 * w.N
	for i := 0; i < w.N; i++ {
		prev := i
		for count := binary.LittleEndian.Uint32(w.Frame[4*i:]); count > 0; count-- {
			j := int(binary.LittleEndian.Uint32(w.Frame[at:]))
			v := math.Float64frombits(binary.LittleEndian.Uint64(w.Frame[at+4:]))
			at += 12
			if j <= prev || j >= w.N {
				return fmt.Errorf("cluster: csr row %d has column %d after %d for n=%d", i, j, prev, w.N)
			}
			if v == 0 { // a stored zero; NaN and ±Inf are Build's to refuse
				return fmt.Errorf("cluster: csr coupling (%d,%d) is %v", i, j, v)
			}
			b.SetCoupling(i, j, v)
			prev = j
		}
	}
	return nil
}

// A packed update list is one little-endian uint32 per update,
// g<<updShift | induced | up. The sender's local index does not cross
// the wire — a receiving slice never reads it, and the coordinator
// re-derives it from the partition (checkReport) — and a value that is
// not ±1 has no encoding.
const (
	updUp      = 1 << 0 // the spin now holds +1
	updInduced = 1 << 1 // its last flip was an induced kick
	updShift   = 2      // the global index sits above the two flags
)

// updateWord reads word k of a packed update list of whole words.
func updateWord(b []byte, k int) uint32 { return binary.LittleEndian.Uint32(b[4*k:]) }

// packUpdates encodes a barrier's update list; an empty one is nil, so
// omitempty leaves it out of the body.
func packUpdates(ups []multichip.PendingUpdate) []byte {
	if len(ups) == 0 {
		return nil
	}
	b := make([]byte, 4*len(ups))
	for k, u := range ups {
		word := uint32(u.G) << updShift
		if u.Induced {
			word |= updInduced
		}
		if u.V > 0 {
			word |= updUp
		}
		binary.LittleEndian.PutUint32(b[4*k:], word)
	}
	return b
}

// unpackUpdates decodes a packed update list for ApplySync, which
// validates the indices; Li is left zero.
func unpackUpdates(b []byte) ([]multichip.PendingUpdate, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("cluster: packed update list of %d bytes", len(b))
	}
	ups := make([]multichip.PendingUpdate, len(b)/4)
	for k := range ups {
		word := updateWord(b, k)
		ups[k] = multichip.PendingUpdate{
			G: int(word >> updShift), V: int8(word&updUp)<<1 - 1, Induced: word&updInduced != 0,
		}
	}
	return ups, nil
}

// inducedUpdates counts the updates of a packed list of whole words
// whose last cause was an induced kick.
func inducedUpdates(b []byte) (n int64) {
	for k := 0; k < len(b)/4; k++ {
		if updateWord(b, k)&updInduced != 0 {
			n++
		}
	}
	return n
}

// packSpins encodes a ±1 readout at one bit per spin: bit li (byte li/8,
// bit li%8) is set when spin li holds +1; padding bits are zero.
func packSpins(spins []int8) []byte {
	b := make([]byte, (len(spins)+7)/8)
	for li, v := range spins {
		if v > 0 {
			b[li>>3] |= 1 << (li & 7)
		}
	}
	return b
}

// spinAt reads spin li of a packed readout.
func spinAt(b []byte, li int) int8 {
	return int8(b[li>>3]>>(li&7)&1)<<1 - 1
}

// SliceConfig is the run configuration a worker needs to host one
// slice. It is the distributable subset of multichip.Config: the brim
// dynamics, the flip interval and the induced-flip schedule use their
// defaults, and the slice runs on the layout the model frame builds to.
type SliceConfig struct {
	Chips       int     `json:"chips"`
	EpochNS     float64 `json:"epochNS,omitempty"`
	Coordinated bool    `json:"coordinated,omitempty"`
	Seed        uint64  `json:"seed"`
	DurationNS  float64 `json:"durationNS"`
}

// multichipConfig translates the wire configuration into the engine's.
func (c SliceConfig) multichipConfig() multichip.Config {
	return multichip.Config{
		Chips:       c.Chips,
		EpochNS:     c.EpochNS,
		Coordinated: c.Coordinated,
		Seed:        c.Seed,
	}
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
// previous barrier's cross-chip updates (packUpdates form), batched into
// this message so epoch sync and shadow exchange are one round trip; it
// must be absent when the coordinator already delivered that barrier via
// /sync (a checkpoint round). Repeating the last completed epoch returns
// the cached response — the idempotency retried RPCs need.
type StepRequest struct {
	Epoch int    `json:"epoch"`
	Sync  []byte `json:"sync,omitempty"`
	// Parent is the coordinator's epoch interval ID: the worker's
	// chip_step span for this epoch nests under it. Zero when the run
	// is not federated.
	Parent uint64 `json:"parentSpan,omitempty"`
}

// ReportWire is a multichip.EpochReport as it crosses the wire: the
// same counters, with the boundary broadcast in packUpdates form and
// the owned readout in packSpins form.
type ReportWire struct {
	Epoch        int     `json:"epoch"`
	EpochNS      float64 `json:"epochNS"`
	ModelNS      float64 `json:"modelNS"`
	Updates      []byte  `json:"updates,omitempty"`
	Spins        []byte  `json:"spins"`
	Flips        int64   `json:"flips"`
	InducedFlips int64   `json:"inducedFlips"`
	Kicks        int64   `json:"kicks,omitempty"`
	StepRetries  int64   `json:"stepRetries,omitempty"`
}

// packReport packs a slice's epoch report for transport.
func packReport(rep *multichip.EpochReport) *ReportWire {
	return &ReportWire{
		Epoch:        rep.Epoch,
		EpochNS:      rep.EpochNS,
		ModelNS:      rep.ModelNS,
		Updates:      packUpdates(rep.Updates),
		Spins:        packSpins(rep.Spins),
		Flips:        rep.Flips,
		InducedFlips: rep.InducedFlips,
		Kicks:        rep.Kicks,
		StepRetries:  rep.StepRetries,
	}
}

// StepResponse is the worker's epoch report.
type StepResponse struct {
	Report *ReportWire `json:"report"`
}

// SyncRequest is the POST /worker/slices/{id}/sync body: deliver
// barrier Epoch's cross-chip updates (packUpdates form) without
// integrating — the checkpoint path, which needs post-sync state at the
// barrier. Idempotent per epoch; WantState returns the slice snapshot.
type SyncRequest struct {
	Epoch     int    `json:"epoch"`
	Sync      []byte `json:"sync,omitempty"`
	WantState bool   `json:"wantState,omitempty"`
	// Parent is the coordinator's checkpoint-round interval ID; the
	// worker's slice_sync span nests under it. Zero when not federated.
	Parent uint64 `json:"parentSpan,omitempty"`
}

// SyncResponse acknowledges a barrier delivery.
type SyncResponse struct {
	Epoch int                   `json:"epoch"`
	State *multichip.SliceState `json:"state,omitempty"`
}
