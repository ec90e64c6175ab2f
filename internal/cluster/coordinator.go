package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"

	"mbrim/internal/checkpoint"
	"mbrim/internal/core"
	"mbrim/internal/interconnect"
	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/metrics"
	"mbrim/internal/multichip"
	"mbrim/internal/obs"
)

// Config parameterizes a distributed solve. The solver knobs mirror
// multichip.Config's distributable subset; the rest is the robustness
// envelope.
type Config struct {
	// Workers are the worker base URLs ("http://host:port"). Slices
	// are assigned round-robin; with more workers than chips the
	// extras are warm spares that recovery reassigns onto first.
	Workers []string
	// Chips is the slice count (default: one per worker).
	Chips int
	// DurationNS is the model-time horizon. Required.
	DurationNS float64
	// EpochNS, Coordinated and Seed mean exactly what they mean in
	// multichip.Config.
	EpochNS     float64
	Coordinated bool
	Seed        uint64
	// Channels / ChannelBytesPerNS configure the modeled hardware
	// fabric the coordinator mirrors, so the traffic/stall ledgers
	// match the in-process simulation bit for bit.
	Channels          int
	ChannelBytesPerNS float64
	// SampleEveryNS records an (elapsed ns, energy) trace point at
	// least every so many ns, like the in-process engine.
	SampleEveryNS float64

	// CheckpointEvery is the coordinated-checkpoint cadence in epochs
	// (default 8): every K barriers the coordinator collects post-sync
	// slice snapshots — the rollback point a worker loss recovers
	// from.
	CheckpointEvery int
	// RPCTimeout bounds each RPC attempt (default 5s).
	RPCTimeout time.Duration
	// MaxAttempts per RPC before a worker is declared dead (default 4;
	// doubled once when the worker's heartbeats still answer — slow,
	// not dead). RetryBudget bounds total retries per run (default
	// 256).
	MaxAttempts int
	RetryBudget int
	// BackoffBase/BackoffMax shape the jittered exponential backoff
	// between attempts (defaults 25ms / 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HeartbeatEvery / HeartbeatMisses configure the /healthz prober
	// (defaults 250ms / 4 consecutive misses ⇒ dead).
	HeartbeatEvery  time.Duration
	HeartbeatMisses int

	// Federate enables fleet observability: the coordinator derives a
	// run-scoped trace ID, opens a span tree over the solve, threads
	// trace context on every RPC so workers emit chip_step/slice_sync
	// spans under it, pulls worker event streams each checkpoint round
	// — forwarding them, origin-stamped, to Tracer beside its own
	// "co"-stamped stream, where a diag.Reducer folds the fleet view and
	// obs.WriteChromeTrace renders the fleet trace. Off by default; the
	// disabled path costs one nil check per instrumentation site.
	Federate bool

	// Metrics receives cluster_* instruments; Tracer the run's event
	// stream (EpochSync, EnergySample, Fault, Recovery). Client, when
	// set, issues the HTTP requests (proxies, test transports, a pool
	// shared across runs) and stays the caller's to close; without one the
	// coordinator makes a keep-alive client of its own and closes its idle
	// connections when the solve ends.
	Metrics *obs.Registry
	Tracer  obs.Tracer
	Client  *http.Client
}

func (c Config) withDefaults() (Config, error) {
	if len(c.Workers) == 0 {
		return c, errors.New("cluster: no workers")
	}
	if c.DurationNS <= 0 || math.IsNaN(c.DurationNS) {
		return c, fmt.Errorf("cluster: DurationNS=%v", c.DurationNS)
	}
	if c.Chips == 0 {
		c.Chips = len(c.Workers)
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 8
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 5 * time.Second
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 4
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 256
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = time.Second
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 250 * time.Millisecond
	}
	if c.HeartbeatMisses == 0 {
		c.HeartbeatMisses = 4
	}
	return c, nil
}

// RecoveryStats ledgers the robustness layer's activity for one run.
type RecoveryStats struct {
	RPCRetries      int64   `json:"rpcRetries"`
	WorkerDeaths    int64   `json:"workerDeaths"`
	Recoveries      int64   `json:"recoveries"`
	ReplayedEpochs  int64   `json:"replayedEpochs"`
	HandoffBytes    float64 `json:"handoffBytes"`
	RecoveryStallNS float64 `json:"recoveryStallNS"`
	// Degraded reports that spares ran out and a survivor now hosts
	// more than one slice.
	Degraded bool `json:"degraded,omitempty"`
}

// AllWorkersDeadError reports that a solve ran out of live workers.
// Stats carries the recovery ledger as of the collapse, so callers can
// see what the fabric already absorbed (retries spent, prior worker
// deaths, replayed epochs) before the final loss — the run is
// unrecoverable but the accounting is intact.
type AllWorkersDeadError struct {
	Stats RecoveryStats
	Cause error
}

func (e *AllWorkersDeadError) Error() string {
	return fmt.Sprintf("cluster: no workers left (%v)", e.Cause)
}

func (e *AllWorkersDeadError) Unwrap() error { return e.Cause }

// Result reports a distributed solve: multichip's Result — with no
// faults injected, bit-identical to System.RunConcurrent's — plus what
// only a fabric of processes has, its recovery ledger and live workers.
type Result struct {
	multichip.Result
	Recovery    RecoveryStats
	LiveWorkers int
}

// Coordinator drives one distributed solve. Build with New, run with
// Solve (once).
type Coordinator struct {
	cfg   Config
	model *ising.Model
	n     int
	// view is what the run's energies are read through (lattice.Energy:
	// popcounts on a ±1 matrix, O(nnz) over CSR), taken once by Solve.
	view lattice.Coupling
	// mc and parts are multichip's own derivation for this run — the
	// validated configuration with its defaults (epoch length, channels)
	// and the partition every worker's NewSlice derives too.
	mc    multichip.Config
	parts [][]int
	// modelWire is the model as every slice creation sends it, encoded
	// on the first: recovery and hand-off re-create from the same frame.
	modelWire *ModelWire
	tr        *transport
	// tracer is the run's effective event sink: cfg.Tracer directly, or
	// — when federating — cfg.Tracer behind the run's trace ID and the
	// "co" origin stamp. fed is nil unless cfg.Federate.
	tracer obs.Tracer
	fed    *federation

	fabric *interconnect.Fabric
	runID  string
	gen    int   // slice-id incarnation, bumped each recovery
	assign []int // slice -> worker index

	// pos is the run's position ledger, the same one an in-process run
	// keeps (its flip counters stay zero: flips are read off the
	// machines, below).
	pos          multichip.Position
	spins        []int8 // global readout mirror
	flips        int64  // cumulative machine flips at last barrier
	inducedFlips int64
	// pendingSync[d] is barrier EpochsDone's payload for slice d, in the
	// packed form it arrived and leaves in; synced marks it already
	// delivered via a /sync (checkpoint) round.
	pendingSync [][]byte
	synced      bool
	// lastCkpt is the rollback point: where the run starts (no slice
	// states, or the checkpoint a resume supplied) until the first
	// coordinated checkpoint, then every slice's post-sync snapshot at one
	// barrier with the ledger and fabric as of it — the checkpoint an
	// interrupt hands to the in-process engine as is.
	lastCkpt *multichip.Checkpoint
	stats    RecoveryStats

	// lanes are the run's fan-out goroutines, one per slice (openLanes);
	// laneWG waits for them to exit.
	lanes  []chan func()
	laneWG sync.WaitGroup
}

// New validates the configuration and builds a coordinator for the
// model. runID scopes the slice ids on the workers; distinct runs must
// use distinct ids.
func New(m *ising.Model, runID string, cfg Config) (*Coordinator, error) {
	co, err := prepare(m, cfg)
	if err != nil {
		return nil, err
	}
	co.name(runID)
	return co, nil
}

// prepare is New before the run has a name: everything that can reject
// the configuration. What the engine would reject — chips, epoch
// length, channels — is rejected by the engine's own validation,
// through the configuration the slices will be built from.
func prepare(m *ising.Model, cfg Config) (*Coordinator, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	co := &Coordinator{cfg: c, model: m, n: m.N()}
	mcfg := co.sliceConfig().multichipConfig()
	mcfg.Channels, mcfg.ChannelBytesPerNS = c.Channels, c.ChannelBytesPerNS
	if co.mc, co.parts, err = multichip.Partition(co.n, mcfg); err != nil {
		return nil, err
	}
	if co.fabric, err = interconnect.New(c.Chips, co.mc.Channels, c.ChannelBytesPerNS); err != nil {
		return nil, err
	}
	co.lastCkpt = &multichip.Checkpoint{Mode: multichip.ModeConcurrent, DurationNS: c.DurationNS,
		Fabric: co.fabric.Snapshot()}
	co.tr = newTransport(c, c.Workers)
	co.assign = make([]int, c.Chips)
	co.spins = make([]int8, co.n)
	for s := range co.assign {
		co.assign[s] = s % len(c.Workers)
	}
	return co, nil
}

// name binds the run id: the slice-id scope and, when federating, the
// run's trace identity.
func (co *Coordinator) name(runID string) {
	co.runID = runID
	co.tracer = co.cfg.Tracer
	if co.cfg.Federate {
		co.fed = newFederation(co.cfg, runID, len(co.cfg.Workers))
		co.tracer = obs.StampTracer(co.cfg.Tracer, co.fed.traceID, "co")
		co.fed.spans = obs.NewSpanner(co.tracer)
	}
}

// slicePath is the worker route of incarnation gen of slice s.
func (co *Coordinator) slicePath(s, gen int) string {
	return fmt.Sprintf("/worker/slices/%s-s%d-g%d", co.runID, s, gen)
}

func (co *Coordinator) emit(e obs.Event) {
	if co.tracer != nil {
		co.tracer.Emit(e)
	}
}

func (co *Coordinator) metric() *obs.Registry { return co.cfg.Metrics }

// Solve runs the distributed solve to completion, bracketed by its own
// RunStart/RunEnd events. On context cancellation it returns the
// partial result, a PR-3 checkpoint envelope the in-process engine
// ("mbrim") and the cluster engine can resume, and ctx.Err().
func (co *Coordinator) Solve(ctx context.Context) (*Result, []byte, error) {
	co.emit(obs.Event{Kind: obs.RunStart, Label: "cluster", Seed: co.cfg.Seed, Count: int64(co.n)})
	res, env, err := co.run(ctx)
	if err == nil {
		co.emit(obs.Event{Kind: obs.RunEnd, Label: "cluster", Seed: co.cfg.Seed,
			Value: res.Energy, ModelNS: res.ModelNS, Count: res.Flips})
	}
	return res, env, err
}

// run is Solve without the bracket — what the registered engine calls,
// inside the one core.SolveCtx emits for every engine.
func (co *Coordinator) run(ctx context.Context) (*Result, []byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	co.view = co.model.View(lattice.Auto)
	// Whatever way the run ends — completed, interrupted (after its
	// checkpoint is collected) or failed — its slices leave the workers,
	// its lanes exit and a transport that made its own connections
	// closes them.
	defer co.closeLanes()
	defer co.tr.close()
	co.tr.startProber()
	defer co.tr.stopProber()
	defer func() { co.releaseSlices(co.gen, co.assign) }()
	if co.fed != nil {
		co.fed.runSpan = co.fed.spans.Start("cluster_run", obs.Span{}, -1, 0)
		co.handshakeClocks(ctx)
	}
	states, err := co.restoreTo(co.lastCkpt)
	if err != nil {
		return nil, nil, err
	}
	// Slice creation, once begun, finishes on every slice under a
	// deadline of its own, whatever the run's cancellation: a cancel
	// inside it would leave some slices created and some not, with no
	// cut to return. The cancellation is seen at the first barrier.
	cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*co.cfg.RPCTimeout)
	err = co.createSlices(cctx, states)
	cancel()
	if err != nil {
		if wd := asWorkerDead(err); wd != nil {
			if rerr := co.recover(ctx, wd); rerr != nil {
				return nil, nil, rerr
			}
		} else {
			return nil, nil, err
		}
	}
	for !co.done() {
		select {
		case <-ctx.Done():
			return co.interrupted(ctx)
		default:
		}
		err := co.stepEpoch(ctx)
		if err == nil {
			continue
		}
		if wd := asWorkerDead(err); wd != nil {
			if rerr := co.recover(ctx, wd); rerr != nil {
				return nil, nil, rerr
			}
			continue
		}
		if ctx.Err() != nil {
			// The cancellation struck mid-step and surfaced through the
			// transport; this is an interrupt, not a failure. It leaves a
			// completable barrier, not a torn one — the step RPC is
			// idempotent (workers replay the cached report) — so the
			// in-flight epoch is finished under a private deadline before
			// the cut.
			bg, cancel := context.WithTimeout(context.Background(), 2*co.cfg.RPCTimeout)
			_ = co.stepEpoch(bg) // best effort; failure falls back to lastCkpt
			cancel()
			return co.interrupted(ctx)
		}
		return nil, nil, err
	}
	res := co.partialResult()
	co.finishFederation(res)
	co.recordRunMetrics(res)
	return res, nil, nil
}

// interrupted assembles the cancellation return at the barrier the run
// stands at, the one System cuts at: partial result plus a resume
// envelope when a consistent cut can still be captured.
func (co *Coordinator) interrupted(ctx context.Context) (*Result, []byte, error) {
	res := co.partialResult()
	env, err := co.interruptCheckpoint()
	// Final federation pull after the interrupt checkpoint, so the
	// merged trace covers the checkpoint round's sync spans too.
	co.finishFederation(res)
	if err != nil {
		// No consistent cut available (e.g. cancelled before the first
		// coordinated checkpoint with workers torn): surface the partial
		// result without resume bytes rather than masking the interrupt.
		return res, nil, ctx.Err()
	}
	return res, env, ctx.Err()
}

func asWorkerDead(err error) *workerDeadError {
	var wd *workerDeadError
	if errors.As(err, &wd) {
		return wd
	}
	return nil
}

// sliceConfig is the wire configuration every slice shares.
func (co *Coordinator) sliceConfig() SliceConfig {
	return SliceConfig{
		Chips:       co.cfg.Chips,
		EpochNS:     co.cfg.EpochNS,
		Coordinated: co.cfg.Coordinated,
		Seed:        co.cfg.Seed,
		DurationNS:  co.cfg.DurationNS,
	}
}

// createSlices PUTs every slice onto its assigned worker, restoring
// states[s] when provided (none means create fresh).
func (co *Coordinator) createSlices(ctx context.Context, states []*multichip.SliceState) error {
	if co.modelWire == nil {
		co.modelWire = ModelToWire(co.model)
	}
	scfg := co.sliceConfig()
	return co.forEachSlice(ctx, func(ctx context.Context, s int) error {
		req := &CreateSliceRequest{Slice: s, Model: co.modelWire, Config: scfg}
		if len(states) > 0 {
			req.State = packState(states[s])
		}
		if co.fed != nil {
			req.Trace = &TraceContext{
				RunID:    co.runID,
				TraceID:  co.fed.traceID,
				SpanBase: co.fed.spanBase(co.gen, s),
				Parent:   co.fed.runSpan.ID(),
			}
		}
		return co.tr.do(ctx, co.assign[s], http.MethodPut, co.slicePath(s, co.gen), req, nil)
	})
}

// forEachSlice runs f for every slice concurrently, slice s on lane s,
// and merges failures deterministically: worker-dead errors win
// (recovery must see the death even when another slice failed
// differently), then the lowest failing slice's error.
func (co *Coordinator) forEachSlice(ctx context.Context, f func(ctx context.Context, s int) error) error {
	if co.lanes == nil {
		co.openLanes()
	}
	errs := make([]error, co.cfg.Chips)
	var wg sync.WaitGroup
	wg.Add(len(co.lanes))
	for s, lane := range co.lanes {
		lane <- func() {
			defer wg.Done()
			errs[s] = f(ctx, s)
		}
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if wd := asWorkerDead(err); wd != nil {
			return wd
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// openLanes starts one goroutine per slice that runs every fan-out job
// handed to it until closeLanes. A lane lives as long as its run, so its
// stack grows into net/http and encoding/json once, not once per epoch.
func (co *Coordinator) openLanes() {
	co.lanes = make([]chan func(), co.cfg.Chips)
	for s := range co.lanes {
		lane := make(chan func(), 1)
		co.lanes[s] = lane
		co.laneWG.Add(1)
		go func() {
			defer co.laneWG.Done()
			for job := range lane {
				job()
			}
		}()
	}
}

// closeLanes ends the lanes and waits for them to exit; every fan-out
// has returned by then, so no job is left queued.
func (co *Coordinator) closeLanes() {
	for _, lane := range co.lanes {
		close(lane)
	}
	co.laneWG.Wait()
	co.lanes = nil
}

// done reports whether the run has reached its horizon.
func (co *Coordinator) done() bool { return co.pos.ModelNS >= co.cfg.DurationNS-1e-9 }

// checkReport validates a worker's epoch report against what the
// barrier is about to do with it: mirror the packed readout into the
// owned spins, charge the update count against the slice size, and
// forward the packed updates to every other slice. The readout must be
// exactly one bit per owned spin with zero padding; the update list must
// be whole words whose global indices are owned by the slice in
// ascending order (so at most one per owned spin — the walk along owned
// is where the sender's local index is re-derived) and whose values are
// what the readout holds for those spins, as a slice's diff always
// reports. Workers are remote processes; a report the slice could not
// have produced fails the run instead of corrupting or crashing the
// coordinator.
func checkReport(rep *ReportWire, epoch int, owned []int) error {
	if rep == nil || rep.Epoch != epoch || len(rep.Spins) != (len(owned)+7)/8 {
		return errors.New("wrong epoch or readout size")
	}
	if pad := len(owned) % 8; pad != 0 && rep.Spins[len(rep.Spins)-1]>>pad != 0 {
		return errors.New("readout padding bits set")
	}
	if len(rep.Updates)%4 != 0 {
		return fmt.Errorf("update list of %d bytes", len(rep.Updates))
	}
	li := 0
	for k := 0; k < len(rep.Updates)/4; k++ {
		word := updateWord(rep.Updates, k)
		g := int(word >> updShift)
		for li < len(owned) && owned[li] < g {
			li++
		}
		if li == len(owned) || owned[li] != g || (spinAt(rep.Spins, li) > 0) != (word&updUp != 0) {
			return fmt.Errorf("update %d (word %#x) for spin %d", k, word, g)
		}
		li++
	}
	return nil
}

// stepEpoch drives one epoch across all slices: step RPCs with sync
// payloads batched in, then the coordinator-side barrier — fabric
// accounting, belief bookkeeping, next payloads, checkpoint cadence.
func (co *Coordinator) stepEpoch(ctx context.Context) error {
	pos := &co.pos
	epochNS := math.Min(co.mc.EpochNS, co.cfg.DurationNS-pos.ModelNS)
	target := pos.EpochsDone + 1
	reps := make([]*ReportWire, co.cfg.Chips)
	// The epoch interval opens before the step RPCs go out so its ID can
	// ride in StepRequest.Parent — workers parent their chip_step spans
	// under it. Per-slice RPC walls are measured in the fan-out
	// goroutines and recorded as step_rpc spans at the barrier, on the
	// orchestration goroutine, keeping span IDs deterministic.
	var epochSpan obs.Span
	var rpcWall []int64
	if co.fed != nil {
		epochSpan = co.fed.spans.Start("epoch", co.fed.runSpan, -1, pos.ModelNS)
		rpcWall = make([]int64, co.cfg.Chips)
	}
	err := co.forEachSlice(ctx, func(ctx context.Context, s int) error {
		req := &StepRequest{Epoch: target, Parent: epochSpan.ID()}
		if !co.synced && co.pendingSync != nil {
			req.Sync = co.pendingSync[s]
		}
		var resp StepResponse
		start := time.Now()
		if err := co.tr.do(ctx, co.assign[s], http.MethodPost, co.slicePath(s, co.gen)+"/step", req, &resp); err != nil {
			return err
		}
		if rpcWall != nil {
			rpcWall[s] = time.Since(start).Nanoseconds()
		}
		if err := checkReport(resp.Report, target, co.parts[s]); err != nil {
			return fmt.Errorf("cluster: slice %d returned a malformed epoch report: %w", s, err)
		}
		reps[s] = resp.Report
		return nil
	})
	if err != nil {
		epochSpan.End(pos.ModelNS, nil)
		return err
	}

	// Barrier bookkeeping, in ascending slice order — the same
	// accumulation order System.syncEpoch uses.
	pos.EpochsDone = target
	pos.ModelNS += epochNS
	var changes, induced, retries int64
	co.flips, co.inducedFlips = 0, 0
	next := make([][]byte, co.cfg.Chips)
	for s, rep := range reps {
		for li, g := range co.parts[s] {
			co.spins[g] = spinAt(rep.Spins, li)
		}
		co.flips += rep.Flips
		co.inducedFlips += rep.InducedFlips
		retries += rep.StepRetries
		if co.cfg.Chips > 1 && len(rep.Updates) > 0 {
			count := len(rep.Updates) / 4
			changes += int64(count)
			induced += inducedUpdates(rep.Updates)
			co.fabric.Record(s, interconnect.DeltaSyncBytes(count, len(co.parts[s]), co.cfg.Chips-1))
			for d := 0; d < co.cfg.Chips; d++ {
				if d != s {
					next[d] = append(next[d], rep.Updates...)
				}
			}
		}
	}
	pos.BitChanges += changes
	pos.InducedBitChanges += induced
	if retries > 0 {
		// The workers drained their guardrail retries at the barrier;
		// they count where System's drainStepRetries counts them.
		co.metric().Counter("brim.step_retries").Add(retries)
	}
	co.pendingSync = next
	co.synced = false
	co.emit(obs.Event{Kind: obs.EpochSync, Epoch: pos.EpochsDone, ModelNS: pos.ModelNS,
		Count: changes, Induced: induced})

	stall := co.fabric.EndEpoch(epochNS)
	pos.ElapsedNS += epochNS + stall
	if co.fed != nil {
		for s := range reps {
			co.fed.spans.Complete("step_rpc", epochSpan, s,
				pos.ModelNS-epochNS, epochNS, rpcWall[s], nil)
		}
		co.fed.spans.Complete("fabric_settle", epochSpan, -1, pos.ModelNS, 0, 0,
			&obs.Event{StallNS: stall})
		epochSpan.End(pos.ModelNS, &obs.Event{Count: changes, StallNS: stall})
	}
	if co.metric() != nil {
		co.metric().Histogram("cluster.epoch_stall_ns").Observe(stall)
		co.metric().Counter("cluster.epochs").Inc()
	}
	if co.cfg.SampleEveryNS > 0 && pos.ElapsedNS >= pos.NextSampleNS {
		energy := co.energy(co.spins)
		pos.Trace = append(pos.Trace, metrics.Point{X: pos.ElapsedNS, Y: energy})
		co.emit(obs.Event{Kind: obs.EnergySample, Epoch: pos.EpochsDone, ModelNS: pos.ElapsedNS, Value: energy})
		pos.NextSampleNS = pos.ElapsedNS + co.cfg.SampleEveryNS
	}

	if !co.done() && pos.EpochsDone%co.cfg.CheckpointEvery == 0 {
		if err := co.checkpointRound(ctx); err != nil {
			return err
		}
	}
	return nil
}

// checkpointRound delivers the open barrier to every slice via /sync
// (so snapshots are post-sync — a genuine epoch-barrier cut) and saves
// the rollback point. Like slice creation, the round finishes on every
// slice whatever the run's cancellation: cut, it would leave some
// slices synced and some not, and no consistent cut to interrupt at.
func (co *Coordinator) checkpointRound(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*co.cfg.RPCTimeout)
	defer cancel()
	pos := &co.pos
	states := make([]*multichip.SliceState, co.cfg.Chips)
	var ckSpan obs.Span
	var rpcWall []int64
	if co.fed != nil {
		ckSpan = co.fed.spans.Start("checkpoint_round", co.fed.runSpan, -1, pos.ModelNS)
		rpcWall = make([]int64, co.cfg.Chips)
	}
	err := co.forEachSlice(ctx, func(ctx context.Context, s int) error {
		req := &SyncRequest{Epoch: pos.EpochsDone, Parent: ckSpan.ID()}
		if !co.synced && co.pendingSync != nil {
			req.Sync = co.pendingSync[s]
		}
		var resp SyncResponse
		start := time.Now()
		if err := co.tr.do(ctx, co.assign[s], http.MethodPost, co.slicePath(s, co.gen)+"/sync", req, &resp); err != nil {
			return err
		}
		if rpcWall != nil {
			rpcWall[s] = time.Since(start).Nanoseconds()
		}
		st, err := unpackState(resp.State)
		if err != nil {
			return fmt.Errorf("cluster: slice %d returned a malformed snapshot: %w", s, err)
		}
		if st.Epochs != pos.EpochsDone || !co.ownsSlice(s, &st.State) {
			return fmt.Errorf("cluster: slice %d returned a stale or malformed snapshot", s)
		}
		states[s] = st
		return nil
	})
	if err != nil {
		ckSpan.End(pos.ModelNS, nil)
		return err
	}
	co.synced = true
	ck := &multichip.Checkpoint{Mode: multichip.ModeConcurrent, DurationNS: co.cfg.DurationNS,
		Position: pos.Clone(), Fabric: co.fabric.Snapshot()}
	ck.SetSlices(states)
	co.lastCkpt = ck
	if co.metric() != nil {
		co.metric().Counter("cluster.checkpoints").Inc()
	}
	if co.fed != nil {
		for s := range states {
			co.fed.spans.Complete("sync_rpc", ckSpan, s, pos.ModelNS, 0, rpcWall[s], nil)
		}
		ckSpan.End(pos.ModelNS, nil)
		// Federation rides the checkpoint cadence: one pull + scrape
		// round per rollback point, plus the final catch-up at run end.
		co.federateRound(ctx)
	}
	return nil
}

// recover handles a declared-dead worker: reassign its slices onto the
// least-loaded survivors (spares absorb first), roll every slice back
// to the last coordinated checkpoint, and charge the hand-off and the
// replayed work into the ledgers. The replay is deterministic, so the
// final trajectory is bit-identical to a run that never lost the
// worker.
func (co *Coordinator) recover(ctx context.Context, wd *workerDeadError) error {
	co.stats.WorkerDeaths++
	co.emit(obs.Event{Kind: obs.Fault, Label: "worker-loss", Epoch: co.pos.EpochsDone, Chip: wd.worker})
	if co.metric() != nil {
		co.metric().Counter("cluster.worker_deaths").Inc()
	}

	survivors := make([]int, 0, len(co.cfg.Workers))
	for wi := range co.cfg.Workers {
		if co.tr.alive(wi) {
			survivors = append(survivors, wi)
		}
	}
	if len(survivors) == 0 {
		stats := co.stats
		stats.RPCRetries = co.tr.retries.Load()
		return &AllWorkersDeadError{Stats: stats, Cause: wd}
	}

	// Reassign every slice hosted on a dead worker to the survivor
	// carrying the fewest slices, ties to the lowest worker index —
	// deterministic, and spares (load 0) absorb first.
	prevGen, prevAssign := co.gen, slices.Clone(co.assign)
	load := make([]int, len(co.cfg.Workers))
	for _, wi := range co.assign {
		if co.tr.alive(wi) {
			load[wi]++
		}
	}
	moved := make([]bool, co.cfg.Chips)
	movedSpins := 0
	for s, wi := range co.assign {
		if co.tr.alive(wi) {
			continue
		}
		best := survivors[0]
		for _, cand := range survivors[1:] {
			if load[cand] < load[best] {
				best = cand
			}
		}
		co.assign[s] = best
		load[best]++
		moved[s] = true
		movedSpins += len(co.parts[s])
	}
	for _, wi := range survivors {
		if load[wi] > 1 {
			co.stats.Degraded = true
		}
	}

	// Roll back: every slice (survivors included) returns to the
	// rollback point — the last coordinated checkpoint, or where the run
	// started when there is none yet.
	replayed := int64(co.pos.EpochsDone - co.lastCkpt.EpochsDone)
	states, err := co.restoreTo(co.lastCkpt)
	if err != nil {
		return err
	}
	co.stats.ReplayedEpochs += replayed

	// Charge the recovery honestly: a full-state resync for every slice
	// that changed hosts, plus reprogramming stall — the same policy
	// the modeled fault layer applies to its repartitions.
	handoffBytes := 0.0
	for s := range co.assign {
		if moved[s] {
			b := interconnect.DeltaSyncBytes(len(co.parts[s]), len(co.parts[s]), 1)
			co.fabric.Record(s, b)
			handoffBytes += b
		}
	}
	recoveryStall := 0.0
	if movedSpins > 0 {
		recoveryStall = float64(float64(movedSpins) * interconnect.ReprogramNSPerSpin)
		co.fabric.AddStall(recoveryStall)
		co.pos.ElapsedNS += recoveryStall
	}
	co.stats.RecoveryStallNS += recoveryStall
	co.stats.HandoffBytes += handoffBytes

	// Re-create every slice under a fresh incarnation; the superseded
	// one leaves the survivors whether or not its successor came up.
	co.gen++
	err = co.createSlices(ctx, states)
	co.releaseSlices(prevGen, prevAssign)
	if err != nil {
		if next := asWorkerDead(err); next != nil {
			// Another worker died during recovery: recurse. The survivor
			// set shrinks monotonically, so this terminates.
			return co.recover(ctx, next)
		}
		return err
	}
	co.stats.Recoveries++
	co.emit(obs.Event{Kind: obs.Recovery, Label: "rollback-replay", Epoch: co.pos.EpochsDone,
		Chip: wd.worker, Count: replayed, StallNS: recoveryStall})
	if co.fed != nil {
		// Zero-width marker on the merged trace: where the rollback
		// landed, how many epochs replay, what stall was charged.
		co.fed.spans.Complete("recovery", co.fed.runSpan, wd.worker, co.pos.ModelNS, 0, 0,
			&obs.Event{Count: replayed, StallNS: recoveryStall})
	}
	if co.metric() != nil {
		co.metric().Counter("cluster.recoveries").Inc()
		co.metric().Counter("cluster.replayed_epochs").Add(replayed)
		co.metric().Gauge("cluster.recovery_stall_ns").Add(recoveryStall)
		co.metric().Gauge("cluster.handoff_bytes").Add(handoffBytes)
		co.metric().Gauge("cluster.live_workers").Set(float64(len(survivors)))
	}
	return nil
}

// restoreTo returns the coordinator's side of the run to ck — fabric,
// position ledger, spin mirror and flip counters — and hands back the
// slice states to re-create the slices from (none when ck is a run's
// start: they are created fresh). It is how a worker loss rolls back,
// and how every run starts: at its lastCkpt.
func (co *Coordinator) restoreTo(ck *multichip.Checkpoint) ([]*multichip.SliceState, error) {
	states, err := ck.SliceStates()
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if err := co.fabric.Restore(ck.Fabric); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	co.pos = ck.Position.Clone()
	co.flips, co.inducedFlips = 0, 0
	for _, cs := range ck.Chips {
		for li, g := range cs.Owned {
			co.spins[g] = cs.Machine.Spins[li]
		}
		co.flips += cs.Machine.Flips
		co.inducedFlips += cs.Machine.Induced
	}
	co.pendingSync, co.synced = nil, true // checkpointed states are post-sync
	return states, nil
}

// ownsSlice reports whether cs can be slice s's state as far as the
// coordinator reads it (restoreTo mirrors its readout and flip
// counters); the worker that restores it validates the rest.
func (co *Coordinator) ownsSlice(s int, cs *multichip.ChipState) bool {
	return cs.Machine != nil && slices.Equal(cs.Owned, co.parts[s]) && len(cs.Machine.Spins) == len(co.parts[s])
}

// resumeFrom makes ck — a concurrent-mode checkpoint of this model,
// seed and configuration, whoever took it: a coordinator or the
// in-process engine — the point the run starts from. The bytes are
// untrusted: the run-level checks are System's own (CheckRun), and what
// the coordinator itself will read is checked here.
func (co *Coordinator) resumeFrom(ck *multichip.Checkpoint) error {
	if err := ck.CheckRun(multichip.ModeConcurrent, co.cfg.DurationNS, 0); err != nil {
		return err
	}
	switch {
	case ck.Fault != nil:
		return errors.New("cluster: checkpoint carries fault-layer state, which has no distributed form")
	case len(ck.Chips) != co.cfg.Chips:
		return fmt.Errorf("cluster: checkpoint has %d chips, resuming %d", len(ck.Chips), co.cfg.Chips)
	}
	for s := range ck.Chips {
		if !co.ownsSlice(s, &ck.Chips[s]) {
			return fmt.Errorf("cluster: checkpoint chip %d is not slice %d of this partition", s, s)
		}
	}
	co.lastCkpt = ck
	return nil
}

// releaseSlices deletes incarnation gen of every slice from the live
// worker assign placed it on. Best effort, one attempt each under one
// short deadline of its own (the run context may be cancelled): a worker
// that misses the delete keeps an orphan until it restarts, which costs
// capacity there and never correctness here.
func (co *Coordinator) releaseSlices(gen int, assign []int) {
	ctx, cancel := context.WithTimeout(context.Background(), co.cfg.RPCTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for s, wi := range assign {
		if !co.tr.alive(wi) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = co.tr.once(ctx, wi, http.MethodDelete, co.slicePath(s, gen), nil, nil)
		}()
	}
	wg.Wait()
}

// energy is model.Energy(spins), bit for bit, at what the coupling view
// makes it cost.
func (co *Coordinator) energy(spins []int8) float64 {
	return lattice.Energy(co.view, spins, co.model.MuH())
}

// partialResult assembles the result at the current barrier.
func (co *Coordinator) partialResult() *Result {
	pos := &co.pos
	res := &Result{Result: multichip.Result{
		ModelNS:              pos.ModelNS,
		StallNS:              co.fabric.StallNS(),
		ElapsedNS:            pos.ElapsedNS,
		Flips:                co.flips,
		InducedFlips:         co.inducedFlips,
		BitChanges:           pos.BitChanges,
		InducedBitChanges:    pos.InducedBitChanges,
		TrafficBytes:         co.fabric.TotalBytes(),
		PeakDemandBytesPerNS: co.fabric.PeakDemand(),
		Epochs:               pos.EpochsDone,
		Trace:                append([]metrics.Point(nil), pos.Trace...),
		LiveChips:            co.cfg.Chips,
	}, Recovery: co.stats}
	res.Recovery.RPCRetries = co.tr.retries.Load()
	res.Spins = append([]int8(nil), co.spins...)
	res.Energy = co.energy(res.Spins)
	for wi := range co.cfg.Workers {
		if co.tr.alive(wi) {
			res.LiveWorkers++
		}
	}
	return res
}

// interruptCheckpoint collects post-sync snapshots at the current
// barrier and wraps the resulting rollback point — already the
// checkpoint the in-process concurrent engine resumes — in a PR-3
// envelope. The run context is already cancelled, so the collection
// round runs under its own deadline.
func (co *Coordinator) interruptCheckpoint() ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*co.cfg.RPCTimeout)
	defer cancel()
	// If collection fails but an earlier coordinated checkpoint exists,
	// fall back to it — older, but still a consistent cut. The run's
	// start is not one: it holds no slice states.
	if err := co.checkpointRound(ctx); err != nil && len(co.lastCkpt.Chips) == 0 {
		return nil, err
	}
	return checkpoint.Encode(&checkpoint.File{
		Engine:    string(core.MBRIMConcurrent),
		Seed:      co.cfg.Seed,
		N:         co.n,
		ModelHash: checkpoint.HashModel(co.model),
		Multichip: co.lastCkpt,
	})
}

// recordRunMetrics publishes a finished run's totals.
func (co *Coordinator) recordRunMetrics(res *Result) {
	m := co.metric()
	if m == nil {
		return
	}
	m.SetHelp("cluster.solves", "completed cluster solves")
	m.Counter("cluster.solves").Inc()
	m.Counter("cluster.bit_changes").Add(res.BitChanges)
	m.Counter("cluster.rpc_retries").Add(res.Recovery.RPCRetries)
	m.Gauge("cluster.stall_ns").Add(res.StallNS)
	m.Gauge("cluster.traffic_bytes").Add(res.TrafficBytes)
	m.Gauge("cluster.live_workers").Set(float64(res.LiveWorkers))
}
