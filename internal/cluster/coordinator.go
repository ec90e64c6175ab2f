package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"mbrim/internal/checkpoint"
	"mbrim/internal/graph"
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
	// EpochNS, FlipIntervalNS, Coordinated, Seed, Backend and the
	// induced-flip ramp mean exactly what they mean in
	// multichip.Config.
	EpochNS        float64
	FlipIntervalNS float64
	Coordinated    bool
	Seed           uint64
	Backend        string
	InducedFrom    float64
	InducedTo      float64
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
	// HandoffNSPerSpin is the modeled reprogramming stall charged per
	// spin of every slice that changes hosts during recovery (default
	// 10, the fault layer's repartition figure).
	HandoffNSPerSpin float64

	// OnEpoch, if non-nil, runs after every completed barrier — the
	// deterministic injection point chaos harnesses use (e.g.
	// blackhole a proxy at epoch 7).
	OnEpoch func(epoch int)

	// Federate enables fleet observability: the coordinator derives a
	// run-scoped trace ID, opens a span tree over the solve, threads
	// trace context on every RPC so workers emit chip_step/slice_sync
	// spans under it, pulls worker event streams each checkpoint round,
	// and scrapes worker metrics into worker-labeled fleet_* series.
	// The merged trace is served by FederatedEvents / TraceID, the
	// cluster diagnostics by FleetDiag. Off by default; the disabled
	// path costs one nil check per instrumentation site.
	Federate bool

	// Metrics receives cluster_* instruments; Tracer the run's event
	// stream (EpochSync, EnergySample, Fault, Recovery). Client, when
	// set, issues the HTTP requests (proxies, test transports).
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
	if c.Chips < 1 {
		return c, fmt.Errorf("cluster: Chips=%d", c.Chips)
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
	if c.HandoffNSPerSpin == 0 {
		c.HandoffNSPerSpin = 10
	}
	if c.Backend != "" {
		if _, err := lattice.ParseKind(c.Backend); err != nil {
			return c, fmt.Errorf("cluster: %w", err)
		}
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

// Result reports a distributed solve. The solver fields carry the
// multichip.Result semantics; with no faults injected they are
// bit-identical to the in-process run's.
type Result struct {
	Spins                []int8
	Energy               float64
	ModelNS              float64
	StallNS              float64
	ElapsedNS            float64
	Flips                int64
	InducedFlips         int64
	BitChanges           int64
	InducedBitChanges    int64
	TrafficBytes         float64
	PeakDemandBytesPerNS float64
	Epochs               int
	Trace                []metrics.Point
	Recovery             RecoveryStats
	LiveWorkers          int
}

// clusterCheckpoint is the coordinator's rollback point: every slice's
// post-sync snapshot at one barrier plus the coordinator-side position.
type clusterCheckpoint struct {
	epoch             int
	modelNS           float64
	elapsedNS         float64
	nextNS            float64
	bitChanges        int64
	inducedBitChanges int64
	trace             []metrics.Point
	states            []*multichip.SliceState
	fabric            *interconnect.State
}

// Coordinator drives one distributed solve. Build with New, run with
// Solve (once).
type Coordinator struct {
	cfg   Config
	model *ising.Model
	n     int
	parts [][]int
	tr    *transport
	// tracer is the run's effective event sink: cfg.Tracer directly, or
	// — when federating — a stamping fan-out that also feeds the
	// federation ring and the fleet reducer. fed is nil unless
	// cfg.Federate.
	tracer obs.Tracer
	fed    *federation

	fabric *interconnect.Fabric
	runID  string
	gen    int   // slice-id incarnation, bumped each recovery
	assign []int // slice -> worker index

	epoch             int
	modelNS           float64
	elapsedNS         float64
	nextNS            float64
	bitChanges        int64
	inducedBitChanges int64
	trace             []metrics.Point
	spins             []int8 // global readout mirror
	flips             int64  // cumulative machine flips at last barrier
	inducedFlips      int64
	// pendingSync[d] is barrier `epoch`'s payload for slice d; synced
	// marks it already delivered via a /sync (checkpoint) round.
	pendingSync [][]multichip.PendingUpdate
	synced      bool
	lastCkpt    *clusterCheckpoint
	stats       RecoveryStats

	// Progress, if set, is called after every barrier with the epoch
	// and current elapsed ns (the cluster API's live status feed).
	Progress func(epoch int, elapsedNS float64)
}

// New validates the configuration and builds a coordinator for the
// model. runID scopes the slice ids on the workers; distinct runs must
// use distinct ids.
func New(m *ising.Model, runID string, cfg Config) (*Coordinator, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := m.N()
	if c.Chips > n {
		return nil, fmt.Errorf("cluster: %d chips for %d spins", c.Chips, n)
	}
	fab, err := interconnect.New(c.Chips, valueOr(c.Channels, 3), c.ChannelBytesPerNS)
	if err != nil {
		return nil, err
	}
	co := &Coordinator{
		cfg:    c,
		model:  m,
		n:      n,
		parts:  graph.BlockPartition(n, c.Chips),
		tr:     newTransport(c, c.Workers),
		fabric: fab,
		runID:  runID,
		assign: make([]int, c.Chips),
		spins:  make([]int8, n),
	}
	for s := range co.assign {
		co.assign[s] = s % len(c.Workers)
	}
	co.tracer = c.Tracer
	if c.Federate {
		co.fed = newFederation(c, runID, len(c.Workers))
		co.tracer = obs.StampTracer(obs.Fanout(co.fed.co, co.fed.fleet, c.Tracer),
			co.fed.traceID, "co")
		co.fed.spans = obs.NewSpanner(co.tracer)
	}
	return co, nil
}

func valueOr(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// sliceID names slice s's current incarnation on its worker.
func (co *Coordinator) sliceID(s int) string {
	return fmt.Sprintf("%s-s%d-g%d", co.runID, s, co.gen)
}

func (co *Coordinator) emit(e obs.Event) {
	if co.tracer != nil {
		co.tracer.Emit(e)
	}
}

func (co *Coordinator) metric() *obs.Registry { return co.cfg.Metrics }

// Solve runs the distributed solve to completion. On context
// cancellation it returns the partial result, a PR-3 checkpoint
// envelope the in-process engine ("mbrim") can resume, and ctx.Err().
func (co *Coordinator) Solve(ctx context.Context) (*Result, []byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	co.recordPartitionQuality()
	co.emit(obs.Event{Kind: obs.RunStart, Label: "cluster", Seed: co.cfg.Seed, Count: int64(co.n)})
	co.tr.startProber()
	defer co.tr.stopProber()
	if co.fed != nil {
		co.fed.runSpan = co.fed.spans.Start("cluster_run", obs.Span{}, -1, 0)
		co.handshakeClocks(ctx)
	}
	if err := co.createSlices(ctx, nil); err != nil {
		if wd := asWorkerDead(err); wd != nil {
			if rerr := co.recover(ctx, wd); rerr != nil {
				return nil, nil, rerr
			}
		} else {
			return nil, nil, err
		}
	}
	for co.modelNS < co.cfg.DurationNS-1e-9 {
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
			// transport; this is an interrupt, not a failure.
			return co.interrupted(ctx)
		}
		return nil, nil, err
	}
	res := co.partialResult()
	co.finishFederation(res)
	co.recordRunMetrics(res)
	co.emit(obs.Event{Kind: obs.RunEnd, Label: "cluster", Seed: co.cfg.Seed,
		Value: res.Energy, ModelNS: res.ModelNS, Count: res.Flips})
	return res, nil, nil
}

// interrupted assembles the cancellation return: partial result plus a
// resume envelope when a consistent cut can still be captured. A
// cancellation that struck mid-epoch leaves a completable barrier, not
// a torn one — the step RPC is idempotent (workers replay the cached
// report) — so the in-flight epoch is finished under a private deadline
// before checkpointing.
func (co *Coordinator) interrupted(ctx context.Context) (*Result, []byte, error) {
	if co.modelNS < co.cfg.DurationNS-1e-9 {
		bg, cancel := context.WithTimeout(context.Background(), 2*co.cfg.RPCTimeout)
		_ = co.stepEpoch(bg) // best effort; failure falls back to lastCkpt
		cancel()
	}
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
		Chips:          co.cfg.Chips,
		EpochNS:        co.cfg.EpochNS,
		FlipIntervalNS: co.cfg.FlipIntervalNS,
		Coordinated:    co.cfg.Coordinated,
		Seed:           co.cfg.Seed,
		DurationNS:     co.cfg.DurationNS,
		Backend:        co.cfg.Backend,
		InducedFrom:    co.cfg.InducedFrom,
		InducedTo:      co.cfg.InducedTo,
	}
}

// createSlices PUTs every slice onto its assigned worker, restoring
// states[s] when provided (nil means create fresh).
func (co *Coordinator) createSlices(ctx context.Context, states []*multichip.SliceState) error {
	mw := ModelToWire(co.model)
	scfg := co.sliceConfig()
	return co.forEachSlice(ctx, func(ctx context.Context, s int) error {
		req := &CreateSliceRequest{Slice: s, Model: mw, Config: scfg}
		if states != nil {
			req.State = states[s]
		}
		if co.fed != nil {
			req.Trace = &TraceContext{
				RunID:    co.runID,
				TraceID:  co.fed.traceID,
				SpanBase: co.fed.spanBase(co.gen, s),
				Parent:   co.fed.runSpan.ID(),
			}
		}
		return co.tr.do(ctx, co.assign[s], http.MethodPut, "/worker/slices/"+co.sliceID(s), req, nil)
	})
}

// forEachSlice runs f for every slice concurrently and merges failures
// deterministically: worker-dead errors win (recovery must see the
// death even when another slice failed differently), then the lowest
// failing slice's error.
func (co *Coordinator) forEachSlice(ctx context.Context, f func(ctx context.Context, s int) error) error {
	errs := make([]error, co.cfg.Chips)
	var wg sync.WaitGroup
	for s := 0; s < co.cfg.Chips; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = f(ctx, s)
		}(s)
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

// stepEpoch drives one epoch across all slices: step RPCs with sync
// payloads batched in, then the coordinator-side barrier — fabric
// accounting, belief bookkeeping, next payloads, checkpoint cadence.
func (co *Coordinator) stepEpoch(ctx context.Context) error {
	epochNS := math.Min(epochOrDefault(co.cfg.EpochNS), co.cfg.DurationNS-co.modelNS)
	target := co.epoch + 1
	reps := make([]*multichip.EpochReport, co.cfg.Chips)
	// The epoch interval opens before the step RPCs go out so its ID can
	// ride in StepRequest.Parent — workers parent their chip_step spans
	// under it. Per-slice RPC walls are measured in the fan-out
	// goroutines and recorded as step_rpc spans at the barrier, on the
	// orchestration goroutine, keeping span IDs deterministic.
	var epochSpan obs.Span
	var rpcWall []int64
	if co.fed != nil {
		epochSpan = co.fed.spans.Start("epoch", co.fed.runSpan, -1, co.modelNS)
		rpcWall = make([]int64, co.cfg.Chips)
	}
	err := co.forEachSlice(ctx, func(ctx context.Context, s int) error {
		req := &StepRequest{Epoch: target, Parent: epochSpan.ID()}
		if !co.synced && co.pendingSync != nil {
			req.Sync = co.pendingSync[s]
		}
		var resp StepResponse
		start := time.Now()
		if err := co.tr.do(ctx, co.assign[s], http.MethodPost, "/worker/slices/"+co.sliceID(s)+"/step", req, &resp); err != nil {
			return err
		}
		if rpcWall != nil {
			rpcWall[s] = time.Since(start).Nanoseconds()
		}
		if resp.Report == nil || resp.Report.Epoch != target || len(resp.Report.Spins) != len(co.parts[s]) {
			return fmt.Errorf("cluster: slice %d returned a malformed epoch report", s)
		}
		reps[s] = resp.Report
		return nil
	})
	if err != nil {
		epochSpan.End(co.modelNS, nil)
		return err
	}

	// Barrier bookkeeping, in ascending slice order — the same
	// accumulation order System.syncEpoch uses.
	co.epoch = target
	co.modelNS += epochNS
	var changes, induced int64
	co.flips, co.inducedFlips = 0, 0
	next := make([][]multichip.PendingUpdate, co.cfg.Chips)
	for s, rep := range reps {
		for li, g := range co.parts[s] {
			co.spins[g] = rep.Spins[li]
		}
		co.flips += rep.Flips
		co.inducedFlips += rep.InducedFlips
		if co.cfg.Chips > 1 && len(rep.Updates) > 0 {
			changes += int64(len(rep.Updates))
			for _, u := range rep.Updates {
				if u.Induced {
					induced++
				}
			}
			co.fabric.Record(s, interconnect.DeltaSyncBytes(len(rep.Updates), len(co.parts[s]), co.cfg.Chips-1), "sync")
			for d := 0; d < co.cfg.Chips; d++ {
				if d != s {
					next[d] = append(next[d], rep.Updates...)
				}
			}
		}
	}
	co.bitChanges += changes
	co.inducedBitChanges += induced
	co.pendingSync = next
	co.synced = false
	co.emit(obs.Event{Kind: obs.EpochSync, Epoch: co.epoch, ModelNS: co.modelNS,
		Count: changes, Induced: induced})

	stall := co.fabric.EndEpoch(epochNS)
	co.elapsedNS += epochNS + stall
	if co.fed != nil {
		for s := range reps {
			co.fed.spans.Complete("step_rpc", epochSpan, s,
				co.modelNS-epochNS, epochNS, rpcWall[s], nil)
		}
		co.fed.spans.Complete("fabric_settle", epochSpan, -1, co.modelNS, 0, 0,
			&obs.Event{StallNS: stall})
		epochSpan.End(co.modelNS, &obs.Event{Count: changes, StallNS: stall})
	}
	if co.metric() != nil {
		co.metric().Histogram("cluster.epoch_stall_ns").Observe(stall)
		co.metric().Counter("cluster.epochs").Inc()
	}
	if co.cfg.SampleEveryNS > 0 && co.elapsedNS >= co.nextNS {
		energy := co.model.Energy(co.spins)
		co.trace = append(co.trace, metrics.Point{X: co.elapsedNS, Y: energy})
		co.emit(obs.Event{Kind: obs.EnergySample, Epoch: co.epoch, ModelNS: co.elapsedNS, Value: energy})
		co.nextNS = co.elapsedNS + co.cfg.SampleEveryNS
	}
	if co.Progress != nil {
		co.Progress(co.epoch, co.elapsedNS)
	}
	if co.cfg.OnEpoch != nil {
		co.cfg.OnEpoch(co.epoch)
	}

	done := co.modelNS >= co.cfg.DurationNS-1e-9
	if !done && co.epoch%co.cfg.CheckpointEvery == 0 {
		if err := co.checkpointRound(ctx); err != nil {
			return err
		}
	}
	return nil
}

func epochOrDefault(e float64) float64 {
	if e == 0 {
		return 3.3 // the multichip default epoch
	}
	return e
}

// checkpointRound delivers the open barrier to every slice via /sync
// (so snapshots are post-sync — a genuine epoch-barrier cut) and saves
// the rollback point.
func (co *Coordinator) checkpointRound(ctx context.Context) error {
	states := make([]*multichip.SliceState, co.cfg.Chips)
	var ckSpan obs.Span
	var rpcWall []int64
	if co.fed != nil {
		ckSpan = co.fed.spans.Start("checkpoint_round", co.fed.runSpan, -1, co.modelNS)
		rpcWall = make([]int64, co.cfg.Chips)
	}
	err := co.forEachSlice(ctx, func(ctx context.Context, s int) error {
		req := &SyncRequest{Epoch: co.epoch, WantState: true, Parent: ckSpan.ID()}
		if !co.synced && co.pendingSync != nil {
			req.Sync = co.pendingSync[s]
		}
		var resp SyncResponse
		start := time.Now()
		if err := co.tr.do(ctx, co.assign[s], http.MethodPost, "/worker/slices/"+co.sliceID(s)+"/sync", req, &resp); err != nil {
			return err
		}
		if rpcWall != nil {
			rpcWall[s] = time.Since(start).Nanoseconds()
		}
		if resp.State == nil || resp.State.Epochs != co.epoch {
			return fmt.Errorf("cluster: slice %d returned a stale snapshot", s)
		}
		states[s] = resp.State
		return nil
	})
	if err != nil {
		ckSpan.End(co.modelNS, nil)
		return err
	}
	co.synced = true
	co.lastCkpt = &clusterCheckpoint{
		epoch:             co.epoch,
		modelNS:           co.modelNS,
		elapsedNS:         co.elapsedNS,
		nextNS:            co.nextNS,
		bitChanges:        co.bitChanges,
		inducedBitChanges: co.inducedBitChanges,
		trace:             append([]metrics.Point(nil), co.trace...),
		states:            states,
		fabric:            co.fabric.Snapshot(),
	}
	if co.metric() != nil {
		co.metric().Counter("cluster.checkpoints").Inc()
	}
	if co.fed != nil {
		for s := range states {
			co.fed.spans.Complete("sync_rpc", ckSpan, s, co.modelNS, 0, rpcWall[s], nil)
		}
		ckSpan.End(co.modelNS, nil)
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
	co.emit(obs.Event{Kind: obs.Fault, Label: "worker-loss", Epoch: co.epoch, Chip: wd.worker})
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

	// Roll back: every slice (survivors included) returns to the last
	// coordinated checkpoint, or to a fresh start when none exists yet.
	var states []*multichip.SliceState
	rollbackFrom := co.epoch
	if ck := co.lastCkpt; ck != nil {
		states = ck.states
		co.epoch = ck.epoch
		co.modelNS = ck.modelNS
		co.elapsedNS = ck.elapsedNS
		co.nextNS = ck.nextNS
		co.bitChanges = ck.bitChanges
		co.inducedBitChanges = ck.inducedBitChanges
		co.trace = append([]metrics.Point(nil), ck.trace...)
		if err := co.fabric.Restore(ck.fabric); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		co.flips, co.inducedFlips = 0, 0
		for _, st := range states {
			for li, g := range st.State.Owned {
				co.spins[g] = st.State.Machine.Spins[li]
			}
			co.flips += st.State.Machine.Flips
			co.inducedFlips += st.State.Machine.Induced
		}
		co.synced = true // checkpoint states are post-sync
	} else {
		co.epoch = 0
		co.modelNS = 0
		co.elapsedNS = 0
		co.nextNS = 0
		co.bitChanges = 0
		co.inducedBitChanges = 0
		co.flips, co.inducedFlips = 0, 0
		co.trace = nil
		fab, err := interconnect.New(co.cfg.Chips, valueOr(co.cfg.Channels, 3), co.cfg.ChannelBytesPerNS)
		if err != nil {
			return err
		}
		co.fabric = fab
		co.synced = false
	}
	co.pendingSync = nil
	replayed := int64(rollbackFrom - co.epoch)
	co.stats.ReplayedEpochs += replayed

	// Charge the recovery honestly: a full-state resync for every slice
	// that changed hosts, plus reprogramming stall — the same policy
	// the modeled fault layer applies to its repartitions.
	handoffBytes := 0.0
	for s := range co.assign {
		if moved[s] {
			b := interconnect.DeltaSyncBytes(len(co.parts[s]), len(co.parts[s]), 1)
			co.fabric.Record(s, b, "handoff")
			handoffBytes += b
		}
	}
	recoveryStall := 0.0
	if movedSpins > 0 {
		recoveryStall = float64(movedSpins) * co.cfg.HandoffNSPerSpin
		co.fabric.AddStall(recoveryStall)
		co.elapsedNS += recoveryStall
	}
	co.stats.RecoveryStallNS += recoveryStall
	co.stats.HandoffBytes += handoffBytes

	// Re-create every slice under a fresh incarnation.
	co.gen++
	if err := co.createSlices(ctx, states); err != nil {
		if next := asWorkerDead(err); next != nil {
			// Another worker died during recovery: recurse. The survivor
			// set shrinks monotonically, so this terminates.
			return co.recover(ctx, next)
		}
		return err
	}
	co.stats.Recoveries++
	co.emit(obs.Event{Kind: obs.Recovery, Label: "rollback-replay", Epoch: co.epoch,
		Chip: wd.worker, Count: replayed, StallNS: recoveryStall})
	if co.fed != nil {
		// Zero-width marker on the merged trace: where the rollback
		// landed, how many epochs replay, what stall was charged.
		co.fed.spans.Complete("recovery", co.fed.runSpan, wd.worker, co.modelNS, 0, 0,
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

// partialResult assembles the result at the current barrier.
func (co *Coordinator) partialResult() *Result {
	res := &Result{
		ModelNS:              co.modelNS,
		StallNS:              co.fabric.StallNS(),
		ElapsedNS:            co.elapsedNS,
		Flips:                co.flips,
		InducedFlips:         co.inducedFlips,
		BitChanges:           co.bitChanges,
		InducedBitChanges:    co.inducedBitChanges,
		TrafficBytes:         co.fabric.TotalBytes(),
		PeakDemandBytesPerNS: co.fabric.PeakDemand(),
		Epochs:               co.epoch,
		Trace:                append([]metrics.Point(nil), co.trace...),
		Recovery:             co.stats,
	}
	res.Recovery.RPCRetries = co.tr.retries.Load()
	res.Spins = append([]int8(nil), co.spins...)
	res.Energy = co.model.Energy(res.Spins)
	for wi := range co.cfg.Workers {
		if co.tr.alive(wi) {
			res.LiveWorkers++
		}
	}
	return res
}

// interruptCheckpoint collects post-sync snapshots at the current
// barrier and assembles a PR-3 envelope resumable by the in-process
// concurrent engine. The run context is already cancelled, so the
// collection round runs under its own deadline.
func (co *Coordinator) interruptCheckpoint() ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*co.cfg.RPCTimeout)
	defer cancel()
	if err := co.checkpointRound(ctx); err != nil && co.lastCkpt == nil {
		return nil, err
	}
	// If collection failed but an earlier rollback point exists, fall
	// back to it — older, but still a consistent cut.
	ck := co.lastCkpt
	mck := &multichip.Checkpoint{
		Mode:              multichip.ModeConcurrent,
		DurationNS:        co.cfg.DurationNS,
		EpochsDone:        ck.epoch,
		ModelNS:           ck.modelNS,
		ElapsedNS:         ck.elapsedNS,
		NextSampleNS:      ck.nextNS,
		BitChanges:        ck.bitChanges,
		InducedBitChanges: ck.inducedBitChanges,
		Trace:             append([]metrics.Point(nil), ck.trace...),
		Fabric:            ck.fabric,
	}
	mck.SetSlices(ck.states)
	return checkpoint.Encode(&checkpoint.File{
		Engine:    "mbrim", // core.MBRIMConcurrent
		Seed:      co.cfg.Seed,
		N:         co.n,
		ModelHash: checkpoint.HashModel(co.model),
		Multichip: mck,
	})
}

// recordPartitionQuality publishes the partition-quality gauges for
// the run's slicing.
func (co *Coordinator) recordPartitionQuality() {
	if co.metric() == nil {
		return
	}
	backend := lattice.Auto
	if co.cfg.Backend != "" {
		backend, _ = lattice.ParseKind(co.cfg.Backend)
	}
	q := metrics.MeasurePartition(co.model.View(backend), co.parts)
	m := co.metric()
	m.SetHelp("cluster.partition_cut_weight_fraction",
		"fraction of total |J| weight crossing slice boundaries")
	m.SetHelp("cluster.partition_boundary_spin_fraction",
		"fraction of spins with at least one cross-slice coupling")
	m.SetHelp("cluster.partition_imbalance",
		"largest slice size over mean slice size, minus one")
	m.Gauge("cluster.partition_cut_weight_fraction").Set(q.CutWeightFraction)
	m.Gauge("cluster.partition_boundary_spin_fraction").Set(q.BoundarySpinFraction)
	m.Gauge("cluster.partition_imbalance").Set(q.Imbalance)
	m.Gauge("cluster.partition_cut_edges").Set(float64(q.CutEdges))
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
