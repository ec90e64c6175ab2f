// Package core is the orchestration layer: one request/outcome surface
// over every solver in the repository — software baselines (SA, tabu,
// SBM), the single-chip BRIM, the divide-and-conquer hybrids, the
// multiprocessor in all operating modes, and composite engines such as
// the heterogeneous portfolio. The CLI, the examples, the daemon and
// the experiment harness all go through this package, so results carry
// a uniform time ledger (model ns for machines, wall time for
// software) no matter which engine produced them.
//
// Dispatch is registry-driven: each engine registers an adapter (see
// registry.go and the engine_*.go files; external engines like
// internal/portfolio register from their own package init), and
// Kinds/ParseKind/capability checks all derive from the registered
// set. There is no per-engine switch anywhere in the solve path.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"time"

	"mbrim/internal/checkpoint"
	"mbrim/internal/fault"
	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/metrics"
	"mbrim/internal/multichip"
	"mbrim/internal/obs"
)

// Kind names a solver engine.
type Kind string

// The built-in engines. The names are registry keys — Kinds() reports
// whatever is actually registered, which may include engines linked
// from outside this package (e.g. "portfolio").
const (
	SA              Kind = "sa"          // simulated annealing (Isakov-style)
	Tabu            Kind = "tabu"        // tabu search
	BSBM            Kind = "bsbm"        // ballistic simulated bifurcation
	DSBM            Kind = "dsbm"        // discrete simulated bifurcation
	BRIM            Kind = "brim"        // single-chip BRIM (RK4 dynamics)
	QBSolv          Kind = "qbsolv"      // Algorithm 1: D-Wave's d&c
	OursDnc         Kind = "ours-dnc"    // Algorithm 2: the paper's d&c
	MBRIMConcurrent Kind = "mbrim"       // multiprocessor, concurrent mode
	MBRIMBatch      Kind = "mbrim-batch" // multiprocessor, batch mode
	PT              Kind = "pt"          // parallel tempering (replica exchange)
	MBRIMSequential Kind = "mbrim-seq"   // multiprocessor, sequential (zero-ignorance) baseline
	Portfolio       Kind = "portfolio"   // heterogeneous race (registered by internal/portfolio)
	Cluster         Kind = "cluster"     // concurrent mode over remote worker nodes (registered by internal/cluster)
)

// Bandwidth presets of Sec 6.3, in channel bytes/ns (1 GB/s = 1 B/ns).
const (
	// HBChannelBytesPerNS is one of mBRIM_HB's three dedicated
	// 250 GB/s channels.
	HBChannelBytesPerNS = 250.0
	// LBChannelBytesPerNS is the low-bandwidth system: 4× less.
	LBChannelBytesPerNS = HBChannelBytesPerNS / 4
)

// Request describes one solve.
type Request struct {
	// Kind selects the engine.
	Kind Kind
	// Model is the problem. Required.
	Model *ising.Model
	// Graph, if the problem came from MaxCut, lets the outcome report
	// cut values alongside energies: a *graph.Graph, or the
	// *graph.KGraph a K-graph submission is built as. Optional.
	Graph Cutter
	// Seed drives all stochastic choices.
	Seed uint64
	// Runs is the batch size for engines that anneal repeatedly
	// (SA/SBM/BRIM batches; jobs for mbrim-batch). Default 1.
	Runs int

	// Sweeps is the SA/tabu effort per run. Default 200.
	Sweeps int
	// Steps is the SBM step count. Default 1000.
	Steps int
	// DurationNS is the annealing time for dynamical machines.
	// Default 100.
	DurationNS float64

	// Chips, EpochNS, Coordinated, Channels and ChannelBytesPerNS
	// configure the multiprocessor (defaults per multichip.Config;
	// ChannelBytesPerNS zero = unlimited, the mBRIM_3D preset).
	Chips             int
	EpochNS           float64
	Coordinated       bool
	Channels          int
	ChannelBytesPerNS float64

	// Initial optionally warm-starts the run at the given spins
	// (engines with the WarmStart capability: SA, tabu and BRIM;
	// copied, not aliased). Hybrid flows use it to polish a machine's
	// readout in software.
	Initial []int8

	// MachineCapacity is the hardware size for the d&c engines.
	// Default 500 (the Fig 1 setup). The machine is a ProxyMachine
	// charging 1000 ns of annealing and 100 ns of programming per launch.
	MachineCapacity int

	// SampleEveryNS, if > 0, records (time, energy) samples into
	// Outcome.Trace for the engines that support tracing (BRIM and the
	// multiprocessor modes).
	SampleEveryNS float64
	// RecordEpochStats and Probes enable the multiprocessor's per-epoch
	// activity ledger and energy-surprise probe (Outcome.EpochStats,
	// Outcome.Surprises).
	RecordEpochStats bool
	Probes           bool
	// Parallel runs the multiprocessor's chips on host goroutines; the
	// result is bit-identical to the sequential simulation.
	Parallel bool

	// Faults configures the multiprocessor's deterministic
	// fault-injection layer and recovery policies. The zero value
	// injects nothing.
	Faults fault.Config

	// Resume, if non-nil, is a checkpoint written by an earlier solve.
	// Engines with the Resume capability (the multichip modes) accept
	// the full-state envelope an InterruptedError carries and continue
	// bit-identically; the envelope must match this request's engine,
	// seed and model, and the run parameters (duration, jobs) must
	// match the interrupted run's. Engines with the WarmStart
	// capability (SA, tabu, BRIM) accept a warm-start envelope
	// (checkpoint.Warm — best spins from any engine, the portfolio
	// hand-off format) and start from those spins.
	Resume []byte

	// Portfolio parameterizes the portfolio engine (Kind "portfolio"):
	// entrants to race, the first-to-target threshold, the race budget
	// and the warm-start hand-off stage. Ignored by other engines.
	Portfolio PortfolioSpec

	// Cluster parameterizes the cluster engine (Kind "cluster"): the
	// worker nodes that host the chips and the robustness envelope
	// around their RPCs. Refused with any other engine.
	Cluster ClusterSpec
	// RunID names the run to an engine that holds state outside this
	// process: the cluster engine scopes its worker slices and federated
	// trace by it, so a run resumed under its name replaces what its
	// predecessor left. The run manager sets it; empty: the engine's pick.
	RunID string

	// Tracer, if non-nil, receives the run's typed event stream: Solve
	// emits the RunStart/RunEnd bracket and the engine emits its inner
	// events (EpochSync, ChipStep, EnergySample, ...). Nil disables
	// tracing at the cost of one branch per emission site.
	Tracer obs.Tracer
	// SpanTrace additionally threads hierarchical span events (solve →
	// epoch → chip step → sync/recovery) through the Tracer, and labels
	// the solve's goroutines for runtime/pprof profiles. It is opt-in —
	// plain Tracer consumers keep the flat PR-1 stream — and requires a
	// non-nil Tracer. Span emission never perturbs the trajectory: a
	// seeded solve is bit-identical with it on or off.
	SpanTrace bool
	// Diag additionally emits partition-quality diagnostics (per
	// chip-pair shadow-disagreement PairStat events) for the multichip
	// engines — the raw feed of internal/diag. Opt-in for the same
	// reason as SpanTrace; read-only, trajectory-neutral.
	Diag bool
	// Metrics, if non-nil, accumulates counters across runs (core.solves
	// plus per-engine totals such as multichip.flips).
	Metrics *obs.Registry

	// spans and rootSpan are the live span context (withDefaults +
	// SolveCtx fill them when SpanTrace is set).
	spans    *obs.Spanner
	rootSpan obs.Span
}

// Cutter is what an outcome asks of a MaxCut problem: the weight of the
// edges a spin assignment cuts.
type Cutter interface {
	CutValue(spins []int8) float64
}

func (r *Request) withDefaults() (Request, error) {
	out := *r
	if out.Model == nil {
		return out, fmt.Errorf("core: Request.Model is nil")
	}
	if out.Runs == 0 {
		out.Runs = 1
	}
	if out.Sweeps == 0 {
		out.Sweeps = 200
	}
	if out.Steps == 0 {
		out.Steps = 1000
	}
	if out.DurationNS == 0 {
		out.DurationNS = 100
	}
	if out.MachineCapacity == 0 {
		out.MachineCapacity = 500
	}
	return out, nil
}

// Outcome is a uniform solve report.
type Outcome struct {
	Kind Kind
	// Backend reports the coupling layout the solve ran on ("dense" or
	// "csr"): the one the model stores.
	Backend string
	Spins   []int8
	Energy  float64
	// Cut is the MaxCut value when a Graph was supplied, else 0.
	Cut float64
	// ModelNS is machine model time (0 for pure software engines);
	// Wall is measured host time.
	ModelNS float64
	Wall    time.Duration
	// Stats carries engine-specific extras (flips, traffic, stalls...).
	Stats map[string]float64
	// Trace holds (time, energy) samples when Request.SampleEveryNS was
	// set and the engine supports tracing.
	Trace []metrics.Point
	// EpochStats and Surprises are the multiprocessor's optional
	// per-epoch ledger and energy-surprise probe.
	EpochStats []multichip.EpochStat
	Surprises  []multichip.SurpriseSample
	// Portfolio reports the portfolio engine's race: per-entrant
	// results and the winner attribution. Nil for every other engine.
	Portfolio *PortfolioReport
}

// validate rejects malformed requests at the public boundary with
// typed errors, before any engine can turn them into a panic or a NaN.
// It runs after withDefaults, so zero values have been filled; caps
// are the resolved engine's capabilities (the registry-derived
// replacement for the old hard-coded resume list).
func (r *Request) validate(caps Capabilities) error {
	if r.Initial != nil {
		if len(r.Initial) != r.Model.N() {
			return fmt.Errorf("%w: Initial has %d spins for a %d-spin model",
				ErrInvalidModel, len(r.Initial), r.Model.N())
		}
		for i, s := range r.Initial {
			if s != -1 && s != 1 {
				return fmt.Errorf("%w: Initial[%d]=%d is not a spin", ErrInvalidModel, i, s)
			}
		}
	}
	if r.Runs < 1 {
		return fmt.Errorf("core: Runs=%d", r.Runs)
	}
	if r.Sweeps < 1 {
		return fmt.Errorf("core: Sweeps=%d", r.Sweeps)
	}
	if r.Steps < 1 {
		return fmt.Errorf("core: Steps=%d", r.Steps)
	}
	if r.DurationNS <= 0 || math.IsNaN(r.DurationNS) || math.IsInf(r.DurationNS, 0) {
		return fmt.Errorf("core: DurationNS=%v", r.DurationNS)
	}
	if r.EpochNS < 0 || math.IsNaN(r.EpochNS) || math.IsInf(r.EpochNS, 0) {
		return fmt.Errorf("core: EpochNS=%v", r.EpochNS)
	}
	if r.SampleEveryNS < 0 || math.IsNaN(r.SampleEveryNS) || math.IsInf(r.SampleEveryNS, 0) {
		return fmt.Errorf("core: SampleEveryNS=%v", r.SampleEveryNS)
	}
	if len(r.Resume) > 0 && !caps.Resume && !caps.WarmStart {
		return fmt.Errorf("core: engine %s does not support resume", r.Kind)
	}
	return nil
}

// Solve runs the requested engine and returns a uniform outcome.
//
// When a Tracer is configured, Solve brackets the engine's inner events
// with a single RunStart/RunEnd pair — the uniform run ledger: engine
// kind (Label), seed, problem size (Count), requested duration (Value)
// on the way in; best energy (Value), model time and wall duration on
// the way out.
func Solve(req Request) (*Outcome, error) {
	return SolveCtx(context.Background(), req)
}

// SolveCtx is Solve with lifecycle control:
//
//   - The request is validated at this boundary: a mis-sized or
//     non-spin warm start (ErrInvalidModel) or nonsensical run
//     parameters yield a typed error before any engine runs. The model
//     needs no check — ising.Builder.Build is the only way to one.
//   - Cancelling the context stops every engine at its next natural
//     boundary (epoch, sweep, step, iteration or launch) and returns a
//     *InterruptedError — matched by errors.Is(err, ErrInterrupted) —
//     carrying the best-so-far Outcome and, for the multichip engines,
//     serialized checkpoint bytes that Request.Resume accepts for a
//     bit-identical continuation.
//   - Integrator divergence in the BRIM dynamics surfaces as a typed
//     *brim.DivergenceError in the chain, never as NaN spins.
//   - An engine panic is converted into a *PanicError with the stack
//     attached instead of unwinding the caller.
//
// The engine itself is resolved through the registry: SolveCtx holds
// no per-engine dispatch of its own.
func SolveCtx(ctx context.Context, req Request) (out *Outcome, err error) {
	r, err := req.withDefaults()
	if err != nil {
		return nil, err
	}
	// Validation precedes dispatch (matching the pre-registry order, so
	// a bad model reports ErrInvalidModel even under an unknown kind);
	// an unknown kind's zero capabilities reject resume bytes exactly
	// like the old default case did.
	caps, _ := EngineCaps(r.Kind)
	if err := r.validate(caps); err != nil {
		return nil, err
	}
	eng, ok := lookupEngine(r.Kind)
	if !ok {
		return nil, unknownKindError(string(r.Kind))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		if p := recover(); p != nil {
			out = nil
			err = &PanicError{Engine: r.Kind, Value: p, Stack: debug.Stack()}
		}
	}()
	if r.Tracer != nil {
		r.Tracer.Emit(obs.Event{Kind: obs.RunStart, Label: string(r.Kind),
			Seed: r.Seed, Count: int64(r.Model.N()), Value: r.DurationNS})
	}
	if r.SpanTrace && r.Tracer != nil {
		r.spans = obs.NewSpanner(r.Tracer)
		r.rootSpan = r.spans.Start("solve", obs.Span{}, -1, 0)
		// The root span closes on every exit path — success, interrupt,
		// divergence, even a recovered panic — so exports always have a
		// complete tree. It lands after RunEnd in the stream; consumers
		// match spans by ID, not position.
		defer func() {
			var model float64
			if out != nil {
				model = out.ModelNS
			}
			r.rootSpan.End(model, nil)
		}()
		// Label this goroutine (and, transitively, the chip workers the
		// engines fork from this ctx) so CPU profiles attribute samples
		// to the solve.
		prev := ctx
		ctx = pprof.WithLabels(ctx, pprof.Labels(
			"mbrim_engine", string(r.Kind),
			"mbrim_seed", strconv.FormatUint(r.Seed, 10)))
		pprof.SetGoroutineLabels(ctx)
		defer pprof.SetGoroutineLabels(prev)
	}
	if len(r.Resume) > 0 && caps.WarmStart && !caps.Resume {
		if err := r.applyWarmStart(); err != nil {
			return nil, err
		}
	}
	return eng.Solve(ctx, &r)
}

// NewOutcome returns the uniform outcome skeleton every engine adapter
// starts from. Exported for engines registered from other packages
// (e.g. internal/portfolio).
func (r *Request) NewOutcome() *Outcome {
	return &Outcome{Kind: r.Kind, Backend: r.Model.View(lattice.Auto).Kind().String(), Stats: map[string]float64{}}
}

// Interrupted finalizes a partial outcome and wraps it, with the
// optional checkpoint bytes, into the InterruptedError the SolveCtx
// contract promises on cancellation. Exported for engines registered
// from other packages.
func (r *Request) Interrupted(out *Outcome, start time.Time, cause error, ck []byte) (*Outcome, error) {
	out.Wall = time.Since(start)
	if r.Graph != nil && out.Spins != nil {
		out.Cut = r.Graph.CutValue(out.Spins)
	}
	return nil, &InterruptedError{Outcome: out, Checkpoint: ck, Cause: cause}
}

// applyWarmStart decodes a warm-start envelope from r.Resume into
// r.Initial — the hand-off path for engines with the WarmStart
// capability. The envelope's model hash must match this request's
// problem; the producing engine may differ (that is the point of a
// hand-off), so engine and seed are not checked.
func (r *Request) applyWarmStart() error {
	f, err := checkpoint.Decode(r.Resume)
	if err != nil {
		return err
	}
	if f.Warm == nil {
		return fmt.Errorf("core: checkpoint has no warm-start payload (engine %s accepts warm starts, not full-state resume)", r.Kind)
	}
	if err := f.ValidateWarm(r.Model); err != nil {
		return err
	}
	r.Initial = append([]int8(nil), f.Warm.Spins...)
	return nil
}

// Finish stamps the uniform tail of a completed solve: wall time, cut
// value, the RunEnd event and the registry counters.
func (r *Request) Finish(out *Outcome, start time.Time) {
	out.Wall = time.Since(start)
	if r.Graph != nil {
		out.Cut = r.Graph.CutValue(out.Spins)
	}
	if r.Tracer != nil {
		r.Tracer.Emit(obs.Event{Kind: obs.RunEnd, Label: string(r.Kind),
			Seed: r.Seed, Value: out.Energy, ModelNS: out.ModelNS,
			WallDurNS: out.Wall.Nanoseconds(), Count: int64(out.Stats["flips"])})
	}
	if r.Metrics != nil {
		// core.solves is the cross-engine total; the engine-labeled
		// series of the same family break it down per solver kind for
		// the Prometheus exposition.
		r.Metrics.Counter("core.solves").Inc()
		r.Metrics.CounterWith("core.solves", obs.Labels{"engine": string(r.Kind)}).Inc()
		// core.backend_solves breaks solves down by the coupling layout
		// they ran on (a separate series so core.solves keeps its shape).
		r.Metrics.CounterWith("core.backend_solves",
			obs.Labels{"engine": string(r.Kind), "backend": out.Backend}).Inc()
		r.Metrics.HistogramWith("core.solve_wall_ns", obs.Labels{"engine": string(r.Kind)}).
			Observe(float64(out.Wall.Nanoseconds()))
	}
}
