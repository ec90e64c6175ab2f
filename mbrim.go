// Package mbrim is a library-scale reproduction of "Increasing Ising
// Machine Capacity with Multi-Chip Architectures" (Sharma, Afoakwa,
// Ignjatovic & Huang, ISCA 2022): a multiprocessor Ising machine built
// from BRIM-style chips with shadow copies of remote spins, a
// bandwidth-modeled digital fabric, concurrent and batch operating
// modes, and the coordinated induced-flip optimization — together with
// every substrate the paper's evaluation needs (an Isakov-style
// simulated annealer, tabu search, qbsolv-style divide-and-conquer,
// and ballistic/discrete simulated bifurcation baselines).
//
// # Quick start
//
// Build a problem (here: MaxCut on a random ±1 complete graph, the
// paper's K-graph family), then solve it with any engine through the
// uniform Solve surface:
//
//	g := mbrim.CompleteGraph(512, 1)     // K512, seeded
//	out, err := mbrim.Solve(mbrim.Request{
//	    Kind:  mbrim.MBRIMConcurrent,    // 4-chip multiprocessor
//	    Model: g.ToIsing(),
//	    Graph: g,
//	    Chips: 4,
//	    DurationNS: 200,
//	})
//	// out.Cut is the cut value, out.ModelNS the machine time spent.
//
// Any other problem is stated through a ModelBuilder — SetCoupling,
// SetBias — whose Build validates it and freezes an immutable Model,
// stored as sparsely as the problem is.
//
// For finer control, build a System with NewSystem and drive
// RunConcurrent / RunBatch yourself (epoch length, channel bandwidth
// and coordination live on SystemConfig), or a single chip with
// NewBRIM.
//
// # Time semantics
//
// Machine engines (BRIM, mBRIM) report *model time* — nanoseconds of
// the machine's own physics. Software engines (SA, tabu, SBM) report
// measured wall time. Speedup comparisons divide one by the other,
// exactly as the paper's methodology does (Sec 6.1).
package mbrim

import (
	"context"
	"io"

	"mbrim/internal/brim"
	"mbrim/internal/core"
	"mbrim/internal/diag"
	"mbrim/internal/fault"
	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/multichip"
	"mbrim/internal/obs"
	_ "mbrim/internal/portfolio" // registers the portfolio engine
	"mbrim/internal/rng"
	"mbrim/internal/sched"
)

// Core model types, re-exported from the internal packages.
type (
	// Model is an immutable Ising problem: symmetric couplings J, biases
	// h, global bias scale μ, and energy E = -Σ_{i<j}Jσσ - μΣhσ. It
	// stores its couplings the way the engines read them — a matrix for
	// a K-graph, compressed rows for a sparse instance.
	Model = ising.Model
	// ModelBuilder collects couplings and biases (SetCoupling, SetBias,
	// SetMu); its Build validates them and freezes the Model.
	ModelBuilder = ising.Builder
	// QUBO is a quadratic unconstrained binary optimization instance;
	// convert with its ToIsing method.
	QUBO = ising.QUBO
	// Graph is an undirected weighted graph with MaxCut↔Ising mapping.
	Graph = graph.Graph
	// Edge is one weighted graph edge.
	Edge = graph.Edge
)

// Solver orchestration types.
type (
	// Request selects and parameterizes a solver engine.
	Request = core.Request
	// Outcome is the uniform solve report.
	Outcome = core.Outcome
	// Cutter is Request.Graph's type: what reports the cut of a spin
	// assignment, such as a *Graph.
	Cutter = core.Cutter
	// Kind names a solver engine.
	Kind = core.Kind
	// EngineCapabilities declares what an engine supports (resume,
	// warm start, span tracing, model time).
	EngineCapabilities = core.Capabilities
	// EngineInfo is one registry entry: kind plus capabilities.
	EngineInfo = core.EngineInfo
	// ClusterSpec names, on Request.Cluster, the worker nodes that host a
	// distributed solve's chips (the "cluster" engine).
	ClusterSpec = core.ClusterSpec
)

// Portfolio-solving types (the "portfolio" engine): the race field,
// its per-entrant overrides, and the post-race report attached to
// Outcome.Portfolio.
type (
	// PortfolioSpec configures a heterogeneous race on Request.Portfolio:
	// entrants (empty = structure-based auto-dispatch), the
	// first-to-target energy, the race budget and the optional
	// warm-start hand-off stage.
	PortfolioSpec = core.PortfolioSpec
	// PortfolioEntrant names one entrant engine with its overrides.
	PortfolioEntrant = core.PortfolioEntrant
	// PortfolioReport attributes the race: winner, per-entrant results,
	// dispatcher statistics, hand-off outcome.
	PortfolioReport = core.PortfolioReport
	// EntrantReport is one entrant's side of the race.
	EntrantReport = core.EntrantReport
	// StructureStats are the dispatcher's row statistics (density,
	// degree distribution) over a model's coupling structure.
	StructureStats = core.StructureStats
)

// Engines returns every registered engine with its capabilities,
// sorted by kind — the same view mbrimd serves on GET /engines.
func Engines() []EngineInfo { return core.Engines() }

// Observability types, re-exported from internal/obs. Attach a Tracer
// and/or a Registry to Request to capture a run's typed event stream
// and cross-run counters; see the package example and README's
// Observability section.
type (
	// Tracer receives typed run events; NewJSONLTracer is the built-in
	// sink, and any Emit(Event) implementation works.
	Tracer = obs.Tracer
	// Event is one typed, timestamped run event.
	Event = obs.Event
	// EventKind discriminates Event payloads (run_start, epoch_sync, ...).
	EventKind = obs.Kind
	// Registry is a goroutine-safe set of named counters, gauges and
	// histograms.
	Registry = obs.Registry
	// JSONLTracer streams events as JSON Lines to a writer.
	JSONLTracer = obs.JSONLTracer
	// MetricLabels attaches dimensions (engine, chip, mode...) to a
	// registry series for the Prometheus exposition.
	MetricLabels = obs.Labels
)

// NewJSONLTracer returns a tracer streaming events to w as JSON Lines.
// Call Flush (or Close) when the run completes.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return obs.NewJSONL(w) }

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// ReadJSONL parses a JSON Lines trace back into events.
func ReadJSONL(r io.Reader) ([]Event, error) { return obs.ReadJSONL(r) }

// Fanout composes tracers into one that emits to each in order; nil
// entries are skipped, and an all-nil list yields a nil Tracer.
func Fanout(ts ...Tracer) Tracer { return obs.Fanout(ts...) }

// Introspection types: hierarchical span tracing (Request.SpanTrace)
// and the live diagnostics reducer (Request.Diag + a DiagReducer in the
// tracer fan-out). See README's Introspection section.
type (
	// DiagReducer folds a live event stream into convergence and
	// partition-quality diagnostics; read with Snapshot.
	DiagReducer = diag.Reducer
	// DiagConfig configures a reducer; it has no fields.
	DiagConfig = diag.Config
	// DiagSnapshot is a point-in-time diagnostics report: energy
	// trajectory analytics, chip-pair shadow-spin disagreement, traffic
	// attribution and a TTS estimate with confidence bounds.
	DiagSnapshot = diag.Snapshot
)

// NewDiagReducer builds a diagnostics reducer; include it in the
// Request's tracer fan-out and set Request.Diag so engines emit the
// pair-statistics events it consumes.
func NewDiagReducer(cfg DiagConfig) *DiagReducer { return diag.New(cfg) }

// WriteChromeTrace renders a captured event stream as Chrome
// trace-event JSON, loadable in ui.perfetto.dev or chrome://tracing.
// The timeline is deterministic model time (1 model ns = 1 trace µs).
func WriteChromeTrace(w io.Writer, events []Event) error {
	return obs.WriteChromeTrace(w, events)
}

// Multiprocessor types for direct (non-orchestrated) use.
type (
	// System is the k-chip multiprocessor Ising machine.
	System = multichip.System
	// SystemConfig holds all multiprocessor knobs.
	SystemConfig = multichip.Config
	// SystemResult reports a concurrent-mode run.
	SystemResult = multichip.Result
	// BatchResult reports a batch-mode run.
	BatchResult = multichip.BatchResult
	// Layout describes a reconfigurable chip configuration (Fig 7).
	Layout = multichip.Layout
	// FaultConfig parameterizes the deterministic fault-injection
	// layer (set SystemConfig.Faults / Request.Faults).
	FaultConfig = fault.Config
	// RecoveryConfig selects and tunes the recovery policies.
	RecoveryConfig = fault.Recovery
	// FaultStats ledgers a run's injected faults and recovery work.
	FaultStats = fault.Stats
	// Schedule maps run progress ∈ [0,1] to a control value.
	Schedule = sched.Schedule
	// RNG is a deterministic, cloneable random source.
	RNG = rng.Source
)

// Engine kinds.
const (
	SA              = core.SA
	Tabu            = core.Tabu
	BSBM            = core.BSBM
	DSBM            = core.DSBM
	BRIM            = core.BRIM
	QBSolv          = core.QBSolv
	OursDnc         = core.OursDnc
	MBRIMConcurrent = core.MBRIMConcurrent
	MBRIMBatch      = core.MBRIMBatch
	PT              = core.PT
	MBRIMSequential = core.MBRIMSequential
	// Portfolio races several engines on one model: first to the target
	// energy wins and the losers are cancelled (see PortfolioSpec).
	Portfolio = core.Portfolio
	// Cluster is the concurrent mode with its chips on remote worker
	// nodes (see ClusterSpec), bit-identical to MBRIMConcurrent. The
	// engine registers from internal/cluster, which the commands link.
	Cluster = core.Cluster
)

// NewModelBuilder returns a builder for an n-spin Ising model.
func NewModelBuilder(n int) *ModelBuilder { return ising.NewBuilder(n) }

// NewQUBO returns an n-variable QUBO with zero coefficients.
func NewQUBO(n int) *QUBO { return ising.NewQUBO(n) }

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// CompleteGraph returns the seeded K-graph K_n with ±1 weights — the
// paper's benchmark family (K2000, K16384, ...).
func CompleteGraph(n int, seed uint64) *Graph {
	return graph.Complete(n, rng.New(seed))
}

// RandomGraph returns a seeded Erdős–Rényi G(n, p) graph with ±1
// weights.
func RandomGraph(n int, p float64, seed uint64) *Graph {
	return graph.Random(n, p, rng.New(seed))
}

// ReadGraph parses the Gset text format ("n m" header, "u v w" edges,
// 1-based vertices).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// Solve runs the requested engine and returns a uniform outcome.
func Solve(req Request) (*Outcome, error) { return core.Solve(req) }

// SolveCtx is Solve with lifecycle control: the request is validated at
// the boundary, cancelling the context stops the engine at its next
// natural boundary with an *InterruptedError carrying the best-so-far
// Outcome (and, for multichip engines, resume bytes), and integrator
// divergence and engine panics return as errors rather than crash.
func SolveCtx(ctx context.Context, req Request) (*Outcome, error) {
	return core.SolveCtx(ctx, req)
}

// ErrInterrupted matches, with errors.Is, a solve stopped by context
// cancellation or deadline.
var ErrInterrupted = core.ErrInterrupted

// InterruptedError is what an interrupted solve returns: the
// best-so-far Outcome plus, for multichip engines, serialized
// checkpoint bytes that Request.Resume accepts for a bit-identical
// continuation.
type InterruptedError = core.InterruptedError

// Kinds returns every engine name, sorted.
func Kinds() []string { return core.Kinds() }

// ParseKind validates a solver name.
func ParseKind(s string) (Kind, error) { return core.ParseKind(s) }

// NewSystem builds a multiprocessor Ising machine over the model,
// reporting invalid configuration as an error.
func NewSystem(m *Model, cfg SystemConfig) (*System, error) {
	return multichip.NewSystem(m, cfg)
}

// BRIMConfig exposes the single-chip machine's knobs (time constant,
// kick schedule and hold, coupling scale, seed, step guardrail) for
// direct use.
type BRIMConfig = brim.Config

// BRIMMachine is a stateful single-chip BRIM simulator for callers who
// drive the dynamics epoch by epoch themselves.
type BRIMMachine = brim.Machine

// NewBRIM builds a single-chip BRIM machine over the model.
func NewBRIM(m *Model, cfg BRIMConfig) *BRIMMachine { return brim.New(m, cfg) }

// PlanLayout computes a reconfigurable chip's module configuration for
// a multiprocessor of the given size (Sec 5.2 / Fig 7).
func PlanLayout(k, moduleN, chips int) (*Layout, error) {
	return multichip.PlanLayout(k, moduleN, chips)
}

// Packing reports how problems occupy Ising hardware (Fig 4's
// utilization analysis).
type Packing = multichip.Packing

// PackMonolithic places problems block-diagonally on a monolithic k×k
// macrochip; PackReconfigurable bin-packs them onto independent chips.
func PackMonolithic(chipN, k int, problems []int) (*Packing, error) {
	return multichip.PackMonolithic(chipN, k, problems)
}

// PackReconfigurable places problems onto independently operating
// reconfigurable chips (Fig 5), avoiding the macrochip's waste.
func PackReconfigurable(chipN int, problems []int) (*Packing, error) {
	return multichip.PackReconfigurable(chipN, problems)
}

// NewRNG returns a deterministic random source for the seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }
