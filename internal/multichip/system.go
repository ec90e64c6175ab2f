package multichip

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"mbrim/internal/fault"
	"mbrim/internal/interconnect"
	"mbrim/internal/ising"
	"mbrim/internal/metrics"
	"mbrim/internal/obs"
	"mbrim/internal/sched"
)

// Config parameterizes a multiprocessor system.
type Config struct {
	// Chips is the number of processors. Must be >= 1 and <= N.
	Chips int
	// Partition optionally assigns spins to chips explicitly — one
	// index list per chip, jointly covering 0..N-1 exactly once. It
	// overrides the default contiguous equal split and permits
	// heterogeneous chips (e.g. mixing 8192- and 4096-spin dies).
	// len(Partition) must equal Chips when set.
	Partition [][]int
	// EpochNS is the model time between fabric synchronizations.
	// Default 3.3 (the paper's reference epoch).
	EpochNS float64
	// InducedFlip is the per-spin kick probability schedule over run
	// progress. Default decays 0.08 → 0.
	InducedFlip sched.Schedule
	// Coordinated enables the synchronized-PRNG induced-flip
	// optimization of Sec 5.4.2: kicks are reproduced on every chip
	// and never transmitted.
	Coordinated bool
	// Channels is the number of dedicated egress channels per chip.
	// Default 3 (the mBRIM_HB configuration).
	Channels int
	// ChannelBytesPerNS is each channel's bandwidth in bytes/ns
	// (1 GB/s = 1 byte/ns). Zero models unlimited bandwidth — the
	// 3D-integrated mBRIM_3D.
	ChannelBytesPerNS float64
	// Seed drives the initial state and all stochastic choices.
	Seed uint64
	// SampleEveryNS, if > 0, records an (elapsed ns, energy) trace
	// sample at least every so many ns of elapsed time.
	SampleEveryNS float64
	// Probes enables the per-epoch ignorance / energy-surprise
	// measurement (one energy evaluation per chip per epoch: O(nnz) on a
	// CSR view, O(N²) on a weighted dense one).
	Probes bool
	// RecordEpochStats keeps per-epoch flip/bit-change/stall counts
	// (the time axes of Figs 13 and 15).
	RecordEpochStats bool
	// Parallel runs the chips' epoch integrations on separate
	// goroutines. Within an epoch chips touch only their own state
	// (shadows change at boundaries), so the result is bit-identical
	// to the sequential simulation — only the host wall time changes.
	Parallel bool
	// Tracer, if non-nil, receives the run's typed event stream
	// (ChipStep, EpochSync, FabricTransfer, InducedKick, Probe,
	// EnergySample). Events are emitted at epoch barriers in chip
	// order, so the stream is deterministic for a given seed and
	// config regardless of Parallel. Nil disables tracing at the cost
	// of one branch per epoch.
	Tracer obs.Tracer
	// Metrics, if non-nil, accumulates run totals (flips, bit changes,
	// stall and traffic) and per-epoch stall histograms into the named
	// instruments of the registry.
	Metrics *obs.Registry
	// Faults configures the deterministic fault-injection layer and
	// its recovery policies. The zero value injects nothing and leaves
	// every run mode bit-identical to a fault-free simulation.
	Faults fault.Config
	// Spans, if non-nil, opens hierarchical span events (epoch → chip
	// step → sync / fabric settle / recovery) in addition to the flat
	// stream. The spanner's tracer is the span sink; Tracer consumers
	// see span events only if the caller (e.g. internal/core) built the
	// spanner over the same tracer. Span IDs are allocated at epoch
	// barriers in chip order, so the stream stays deterministic under
	// Parallel; only wall-duration fields vary between hosts. Emission
	// is read-only — trajectories are bit-identical with spans on or
	// off.
	Spans *obs.Spanner
	// SpanRoot is the interval the run's epoch spans nest under
	// (internal/core passes its "solve" span; the zero value roots the
	// epochs directly).
	SpanRoot obs.Span
	// PairStats emits one PairStat event per ordered live chip pair per
	// epoch — the observer's shadow-spin disagreement against the
	// owner's true readout, measured before boundary sync repairs it
	// (after it, in sequential mode — the zero-ignorance baseline).
	// Costs O(chips·N) comparisons per epoch; off by default. Requires
	// Tracer. Batch mode emits nothing: chips hold different jobs, so
	// cross-chip shadow agreement is not defined there.
	PairStats bool
}

// withDefaults fills defaults and validates user-supplied fields,
// returning an error (not a panic) at this public configuration
// boundary.
func (c *Config) withDefaults(n int) (Config, error) {
	out := *c
	if out.Chips == 0 {
		out.Chips = 4
	}
	if out.Chips < 1 || out.Chips > n {
		return out, fmt.Errorf("multichip: Chips=%d for N=%d", out.Chips, n)
	}
	if out.EpochNS == 0 {
		out.EpochNS = 3.3
	}
	if out.EpochNS <= 0 || math.IsNaN(out.EpochNS) {
		return out, fmt.Errorf("multichip: EpochNS=%v", out.EpochNS)
	}
	if out.InducedFlip == nil {
		out.InducedFlip = sched.Linear{From: 0.08, To: 0}
	}
	if out.Channels == 0 {
		out.Channels = 3
	}
	if out.Channels < 1 {
		return out, fmt.Errorf("multichip: Channels=%d", out.Channels)
	}
	if err := out.Faults.Validate(out.Chips); err != nil {
		return out, err
	}
	return out, nil
}

// SurpriseSample is one Fig 9 data point: at an epoch boundary, one
// chip's degree of ignorance (fraction of remote spins whose shadow is
// stale) and its energy surprise E(believed) − E(true).
type SurpriseSample struct {
	Epoch     int
	Chip      int
	Ignorance float64
	Surprise  float64
}

// EpochStat is one epoch's activity record — the per-epoch series
// behind Figs 13 and 15.
type EpochStat struct {
	Epoch             int
	Flips             int64
	InducedFlips      int64
	BitChanges        int64
	InducedBitChanges int64
	StallNS           float64
}

// Result reports a multiprocessor run.
type Result struct {
	Spins  []int8
	Energy float64
	// ModelNS is annealing time; StallNS is congestion hold time;
	// ElapsedNS is their sum — the time-to-solution axis of Fig 12.
	ModelNS, StallNS, ElapsedNS float64
	// Flips counts all readout changes across chips; InducedFlips the
	// kick-caused subset; BitChanges the net changes actually
	// synchronized over the fabric (Fig 13's two curves);
	// InducedBitChanges the synchronized changes whose most recent
	// cause was an induced kick (Fig 15's numerator).
	Flips, InducedFlips, BitChanges, InducedBitChanges int64
	// TrafficBytes is total fabric traffic; PeakDemandBytesPerNS the
	// worst per-chip per-epoch egress demand (Sec 6.5).
	TrafficBytes, PeakDemandBytesPerNS float64
	// Epochs performed.
	Epochs int
	// Trace holds (elapsed ns, energy) samples if sampling was on.
	Trace []metrics.Point
	// Surprises holds Fig 9 probe samples if Probes was on.
	Surprises []SurpriseSample
	// EpochStats holds per-epoch activity if RecordEpochStats was on.
	EpochStats []EpochStat
	// FaultStats ledgers injected faults and recovery work when the
	// fault layer was enabled (zero otherwise).
	FaultStats fault.Stats
	// LiveChips is the number of chips still operating at run end —
	// less than the configured count after an unrecovered chip loss,
	// and after a repartition (the survivors).
	LiveChips int
}

// System is a k-chip multiprocessor holding one problem sliced over
// its chips: the slices themselves, plus everything that exists once
// per machine rather than once per chip — the run-mode schedulers
// (RunConcurrentCtx, RunSequentialCtx, RunBatchCtx decide when each
// slice steps, diffs and delivers), the modeled fabric that charges
// their traffic, and the modeled fault layer. How a chip steps is
// Slice's business. Create with NewSystem, then run one mode.
type System struct {
	*layout
	slices []*Slice
	fabric *interconnect.Fabric
	// frt is the fault-injection runtime; nil when Config.Faults is
	// disabled, which keeps every run mode bit-identical to the
	// fault-free simulation.
	frt *faultRuntime

	// Live span context, valid only while a run-mode epoch is open.
	// spEpoch is the current epoch (or round) interval; spChips the
	// current chip step/turn handles (parents for rk4_retry intervals);
	// spPosNS the barrier position point intervals (recovery spans)
	// anchor at.
	spEpoch obs.Span
	spChips []obs.Span
	spPosNS float64
}

// NewSystem slices the model over cfg.Chips chips (contiguous blocks
// unless cfg.Partition says otherwise) and builds the fabric. Invalid
// user configuration is reported as an error; only internal invariant
// violations panic.
func NewSystem(m *ising.Model, cfg Config) (*System, error) {
	d, err := derive(m, cfg)
	if err != nil {
		return nil, err
	}
	c := d.cfg
	s := &System{layout: d.layout, slices: make([]*Slice, c.Chips)}
	for i := range s.slices {
		s.slices[i] = d.slice(i)
	}
	s.fabric, err = interconnect.New(c.Chips, c.Channels, c.ChannelBytesPerNS)
	if err != nil {
		return nil, err
	}
	if c.Faults.Enabled() {
		inj, err := fault.NewInjector(c.Faults, c.Chips)
		if err != nil {
			return nil, err
		}
		s.frt = newFaultRuntime(inj)
	}
	return s, nil
}

// MustSystem is NewSystem for callers with statically known-good
// configuration (tests, benchmarks, experiment harnesses); it panics
// on configuration errors.
func MustSystem(m *ising.Model, cfg Config) *System {
	s, err := NewSystem(m, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// GlobalSpins assembles the true global state from every chip's
// current readout.
func (s *System) GlobalSpins() []int8 {
	out := make([]int8, s.n)
	for _, sl := range s.slices {
		spins := sl.chip.machine.Spins()
		for li, g := range sl.chip.owned {
			out[g] = spins[li]
		}
	}
	return out
}

// syncEpoch performs the boundary synchronization: every chip
// broadcasts the owned spins that differ from what receivers believe,
// the fabric charges the traffic, and shadows update. It returns the
// number of bit changes communicated and how many of them were last
// caused by an induced kick. epochNo and tr feed the fault layer; with
// faults disabled the path is byte-identical to the seed simulation.
func (s *System) syncEpoch(epochNo int, tr obs.Tracer) (total, induced int64) {
	if s.frt != nil {
		// Last epoch's delayed broadcasts land first — late, in order.
		s.deliverPending()
	}
	if len(s.slices) == 1 {
		// No receivers: nothing is communicated. Keep the belief
		// ledger coherent anyway.
		sl := s.slices[0]
		copy(sl.belief, sl.chip.machine.Spins())
		return 0, 0
	}
	for ci, sl := range s.slices {
		if s.dead(ci) {
			continue
		}
		ups := sl.diff(sl.belief)
		if len(ups) == 0 {
			continue
		}
		total += int64(len(ups))
		induced += inducedCount(ups)
		if s.frt == nil {
			sl.commit(ups)
			s.fabric.Record(ci, interconnect.DeltaSyncBytes(len(ups), len(sl.chip.owned), len(s.slices)-1))
			s.applyBroadcast(ci, ups)
			continue
		}
		// Through the fault layer: charge the send to the live receivers,
		// then deliver — now, one epoch late, corrupted, or not at all.
		bytes := interconnect.DeltaSyncBytes(len(ups), len(sl.chip.owned), s.liveFanout(ci))
		s.fabric.Record(ci, bytes)
		f := s.frt.resolve(epochNo, ci, ups)
		s.send(epochNo, ci, &f, bytes, int64(len(ups)), false, tr)
		if f.believed {
			sl.commit(ups)
		}
		switch {
		case !f.delivered:
			// Silent staleness (or a known failure): shadows untouched.
		case f.delayed:
			s.frt.pending = append(s.frt.pending, PendingMessage{From: ci, Updates: f.payload})
		default:
			s.applyBroadcast(ci, f.payload)
		}
	}
	return total, induced
}

// probe measures each chip's ignorance and energy surprise against the
// true global state, *before* boundary sync repairs the shadows, and
// emits one Probe event per chip.
func (s *System) probe(epoch int, tr obs.Tracer) {
	truth := s.GlobalSpins()
	trueEnergy := s.energy(truth)
	for ci, sl := range s.slices {
		c := &sl.chip
		stale := 0
		remote := s.n - len(c.owned)
		for g := 0; g < s.n; g++ {
			if c.local[g] >= 0 {
				continue
			}
			if c.shadow[g] != truth[g] {
				stale++
			}
		}
		ign := 0.0
		if remote > 0 {
			ign = float64(stale) / float64(remote)
		}
		believed := s.energy(c.shadow)
		tr.Emit(obs.Event{
			Kind:  obs.Probe,
			Epoch: epoch,
			Chip:  ci,
			Value: believed - trueEnergy,
			Aux:   ign,
		})
	}
}

// RunConcurrent anneals one job across all chips for durationNS of
// model time in concurrent mode (Sec 5.4): every chip integrates its
// slice continuously, exchanging net spin changes at each epoch
// boundary, stalling when the fabric cannot keep up. It panics on
// integrator divergence; callers that need lifecycle control use
// RunConcurrentCtx.
func (s *System) RunConcurrent(durationNS float64) *Result {
	res, _, err := s.RunConcurrentCtx(context.Background(), durationNS, nil)
	if err != nil {
		panic(err)
	}
	return res
}

// RunConcurrentCtx is RunConcurrent with lifecycle control.
// Cancellation stops the run at the next epoch barrier and returns the
// partial result plus a resumable Checkpoint alongside ctx.Err();
// resuming from that checkpoint on a freshly built identical System
// continues bit-identically to a run that was never interrupted.
// Integrator divergence aborts with the typed error (no checkpoint —
// the mid-epoch cut is not a consistent state).
func (s *System) RunConcurrentCtx(ctx context.Context, durationNS float64, resume *Checkpoint) (*Result, *Checkpoint, error) {
	f, err := s.startRun(ctx, ModeConcurrent, durationNS, durationNS, 0, resume)
	if err != nil {
		return nil, nil, err
	}
	cfg, pos, tr := &s.cfg, &f.pos, f.tr
	body := func(no int, epoch float64) (float64, error) {
		fromNS, elapsed := pos.ModelNS, pos.ElapsedNS
		// Every chip steps the same epoch; the result is the same
		// whether the host runs them in turn or one goroutine each.
		badChip, chipErr := s.forEachSlice(func(ci int, sl *Slice) error {
			if cfg.Spans != nil {
				defer func(w0 time.Time) {
					sl.chip.epochWallNS = time.Since(w0).Nanoseconds()
				}(time.Now())
			}
			if s.dead(ci) {
				// A lost chip stops integrating AND stops clocking its
				// kick PRNG; coordinated peers keep toggling its
				// shadows blindly — that divergence is the damage.
				sl.chip.resetEpochCounters()
				return nil
			}
			return sl.step(fromNS, epoch, durationNS, cfg.Coordinated, s.held(ci))
		})
		if chipErr != nil {
			return 0, f.diverged(no, badChip, fromNS, chipErr)
		}
		pos.ModelNS += epoch
		model := pos.ModelNS
		s.emitChipSpans(elapsed, epoch)
		s.drainStepRetries(tr, no, model)
		if tr != nil {
			s.emitChipEpoch(tr, no, model)
		}
		if cfg.Probes {
			s.probe(no, tr)
		}
		if cfg.PairStats {
			// Pre-sync: the staleness each chip actually annealed
			// against this epoch.
			s.emitPairStats(tr, no, model)
		}
		s.spPosNS = elapsed + epoch
		var syncSpan obs.Span
		if sp := cfg.Spans; sp != nil {
			syncSpan = sp.Start("sync", s.spEpoch, -1, elapsed+epoch)
		}
		changes, inducedChanges := s.syncEpoch(no, tr)
		pos.BitChanges += changes
		pos.InducedBitChanges += inducedChanges
		emitIf(tr, obs.Event{Kind: obs.EpochSync, Epoch: no, ModelNS: model,
			Count: changes, Induced: inducedChanges})
		if s.frt != nil {
			// Watchdog resyncs record fabric traffic, so they must land
			// inside the open epoch for congestion to see them.
			s.watchdog(no, tr)
		}
		syncSpan.End(elapsed+epoch, &obs.Event{Count: changes})
		// The chips ran side by side: one epoch of wall clock, then the
		// stall.
		return epoch, nil
	}
	ck, err := f.loop(epochMode{next: f.clippedEpoch, body: body, energy: s.globalEnergy})
	if err != nil && ck == nil {
		return nil, nil, err
	}
	return s.collect(f), ck, err
}

// globalEnergy is the true global energy, as the single-job modes
// sample it.
func (s *System) globalEnergy() float64 { return s.energy(s.GlobalSpins()) }

// endEpochSpan closes the open epoch interval at the settled barrier.
func (s *System) endEpochSpan(elapsedNS, stallNS float64) {
	s.spEpoch.End(elapsedNS, &obs.Event{StallNS: stallNS})
	s.spEpoch = obs.Span{}
}

// drainStepRetries reports each chip's integrator-guardrail activity
// for the epoch that just closed — halved-dt retries spent keeping the
// step finite — as Numerical events (in chip order, at the barrier)
// and a counter. Draining at every barrier also keeps the per-epoch
// retry ledger out of checkpoints: it is always zero at a barrier.
func (s *System) drainStepRetries(tr obs.Tracer, epoch int, modelNS float64) {
	for ci, sl := range s.slices {
		r := sl.chip.machine.TakeEpochRetries()
		if r == 0 {
			continue
		}
		emitIf(tr, obs.Event{Kind: obs.Numerical, Label: "step-retry",
			Epoch: epoch, Chip: ci, ModelNS: modelNS, Count: r})
		if sp := s.cfg.Spans; sp != nil && ci < len(s.spChips) {
			// A point interval at the chip's step/turn start: the epoch's
			// guardrail retries, nested where they were spent.
			parent := s.spChips[ci]
			sp.Complete("rk4_retry", parent, ci, parent.StartNS(), 0, 0,
				&obs.Event{Count: r})
		}
		s.cfg.Metrics.Counter("brim.step_retries").Add(r)
		if s.cfg.Metrics != nil {
			s.cfg.Metrics.CounterWith("brim.chip_step_retries",
				obs.Labels{"chip": strconv.Itoa(ci)}).Add(r)
		}
	}
}

// forEachSlice applies f to every slice, on goroutines when the
// configuration asks for host parallelism. Callers must ensure f(ci)
// touches only slice ci's state. On failure it reports the lowest
// failing chip index and its error (so the outcome is deterministic
// regardless of Parallel); otherwise (-1, nil).
func (s *System) forEachSlice(f func(ci int, sl *Slice) error) (int, error) {
	if !s.cfg.Parallel || len(s.slices) == 1 {
		for ci, sl := range s.slices {
			if err := f(ci, sl); err != nil {
				return ci, err
			}
		}
		return -1, nil
	}
	errs := make([]error, len(s.slices))
	var wg sync.WaitGroup
	for ci, sl := range s.slices {
		wg.Add(1)
		go func(ci int, sl *Slice) {
			defer wg.Done()
			errs[ci] = f(ci, sl)
		}(ci, sl)
	}
	wg.Wait()
	for ci, err := range errs {
		if err != nil {
			return ci, err
		}
	}
	return -1, nil
}

// setHorizon gives every chip's machine the annealing horizon of a
// fresh run. A resumed run restores horizons verbatim instead (after a
// repartition they hold the remaining time, not the full duration).
func (s *System) setHorizon(ns float64) {
	for _, sl := range s.slices {
		sl.chip.machine.SetHorizon(ns)
	}
}

// collect assembles a single-job run's result from its ledger and the
// machines, at completion or at the cancellation cut alike.
func (s *System) collect(f *runFrame) *Result {
	pos := &f.pos
	res := &Result{
		ModelNS:              pos.ModelNS,
		ElapsedNS:            pos.ElapsedNS,
		StallNS:              s.fabric.StallNS(),
		BitChanges:           pos.BitChanges,
		InducedBitChanges:    pos.InducedBitChanges,
		TrafficBytes:         s.fabric.TotalBytes(),
		PeakDemandBytesPerNS: s.fabric.PeakDemand(),
		Flips:                pos.Flips,
		InducedFlips:         pos.InducedFlips,
		Epochs:               pos.EpochsDone,
		Trace:                pos.Trace,
		Surprises:            pos.Surprises,
		EpochStats:           pos.EpochStats,
		LiveChips:            s.liveChips(),
	}
	for ci, sl := range s.slices {
		c := &sl.chip
		res.Flips += c.machine.Flips()
		res.InducedFlips += c.machine.InducedFlips()
		if s.cfg.Metrics != nil {
			// Per-chip flip attribution for the exposition's chip
			// label; the unlabeled multichip.flips stays the total.
			s.cfg.Metrics.CounterWith("multichip.chip_flips",
				obs.Labels{"chip": strconv.Itoa(ci)}).Add(c.machine.Flips())
		}
	}
	res.Spins = s.GlobalSpins()
	res.Energy = s.energy(res.Spins)
	if s.frt != nil {
		res.FaultStats = s.frt.stats
	}
	s.recordRunMetrics(f.mode, res.Flips, res.InducedFlips, res.BitChanges, res.InducedBitChanges,
		res.StallNS, res.TrafficBytes, res.Epochs)
	return res
}
