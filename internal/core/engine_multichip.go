package core

import (
	"context"
	"fmt"
	"time"

	"mbrim/internal/checkpoint"
	"mbrim/internal/fault"
	"mbrim/internal/multichip"
)

// multichipEngine adapts the multiprocessor; one registration per
// operating mode (concurrent, sequential zero-ignorance baseline,
// batch). These are the only engines with full-state checkpoint
// resume: cancellation returns an InterruptedError whose Checkpoint
// bytes Request.Resume accepts for a bit-identical continuation.
type multichipEngine struct {
	kind Kind
	desc string
}

func init() {
	Register(multichipEngine{kind: MBRIMConcurrent,
		desc: "multiprocessor, concurrent mode (chips anneal while gradients sync)"})
	Register(multichipEngine{kind: MBRIMSequential,
		desc: "multiprocessor, sequential zero-ignorance baseline"})
	Register(multichipEngine{kind: MBRIMBatch,
		desc: "multiprocessor, batch mode (Runs staggered jobs rotate across chips)"})
}

func (e multichipEngine) Kind() Kind { return e.kind }

func (e multichipEngine) Capabilities() Capabilities {
	return Capabilities{
		Resume:      true,
		Spans:       true,
		Traced:      true,
		ModelTime:   true,
		Description: e.desc,
	}
}

// Solve runs one of the multiprocessor modes with checkpoint resume
// and capture. On cancellation the partial result is wrapped in an
// InterruptedError whose Checkpoint bytes Request.Resume accepts; on
// divergence the typed error propagates with no checkpoint.
func (e multichipEngine) Solve(ctx context.Context, r *Request) (*Outcome, error) {
	out := r.NewOutcome()
	start := time.Now()
	sys, err := multichip.NewSystem(r.Model, multichipConfig(*r))
	if err != nil {
		return nil, err
	}
	resume, err := r.MultichipResume(r.Kind)
	if err != nil {
		return nil, err
	}
	var (
		res  *multichip.Result
		ck   *multichip.Checkpoint
		rerr error
	)
	switch r.Kind {
	case MBRIMBatch:
		// A batch run reports its best job's state and energy.
		var b *multichip.BatchResult
		if b, ck, rerr = sys.RunBatchCtx(ctx, r.Runs, r.DurationNS, resume); b != nil {
			res = &multichip.Result{Spins: b.Jobs[b.Best], Energy: b.BestEnergy, StallNS: b.StallNS,
				ElapsedNS: b.ElapsedNS, Flips: b.Flips, InducedFlips: b.InducedFlips, BitChanges: b.BitChanges,
				TrafficBytes: b.TrafficBytes, Trace: b.Trace, EpochStats: b.EpochStats,
				FaultStats: b.FaultStats, LiveChips: b.LiveChips}
		}
	case MBRIMSequential:
		res, ck, rerr = sys.RunSequentialCtx(ctx, r.DurationNS, resume)
	default:
		res, ck, rerr = sys.RunConcurrentCtx(ctx, r.DurationNS, resume)
	}
	if rerr != nil && !isCtxErr(rerr) {
		return nil, rerr
	}
	FillMultichip(out, res)
	fillFaultStats(out, res.FaultStats, res.LiveChips)
	if rerr != nil {
		data, err := checkpoint.Encode(&checkpoint.File{
			Engine:    string(r.Kind),
			Seed:      r.Seed,
			N:         r.Model.N(),
			ModelHash: checkpoint.HashModel(r.Model),
			Multichip: ck,
		})
		if err != nil {
			return nil, err
		}
		return r.Interrupted(out, start, rerr, data)
	}
	r.Finish(out, start)
	return out, nil
}

// MultichipResume decodes Request.Resume as a full-state multiprocessor
// envelope written by engine for this request's seed and model; nil
// when there is nothing to resume. Exported for the cluster engine,
// which resumes (and writes) the concurrent engine's envelopes.
func (r *Request) MultichipResume(engine Kind) (*multichip.Checkpoint, error) {
	if len(r.Resume) == 0 {
		return nil, nil
	}
	f, err := checkpoint.Decode(r.Resume)
	if err != nil {
		return nil, err
	}
	if err := f.Validate(string(engine), r.Seed, r.Model); err != nil {
		return nil, err
	}
	if f.Multichip == nil {
		return nil, fmt.Errorf("core: checkpoint has no multichip payload")
	}
	return f.Multichip, nil
}

func multichipConfig(r Request) multichip.Config {
	return multichip.Config{
		Chips:             r.Chips,
		EpochNS:           r.EpochNS,
		Coordinated:       r.Coordinated,
		Channels:          r.Channels,
		ChannelBytesPerNS: r.ChannelBytesPerNS,
		Seed:              r.Seed,
		SampleEveryNS:     r.SampleEveryNS,
		RecordEpochStats:  r.RecordEpochStats,
		Probes:            r.Probes,
		Parallel:          r.Parallel,
		Tracer:            r.Tracer,
		Metrics:           r.Metrics,
		Faults:            r.Faults,
		Spans:             r.spans,
		SpanRoot:          r.rootSpan,
		PairStats:         r.Diag,
	}
}

// fillFaultStats publishes the fault/recovery ledger into the uniform
// Stats map when any fault activity occurred.
func fillFaultStats(out *Outcome, fs fault.Stats, liveChips int) {
	out.Stats["liveChips"] = float64(liveChips)
	if !fs.Any() {
		return
	}
	out.Stats["faultDrops"] = float64(fs.Drops)
	out.Stats["faultCorruptions"] = float64(fs.Corruptions)
	out.Stats["faultDelays"] = float64(fs.Delays)
	out.Stats["faultStalls"] = float64(fs.Stalls)
	out.Stats["faultChipLosses"] = float64(fs.ChipLosses)
	out.Stats["recoveryRetransmits"] = float64(fs.Retransmits)
	out.Stats["recoveryResyncs"] = float64(fs.Resyncs)
	out.Stats["recoveryRepartitions"] = float64(fs.Repartitions)
	out.Stats["recoveryRetransmitBytes"] = fs.RetransmitBytes
	out.Stats["recoveryResyncBytes"] = fs.ResyncBytes
	out.Stats["recoveryStallNS"] = fs.RecoveryStallNS
}

// FillMultichip publishes a multiprocessor result into out: its state
// and energy, the time to solution (stalls included) as ModelNS, its
// series, and the stall, activity and traffic stats. The cluster engine
// reports its Result through it too.
func FillMultichip(out *Outcome, res *multichip.Result) {
	out.Spins = res.Spins
	out.Energy = res.Energy
	out.ModelNS = res.ElapsedNS
	out.Trace, out.EpochStats, out.Surprises = res.Trace, res.EpochStats, res.Surprises
	out.Stats["stallNS"] = res.StallNS
	out.Stats["flips"] = float64(res.Flips)
	out.Stats["inducedFlips"] = float64(res.InducedFlips)
	out.Stats["bitChanges"] = float64(res.BitChanges)
	out.Stats["trafficBytes"] = res.TrafficBytes
}
