package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"mbrim/internal/core"
)

// engine registers the distributed fabric in core's registry as
// "cluster": the multiprocessor's concurrent mode with its chips hosted
// on the worker nodes Request.Cluster names. What a run manager gives
// any engine — admission, retention, SSE, /diag, /outcome, durable
// checkpoints and crash-resume — a distributed run has by being one.
// Like internal/portfolio, the package must be linked for the engine to
// exist; the daemon and the CLI do.
type engine struct {
	// client carries every run's RPCs and heartbeats: one keep-alive
	// pool for the process, so back-to-back solves reuse their
	// connections to the workers and a finishing run closes nobody's.
	client *http.Client
	// anon numbers the runs a caller left unnamed.
	anon atomic.Int64
}

func init() { core.Register(&engine{client: newKeepAliveClient()}) }

func (*engine) Kind() core.Kind { return core.Cluster }

func (*engine) Capabilities() core.Capabilities {
	return core.Capabilities{
		Resume:      true,
		Traced:      true,
		ModelTime:   true,
		Description: "multiprocessor, concurrent mode, chips hosted on remote worker nodes (bit-identical to mbrim)",
	}
}

// config maps a prepared request onto the coordinator's configuration.
func (e *engine) config(r *core.Request) Config {
	cs := &r.Cluster
	return Config{
		Workers:           cs.Workers,
		Chips:             r.Chips,
		DurationNS:        r.DurationNS,
		EpochNS:           r.EpochNS,
		Coordinated:       r.Coordinated,
		Seed:              r.Seed,
		Channels:          r.Channels,
		ChannelBytesPerNS: r.ChannelBytesPerNS,
		SampleEveryNS:     r.SampleEveryNS,
		CheckpointEvery:   cs.CheckpointEvery,
		RPCTimeout:        time.Duration(max(cs.RPCTimeoutMS, 0)) * time.Millisecond,
		MaxAttempts:       cs.MaxAttempts,
		RetryBudget:       cs.RetryBudget,
		Federate:          cs.Federate,
		Metrics:           r.Metrics,
		Tracer:            r.Tracer,
		Client:            e.client,
	}
}

// Validate is the engine's submit-time check (core.Validate): what New
// can refuse, without touching the network.
func (e *engine) Validate(r *core.Request) error {
	_, err := prepare(r.Model, e.config(r))
	return err
}

// Solve runs one distributed solve. A Request.Resume envelope — a
// coordinator's interrupt checkpoint, or the in-process concurrent
// engine's: they are the same envelope — continues bit-identically; on
// cancellation the coordinator's envelope rides the InterruptedError.
func (e *engine) Solve(ctx context.Context, r *core.Request) (*core.Outcome, error) {
	out := r.NewOutcome()
	start := time.Now()
	id := r.RunID
	if id == "" {
		id = fmt.Sprintf("solve-%d", e.anon.Add(1))
	}
	co, err := New(r.Model, id, e.config(r))
	if err != nil {
		return nil, err
	}
	ck, err := r.MultichipResume(core.MBRIMConcurrent)
	if err != nil {
		return nil, err
	}
	if ck != nil {
		if err := co.resumeFrom(ck); err != nil {
			return nil, err
		}
	}
	res, env, err := co.run(ctx)
	if res == nil {
		return nil, err
	}
	core.FillMultichip(out, &res.Result)
	// What only the cluster reports: the annealing time without stalls
	// (Outcome.ModelNS is with), the epoch count, and what only a fabric
	// of processes has: its size and the recovery ledger.
	st, rec := out.Stats, &res.Recovery
	st["annealNS"] = res.ModelNS
	st["epochs"] = float64(res.Epochs)
	st["liveWorkers"] = float64(res.LiveWorkers)
	st["rpcRetries"] = float64(rec.RPCRetries)
	st["workerDeaths"] = float64(rec.WorkerDeaths)
	st["recoveries"] = float64(rec.Recoveries)
	st["replayedEpochs"] = float64(rec.ReplayedEpochs)
	st["handoffBytes"] = rec.HandoffBytes
	st["recoveryStallNS"] = rec.RecoveryStallNS
	if rec.Degraded {
		st["degraded"] = 1
	}
	if err != nil {
		return r.Interrupted(out, start, err, env)
	}
	r.Finish(out, start)
	return out, nil
}
