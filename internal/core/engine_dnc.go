package core

import (
	"context"
	"time"

	"mbrim/internal/dnc"
)

// dncEngine adapts the divide-and-conquer hybrids over the proxy
// machine; one registration per algorithm (qbsolv = D-Wave's Algorithm
// 1, ours-dnc = the paper's Algorithm 2).
type dncEngine struct {
	kind Kind
	desc string
}

func init() {
	Register(dncEngine{kind: QBSolv,
		desc: "Algorithm 1: D-Wave's qbsolv divide-and-conquer on a proxy machine"})
	Register(dncEngine{kind: OursDnc,
		desc: "Algorithm 2: the paper's divide-and-conquer on a proxy machine"})
}

func (e dncEngine) Kind() Kind { return e.kind }

func (e dncEngine) Capabilities() Capabilities {
	return Capabilities{
		ModelTime:   true,
		Description: e.desc,
	}
}

func (e dncEngine) Solve(ctx context.Context, r *Request) (*Outcome, error) {
	out := r.NewOutcome()
	start := time.Now()
	mach := &dnc.ProxyMachine{
		Cap:      r.MachineCapacity,
		AnnealNS: 1000,
		Program:  100,
		Sweeps:   r.Sweeps,
	}
	var res *dnc.Result
	var rerr error
	if e.kind == QBSolv {
		res, rerr = dnc.QBSolvCtx(ctx, r.Model, mach, dnc.QBSolvConfig{Seed: r.Seed, Tracer: r.Tracer, Metrics: r.Metrics})
	} else {
		res, rerr = dnc.OursCtx(ctx, r.Model, mach, dnc.OursConfig{Seed: r.Seed, Tracer: r.Tracer, Metrics: r.Metrics})
	}
	out.Spins, out.Energy = res.Spins, res.Energy
	out.ModelNS = res.HardwareNS + res.ProgramNS
	out.Stats["glueOps"] = float64(res.GlueOps)
	out.Stats["launches"] = float64(res.Launches)
	out.Stats["softwareNS"] = float64(res.SoftwareWall.Nanoseconds())
	if rerr != nil {
		return r.Interrupted(out, start, rerr, nil)
	}
	r.Finish(out, start)
	return out, nil
}
