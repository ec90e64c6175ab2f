// Package dnc implements the divide-and-conquer strategies of Sec 3
// and the appendix: D-Wave's qbsolv algorithm (Algorithm 1) and the
// paper's leaner alternative (Algorithm 2). Both glue a fixed-capacity
// Ising machine to a conventional computer; the package's accounting
// exposes exactly why that strategy collapses (Fig 1) — the glue
// computation and reprogramming dominate as soon as the problem
// exceeds the machine.
//
// Time accounting. A run accumulates three costs:
//
//   - HardwareNS: model time the Ising machine spends annealing.
//   - ProgramNS: model time spent reprogramming the machine, once per
//     sub-problem launch (D-Wave's 11.7 ms versus 240 µs of everything
//     else is the paper's cautionary example).
//   - SoftwareWall: measured wall time of everything the von Neumann
//     host does — tabu/SA passes, bias recomputation (the glue).
//
// The Fig 1 speedup divides a whole-problem SA wall time by the sum of
// the three (model nanoseconds plus measured nanoseconds).
package dnc

import (
	"context"
	"fmt"
	"sort"
	"time"

	"mbrim/internal/brim"
	"mbrim/internal/ising"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
	"mbrim/internal/sa"
	"mbrim/internal/tabu"
)

// Machine abstracts the fixed-capacity Ising machine being glued.
type Machine interface {
	// Capacity is the number of spins the hardware can map.
	Capacity() int
	// Anneal solves the sub-problem starting from init, returning the
	// final spins and the model time consumed in ns.
	Anneal(sub *ising.Model, init []int8, seed uint64) ([]int8, float64)
	// ProgramNS is the reprogramming latency charged per launch.
	ProgramNS() float64
}

// BRIMMachine runs sub-problems on the full BRIM dynamical-system
// simulator. Faithful but expensive to simulate; use for modest sizes.
type BRIMMachine struct {
	Cap int
	// Cfg configures each sub-anneal; Duration must be set.
	Cfg brim.SolveConfig
	// Program is the reprogramming latency in ns (BRIM's DAC array
	// programming; far cheaper than D-Wave's but not free).
	Program float64
}

// Capacity returns the hardware spin count.
func (b *BRIMMachine) Capacity() int { return b.Cap }

// ProgramNS returns the per-launch reprogramming latency.
func (b *BRIMMachine) ProgramNS() float64 { return b.Program }

// Anneal runs the dynamical system on the sub-problem.
func (b *BRIMMachine) Anneal(sub *ising.Model, init []int8, seed uint64) ([]int8, float64) {
	if sub.N() > b.Cap {
		panic(fmt.Sprintf("dnc: sub-problem of %d spins exceeds machine capacity %d", sub.N(), b.Cap))
	}
	cfg := b.Cfg
	cfg.Seed = seed
	cfg.Initial = init
	res := brim.Solve(sub, cfg)
	return res.Spins, res.ModelNS
}

// ProxyMachine stands in for an Ising machine when simulating the full
// dynamics is too slow for a parameter sweep: solution quality comes
// from a short SA polish, while the *charged* time is the hardware
// model (AnnealNS per launch). This mirrors the paper's own
// methodology of combining measured software with modeled hardware.
type ProxyMachine struct {
	Cap      int
	AnnealNS float64 // charged model time per launch
	Program  float64 // charged reprogramming time per launch
	Sweeps   int     // SA effort used as the quality proxy
}

// Capacity returns the hardware spin count.
func (p *ProxyMachine) Capacity() int { return p.Cap }

// ProgramNS returns the per-launch reprogramming latency.
func (p *ProxyMachine) ProgramNS() float64 { return p.Program }

// Anneal polishes the sub-problem with SA and charges AnnealNS.
func (p *ProxyMachine) Anneal(sub *ising.Model, init []int8, seed uint64) ([]int8, float64) {
	if sub.N() > p.Cap {
		panic(fmt.Sprintf("dnc: sub-problem of %d spins exceeds machine capacity %d", sub.N(), p.Cap))
	}
	sweeps := p.Sweeps
	if sweeps == 0 {
		sweeps = 50
	}
	res := sa.Solve(sub, sa.Config{Sweeps: sweeps, Seed: seed, Initial: init})
	return res.Spins, p.AnnealNS
}

// Result is the outcome of a divide-and-conquer run.
type Result struct {
	Spins  []int8
	Energy float64
	// HardwareNS and ProgramNS are modeled machine time; SoftwareWall
	// is measured host time (glue + software passes).
	HardwareNS   float64
	ProgramNS    float64
	SoftwareWall time.Duration
	// Launches counts machine invocations; GlueOps the multiply-adds
	// spent forming effective biases (Sec 3.3's glue).
	Launches int
	GlueOps  int64
	// Passes is the number of outer iterations performed.
	Passes int
}

// TotalNS returns the end-to-end cost in nanoseconds: modeled machine
// time plus measured software time. This is the denominator of the
// Fig 1 speedups.
func (r *Result) TotalNS() float64 {
	return r.HardwareNS + r.ProgramNS + float64(r.SoftwareWall.Nanoseconds())
}

// QBSolvConfig parameterizes Algorithm 1.
type QBSolvConfig struct {
	// NumRepeats is the pass budget without improvement before the
	// algorithm stops (the while-loop bound). Default 2.
	NumRepeats int
	// Fraction of the variables visited per pass (line 12's
	// fraction·size). Default 1.
	Fraction float64
	// TabuIters bounds each tabu polish. Default 20·n.
	TabuIters int
	// Seed drives all stochastic choices.
	Seed uint64
	// Tracer, if non-nil, receives a ChipStep event per machine launch
	// and an EnergySample per outer pass.
	Tracer obs.Tracer
	// Metrics, if non-nil, accumulates run totals (dnc.launches,
	// dnc.glue_ops, dnc.passes, dnc.runs).
	Metrics *obs.Registry
}

// QBSolv runs Algorithm 1 (D-Wave's qbsolv) with the given machine as
// the sub-problem solver. The problem is supplied as an Ising model;
// qbsolv's QUBO view and the Ising view are interchangeable (Sec 2.1).
func QBSolv(m *ising.Model, mach Machine, cfg QBSolvConfig) *Result {
	res, _ := QBSolvCtx(context.Background(), m, mach, cfg)
	return res
}

// QBSolvCtx is QBSolv with cancellation, checked between machine
// launches and between outer passes: the run stops there and returns
// the best state found so far alongside ctx.Err(). The result is
// always non-nil and internally consistent.
func QBSolvCtx(ctx context.Context, m *ising.Model, mach Machine, cfg QBSolvConfig) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := m.N()
	numRepeats := cfg.NumRepeats
	if numRepeats == 0 {
		numRepeats = 2
	}
	fraction := cfg.Fraction
	if fraction == 0 {
		fraction = 1
	}
	if fraction < 0 || fraction > 1 {
		panic(fmt.Sprintf("dnc: Fraction=%v", fraction))
	}
	tabuIters := cfg.TabuIters
	if tabuIters == 0 {
		tabuIters = 20 * n
	}
	r := rng.New(cfg.Seed)
	res := &Result{}
	subSize := mach.Capacity()
	if subSize > n {
		subSize = n
	}

	// Lines 7-9: initial estimate via tabu search from a random state.
	var qbest []int8
	var vbest float64
	var index []int
	swStart := time.Now()
	tr := tabu.Solve(m, tabu.Config{MaxIters: tabuIters, Seed: r.Uint64()})
	qbest, vbest = tr.Spins, tr.Energy
	index = orderByImpact(m, qbest)
	res.SoftwareWall += time.Since(swStart)

	qtmp := ising.CopySpins(qbest)
	total := int(fraction * float64(n))

	done := ctx.Done()
	var runErr error
	passCount := 0
	for passCount < numRepeats && runErr == nil {
		res.Passes++
		// Lines 15-21: clamp, launch machine, project — one pass over
		// the impact-ordered variables in capacity-sized windows.
		for i := 0; i < total; i += subSize {
			select {
			case <-done:
				runErr = ctx.Err()
			default:
			}
			if runErr != nil {
				break
			}
			end := i + subSize
			if end > len(index) {
				end = len(index)
			}
			window := index[i:end]

			glueStart := time.Now()
			sp := ising.Extract(m, window, qtmp)
			res.GlueOps += sp.GlueOps
			init := sp.Gather(qtmp)
			res.SoftwareWall += time.Since(glueStart)

			sol, annealNS := mach.Anneal(sp.Model, init, r.Uint64())
			res.HardwareNS += annealNS
			res.ProgramNS += mach.ProgramNS()
			res.Launches++
			if cfg.Tracer != nil {
				cfg.Tracer.Emit(obs.Event{Kind: obs.ChipStep, Epoch: res.Passes,
					Chip: res.Launches - 1, ModelNS: annealNS,
					Count: int64(sp.Model.N()), Label: "launch"})
			}

			sp.Project(sol, qtmp)
		}
		if runErr != nil {
			break
		}
		// Lines 22-23: whole-problem tabu polish and re-ordering.
		swStart = time.Now()
		tr = tabu.Solve(m, tabu.Config{MaxIters: tabuIters, Seed: r.Uint64(), Initial: qtmp})
		index = orderByImpact(m, tr.Spins)
		res.SoftwareWall += time.Since(swStart)
		if cfg.Tracer != nil {
			cfg.Tracer.Emit(obs.Event{Kind: obs.EnergySample, Epoch: res.Passes,
				Value: tr.Energy})
		}

		// Lines 24-32: best tracking and pass counting.
		switch {
		case tr.Energy < vbest:
			vbest = tr.Energy
			qbest = ising.CopySpins(tr.Spins)
			passCount = 0
		case tr.Energy == vbest:
			qbest = ising.CopySpins(tr.Spins)
			passCount++
		default:
			passCount++
		}
		qtmp = ising.CopySpins(tr.Spins)
	}
	res.Spins = qbest
	res.Energy = vbest
	recordRunMetrics(cfg.Metrics, res)
	return res, runErr
}

// recordRunMetrics adds a finished divide-and-conquer run's totals to
// the registry; a nil registry is a no-op.
func recordRunMetrics(reg *obs.Registry, res *Result) {
	if reg == nil {
		return
	}
	reg.Counter("dnc.runs").Inc()
	reg.Counter("dnc.launches").Add(int64(res.Launches))
	reg.Counter("dnc.glue_ops").Add(res.GlueOps)
	reg.Counter("dnc.passes").Add(int64(res.Passes))
}

// orderByImpact returns variable indices sorted by decreasing |ΔE| of
// a single flip at the given state — qbsolv's OrderByImpact.
func orderByImpact(m *ising.Model, spins []int8) []int {
	n := m.N()
	fields := m.LocalFields(spins, nil)
	impact := make([]float64, n)
	for i := 0; i < n; i++ {
		d := m.FlipDelta(spins, fields, i)
		if d < 0 {
			d = -d
		}
		impact[i] = d
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := impact[idx[a]], impact[idx[b]]
		if ia != ib {
			return ia > ib
		}
		return idx[a] < idx[b]
	})
	return idx
}
