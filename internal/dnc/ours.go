package dnc

import (
	"context"
	"fmt"
	"time"

	"mbrim/internal/ising"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
	"mbrim/internal/sa"
)

// OursConfig parameterizes Algorithm 2, the paper's leaner
// divide-and-conquer: randomly partition once, then repeatedly solve
// each partition with the others frozen and synchronize. It makes four
// outer passes, and the host solves each partition that does not fit
// the machine with 30 sweeps of SA.
type OursConfig struct {
	// Seed drives partitioning, initial state and solver seeds.
	Seed uint64
	// Tracer, if non-nil, receives a ChipStep event per hardware launch
	// and an EnergySample per outer pass.
	Tracer obs.Tracer
	// Metrics, if non-nil, accumulates run totals (dnc.launches,
	// dnc.glue_ops, dnc.passes, dnc.runs).
	Metrics *obs.Registry
}

// Ours runs Algorithm 2. The first partition is sized to the machine's
// capacity and solved in hardware; the remainder is split into
// capacity-sized chunks solved by host SA. Every pass re-extracts each
// sub-problem against the current global state (the Synchronise step —
// this is where the glue cost lives) and solves them in sequence, as
// Sec 3.3 argues they must be.
func Ours(m *ising.Model, mach Machine, cfg OursConfig) *Result {
	res, _ := OursCtx(context.Background(), m, mach, cfg)
	return res
}

// OursCtx is Ours with cancellation, checked between partition solves
// and between outer passes: the run stops there and returns the
// current global state alongside ctx.Err(). The result is always
// non-nil and internally consistent.
func OursCtx(ctx context.Context, m *ising.Model, mach Machine, cfg OursConfig) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := m.N()
	const numRepeats, swSweeps = 4, 30
	cap := mach.Capacity()
	if cap < 1 {
		panic(fmt.Sprintf("dnc: machine capacity %d", cap))
	}
	r := rng.New(cfg.Seed)
	res := &Result{}

	// Line 8: RandPartition. The first part fills the machine; the
	// rest is chunked for the host.
	perm := r.Perm(n)
	var parts [][]int
	for at := 0; at < n; at += cap {
		end := at + cap
		if end > n {
			end = n
		}
		part := append([]int(nil), perm[at:end]...)
		parts = append(parts, part)
	}

	spins := ising.RandomSpins(n, r)

	// Lines 10-16: repeat passes of sequential per-partition solving.
	done := ctx.Done()
	var runErr error
	for rep := 0; rep < numRepeats && runErr == nil; rep++ {
		res.Passes++
		for pi, part := range parts {
			select {
			case <-done:
				runErr = ctx.Err()
			default:
			}
			if runErr != nil {
				break
			}
			glueStart := time.Now()
			sp := ising.Extract(m, part, spins)
			res.GlueOps += sp.GlueOps
			init := sp.Gather(spins)
			res.SoftwareWall += time.Since(glueStart)

			if pi == 0 && len(part) <= cap {
				// Hardware partition.
				sol, annealNS := mach.Anneal(sp.Model, init, r.Uint64())
				res.HardwareNS += annealNS
				res.ProgramNS += mach.ProgramNS()
				res.Launches++
				if cfg.Tracer != nil {
					cfg.Tracer.Emit(obs.Event{Kind: obs.ChipStep, Epoch: res.Passes,
						Chip: res.Launches - 1, ModelNS: annealNS,
						Count: int64(sp.Model.N()), Label: "launch"})
				}
				sp.Project(sol, spins)
			} else {
				// Host partition: SA with the same frozen-complement
				// sub-problem.
				swStart := time.Now()
				sr := sa.Solve(sp.Model, sa.Config{
					Sweeps: swSweeps, Seed: r.Uint64(), Initial: init,
				})
				res.SoftwareWall += time.Since(swStart)
				sp.Project(sr.Spins, spins)
			}
		}
		// Line 15: Synchronise is implicit — the next pass's Extract
		// reads the updated global state.
		if cfg.Tracer != nil {
			cfg.Tracer.Emit(obs.Event{Kind: obs.EnergySample, Epoch: res.Passes,
				Value: m.Energy(spins)})
		}
	}

	res.Spins = spins
	res.Energy = m.Energy(spins)
	recordRunMetrics(cfg.Metrics, res)
	return res, runErr
}
