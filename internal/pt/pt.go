// Package pt implements parallel tempering (replica-exchange Monte
// Carlo), the strongest general-purpose software baseline for Ising
// optimization after tuned SA. R replicas of the problem run Metropolis
// sweeps at a geometric ladder of inverse temperatures; periodically,
// adjacent replicas propose to swap configurations with the detailed-
// balance acceptance min(1, exp(Δβ·ΔE)). Hot replicas roam the
// landscape, cold replicas refine — the combination escapes local
// minima that trap single-temperature annealing.
//
// The paper's evaluation uses Isakov-style SA as the sequential
// yardstick; parallel tempering is provided as the "tuned beyond the
// paper" software competitor for the extension benchmarks.
package pt

import (
	"context"
	"fmt"
	"math"
	"time"

	"mbrim/internal/ising"
	"mbrim/internal/rng"
)

// Config parameterizes a parallel-tempering run.
type Config struct {
	// Replicas is the number of temperature rungs. Default 16.
	Replicas int
	// Sweeps is the number of full Metropolis sweeps per replica, each
	// followed by a swap round. Must be >= 1.
	Sweeps int
	// Seed drives everything.
	Seed uint64
}

// betaMin and betaMax bound the geometric inverse-temperature ladder.
const betaMin, betaMax = 0.1, 3.0

// Result is the outcome of a run.
type Result struct {
	Spins  []int8
	Energy float64
	// SwapAttempts and Swaps count replica-exchange proposals and
	// acceptances.
	SwapAttempts, Swaps int64
	Wall                time.Duration
}

// replica is one temperature rung's state.
type replica struct {
	spins  []int8
	fields []float64
	energy float64
}

// Solve runs parallel tempering and returns the best state seen by any
// replica at any time.
func Solve(m *ising.Model, cfg Config) *Result {
	res, _ := SolveCtx(context.Background(), m, cfg)
	return res
}

// SolveCtx is Solve with cancellation: the run stops at the next sweep
// boundary and returns the best state seen so far alongside ctx.Err().
// The result is always non-nil and internally consistent.
func SolveCtx(ctx context.Context, m *ising.Model, cfg Config) (*Result, error) {
	return solve(ctx, m, cfg, rng.New(cfg.Seed))
}

// solve is SolveCtx drawing from r, which it leaves where the run's last
// draw did.
func solve(ctx context.Context, m *ising.Model, cfg Config, r *rng.Source) (*Result, error) {
	if cfg.Sweeps < 1 {
		panic(fmt.Sprintf("pt: Sweeps=%d", cfg.Sweeps))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	replicas := cfg.Replicas
	if replicas == 0 {
		replicas = 16
	}
	if replicas < 2 {
		panic(fmt.Sprintf("pt: Replicas=%d (need >= 2)", replicas))
	}

	n := m.N()
	betas := make([]float64, replicas)
	// A replica's β never changes, so neither does its acceptance table.
	mets := make([]*rng.Metropolis, replicas)
	ratio := math.Pow(betaMax/betaMin, 1/float64(replicas-1))
	for i := range betas {
		betas[i] = betaMin * math.Pow(ratio, float64(i))
		mets[i] = rng.NewMetropolis(n, betas[i])
	}

	reps := make([]*replica, replicas)
	for i := range reps {
		spins := ising.RandomSpins(n, r)
		fields := m.LocalFields(spins, nil)
		reps[i] = &replica{
			spins:  spins,
			fields: fields,
			energy: m.EnergyFromFields(spins, fields),
		}
	}

	res := &Result{Energy: math.Inf(1)}
	record := func(rep *replica) {
		if rep.energy < res.Energy {
			res.Energy = rep.energy
			res.Spins = ising.CopySpins(rep.spins)
		}
	}
	for _, rep := range reps {
		record(rep)
	}

	start := time.Now()
	done := ctx.Done()
	var runErr error
	for sweep := 0; sweep < cfg.Sweeps; sweep++ {
		select {
		case <-done:
			runErr = ctx.Err()
		default:
		}
		if runErr != nil {
			break
		}
		for ri, rep := range reps {
			met := mets[ri]
			for k := 0; k < n; k++ {
				delta := m.FlipDelta(rep.spins, rep.fields, k)
				if met.Accept(r, delta) {
					m.ApplyFlip(rep.spins, rep.fields, k)
					rep.energy += delta
				}
			}
			record(rep)
		}
		// Swap round: alternate even/odd adjacent pairs so every pair
		// is proposed at the same long-run rate.
		for i := sweep % 2; i+1 < replicas; i += 2 {
			res.SwapAttempts++
			// Detailed balance: accept with exp((β_i − β_{i+1})(E_i − E_{i+1})).
			arg := (betas[i] - betas[i+1]) * (reps[i].energy - reps[i+1].energy)
			if arg >= 0 || r.Float64() < math.Exp(arg) {
				reps[i], reps[i+1] = reps[i+1], reps[i]
				res.Swaps++
			}
		}
	}
	res.Wall = time.Since(start)
	return res, runErr
}
