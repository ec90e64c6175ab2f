// Package tabu implements the tabu-search local solver that D-Wave's
// qbsolv tool (Algorithm 1 in the paper's appendix) uses for its
// initial estimate and its per-pass polish. It is a standard
// single-flip tabu search over Ising states: each iteration flips the
// best admissible spin, recently flipped spins are tabu for a fixed
// tenure, and a tabu flip is admitted anyway if it would beat the best
// energy seen (the aspiration criterion).
package tabu

import (
	"context"
	"fmt"
	"time"

	"mbrim/internal/ising"
	"mbrim/internal/rng"
)

// Config parameterizes a tabu search run.
type Config struct {
	// MaxIters bounds the total number of flips. Must be >= 1. The
	// search also stops after 10·n iterations without improving the best
	// energy.
	MaxIters int
	// Seed drives tie-breaking and the random start.
	Seed uint64
	// Initial optionally fixes the starting state (copied).
	Initial []int8
}

// Result is the outcome of a tabu search.
type Result struct {
	Spins  []int8 // best state found
	Energy float64
	Iters  int
	Wall   time.Duration
}

// Solve runs tabu search on the model and returns the best state
// encountered.
func Solve(m *ising.Model, cfg Config) *Result {
	res, _ := SolveCtx(context.Background(), m, cfg)
	return res
}

// SolveCtx is Solve with cancellation: the search stops at the next
// iteration boundary and returns the best state found so far alongside
// ctx.Err(). The result is always non-nil and internally consistent.
func SolveCtx(ctx context.Context, m *ising.Model, cfg Config) (*Result, error) {
	if cfg.MaxIters < 1 {
		panic(fmt.Sprintf("tabu: MaxIters=%d", cfg.MaxIters))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := m.N()
	// A flipped spin stays tabu for tenure iterations; patience is the
	// run of iterations without a new best that ends the search.
	tenure, patience := n/10+1, 10*n
	r := rng.New(cfg.Seed)
	spins := cfg.Initial
	if spins == nil {
		spins = ising.RandomSpins(n, r)
	} else {
		if len(spins) != n {
			panic("tabu: Initial length mismatch")
		}
		spins = ising.CopySpins(spins)
	}
	fields := m.LocalFields(spins, nil)
	energy := m.EnergyFromFields(spins, fields)

	best := ising.CopySpins(spins)
	bestEnergy := energy
	tabuUntil := make([]int, n)
	sinceImprove := 0

	start := time.Now()
	done := ctx.Done()
	var runErr error
	iter := 0
	for ; iter < cfg.MaxIters && sinceImprove < patience; iter++ {
		select {
		case <-done:
			runErr = ctx.Err()
		default:
		}
		if runErr != nil {
			break
		}
		// Pick the admissible flip with the lowest resulting energy;
		// break ties randomly so the search does not cycle on plateaus.
		bestK := -1
		bestDelta := 0.0
		ties := 0
		for k := 0; k < n; k++ {
			delta := m.FlipDelta(spins, fields, k)
			admissible := iter >= tabuUntil[k] || energy+delta < bestEnergy
			if !admissible {
				continue
			}
			switch {
			case bestK == -1 || delta < bestDelta:
				bestK, bestDelta, ties = k, delta, 1
			case delta == bestDelta:
				ties++
				if r.Intn(ties) == 0 {
					bestK = k
				}
			}
		}
		if bestK == -1 {
			// Everything tabu and nothing aspirates: release the oldest
			// tabu entry by flipping a random spin.
			bestK = r.Intn(n)
			bestDelta = m.FlipDelta(spins, fields, bestK)
		}
		m.ApplyFlip(spins, fields, bestK)
		energy += bestDelta
		tabuUntil[bestK] = iter + tenure + 1
		if energy < bestEnergy {
			bestEnergy = energy
			copy(best, spins)
			sinceImprove = 0
		} else {
			sinceImprove++
		}
	}
	return &Result{
		Spins:  best,
		Energy: bestEnergy,
		Iters:  iter,
		Wall:   time.Since(start),
	}, runErr
}
