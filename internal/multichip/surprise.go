package multichip

import (
	"fmt"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/rng"
	"mbrim/internal/sched"
)

// SurpriseConfig parameterizes the Fig 9 experiment: a problem is
// partitioned over several *software* (SA) solvers that search in
// parallel against a stale snapshot of each other, synchronizing every
// epoch. The experiment measures how ignorance of the true global
// state translates into energy surprise.
type SurpriseConfig struct {
	// Solvers is the number of parallel SA solvers. Default 8 (the
	// paper's setup).
	Solvers int
	// EpochMoves is the local-search effort per epoch per solver,
	// counted in attempted Metropolis moves — the "fixed amount of
	// time" knob whose size the figure sweeps. Small values (a
	// fraction of the partition size) give the low-ignorance regime;
	// multiple sweeps' worth gives the high-ignorance regime.
	EpochMoves int
	// Epochs per run. Default 20.
	Epochs int
	// Runs with different initial states. Default 20 (the paper's).
	Runs int
	// Seed drives everything.
	Seed uint64
}

// burnInSweeps equilibrates the global state with sequential
// whole-problem sweeps before measurement starts, so the samples
// reflect steady-state search rather than the initial greedy collapse.
const burnInSweeps = 2

// surpriseBeta is the SA inverse-temperature schedule across the whole
// run, 0.5 → 3 linear: colder than the general-purpose SA default,
// because at a hot start nearly half of all spins change every sweep,
// which saturates the ignorance metric and hides the epoch-size effect
// the experiment exists to show.
var surpriseBeta = sched.Linear{From: 0.5, To: 3}

// metropolis performs `moves` random-site Metropolis attempts on the
// model at inverse temperature beta, updating spins in place.
func metropolis(m *ising.Model, spins []int8, beta float64, moves int, r *rng.Source) {
	n := m.N()
	fields := m.LocalFields(spins, nil)
	met := rng.NewMetropolis(n, beta)
	for t := 0; t < moves; t++ {
		k := r.Intn(n)
		delta := m.FlipDelta(spins, fields, k)
		if met.Accept(r, delta) {
			m.ApplyFlip(spins, fields, k)
		}
	}
}

// EnergySurprise reproduces Fig 9. For every epoch of every run it
// emits one sample per solver: the solver's degree of ignorance (the
// fraction of external spins that changed while it was searching) and
// its energy surprise E(believed) − E(true). Defined this way, a
// positive surprise means the true state is better than the solver
// believed (the paper's footnote 5).
func EnergySurprise(m *ising.Model, cfg SurpriseConfig) []SurpriseSample {
	if cfg.Solvers == 0 {
		cfg.Solvers = 8
	}
	if cfg.Solvers < 1 || cfg.Solvers > m.N() {
		panic(fmt.Sprintf("multichip: Solvers=%d for N=%d", cfg.Solvers, m.N()))
	}
	if cfg.EpochMoves < 1 {
		panic(fmt.Sprintf("multichip: EpochMoves=%d", cfg.EpochMoves))
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 20
	}
	if cfg.Runs == 0 {
		cfg.Runs = 20
	}

	n := m.N()
	r := rng.New(cfg.Seed)
	var samples []SurpriseSample

	for run := 0; run < cfg.Runs; run++ {
		parts := graph.BlockPartition(n, cfg.Solvers)
		global := ising.RandomSpins(n, r)
		metropolis(m, global, surpriseBeta.At(0), burnInSweeps*n, r)

		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			// Every solver searches against this frozen snapshot — the
			// "parallel against stale state" regime under test.
			snapshot := ising.CopySpins(global)
			progress := float64(epoch) / float64(cfg.Epochs)
			b := surpriseBeta.At(progress)

			updated := make([][]int8, cfg.Solvers)
			for si, part := range parts {
				sp := ising.Extract(m, part, snapshot)
				local := sp.Gather(snapshot)
				metropolis(sp.Model, local, b, cfg.EpochMoves, r)
				updated[si] = local
			}

			// Commit all updates: the true post-epoch global state.
			truth := ising.CopySpins(snapshot)
			for si, part := range parts {
				sp := &ising.SubProblem{Index: part}
				sp.Project(updated[si], truth)
			}
			trueEnergy := m.Energy(truth)

			// Per-solver: believed = snapshot with only its own slice
			// updated; ignorance = fraction of external spins that
			// moved during the epoch.
			for si, part := range parts {
				believed := ising.CopySpins(snapshot)
				sp := &ising.SubProblem{Index: part}
				sp.Project(updated[si], believed)

				own := make(map[int]bool, len(part))
				for _, g := range part {
					own[g] = true
				}
				stale, external := 0, 0
				for g := 0; g < n; g++ {
					if own[g] {
						continue
					}
					external++
					if believed[g] != truth[g] {
						stale++
					}
				}
				ign := 0.0
				if external > 0 {
					ign = float64(stale) / float64(external)
				}
				samples = append(samples, SurpriseSample{
					Epoch:     run*cfg.Epochs + epoch + 1,
					Chip:      si,
					Ignorance: ign,
					Surprise:  m.Energy(believed) - trueEnergy,
				})
			}
			global = truth
		}
	}
	return samples
}
