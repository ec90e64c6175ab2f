package pt

import (
	"context"
	"math"
	"testing"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/rng"
)

// refSolve is SolveCtx's loop as it was before the acceptance tables,
// at its default ladder: the exp of every uphill attempt, drawing from r.
func refSolve(m *ising.Model, sweeps int, r *rng.Source) *Result {
	const replicas, betaMin, betaMax = 16, 0.1, 3.0
	n := m.N()
	betas := make([]float64, replicas)
	ratio := math.Pow(betaMax/betaMin, 1/float64(replicas-1))
	for i := range betas {
		betas[i] = betaMin * math.Pow(ratio, float64(i))
	}
	reps := make([]*replica, replicas)
	for i := range reps {
		spins := ising.RandomSpins(n, r)
		fields := m.LocalFields(spins, nil)
		reps[i] = &replica{spins: spins, fields: fields, energy: m.EnergyFromFields(spins, fields)}
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
	for sweep := 0; sweep < sweeps; sweep++ {
		for ri, rep := range reps {
			beta := betas[ri]
			for k := 0; k < n; k++ {
				delta := m.FlipDelta(rep.spins, rep.fields, k)
				if delta <= 0 || r.Float64() < math.Exp(-beta*delta) {
					m.ApplyFlip(rep.spins, rep.fields, k)
					rep.energy += delta
				}
			}
			record(rep)
		}
		for i := sweep % 2; i+1 < replicas; i += 2 {
			res.SwapAttempts++
			arg := (betas[i] - betas[i+1]) * (reps[i].energy - reps[i+1].energy)
			if arg >= 0 || r.Float64() < math.Exp(arg) {
				reps[i], reps[i+1] = reps[i+1], reps[i]
				res.Swaps++
			}
		}
	}
	return res
}

// TestSolveMatchesExpLoop: the per-replica acceptance tables change
// nothing a run produces — best spins, energy bits, swap counters and
// where the stream stops — on ±1 planes, fractional floats, integer and
// fractional biases and compressed rows, seed after seed.
func TestSolveMatchesExpLoop(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		r := rng.New(seed)
		build := func(density float64, weight, bias func() float64) *ising.Model {
			b := ising.NewBuilder(32)
			for i := 0; i < 32; i++ {
				for j := i + 1; j < 32; j++ {
					if r.Float64() < density {
						b.SetCoupling(i, j, weight())
					}
				}
				if bias != nil {
					b.SetBias(i, bias())
				}
			}
			return mustBuild(b)
		}
		pm1 := func() float64 { return float64(r.Spin()) }
		for name, m := range map[string]*ising.Model{
			"kgraph planes":         graph.NewKGraph(32, r).Model,
			"dense fractional":      build(0.6, func() float64 { return float64(r.Intn(9)-4) * 0.375 }, nil),
			"dense integer biases":  build(0.6, pm1, func() float64 { return float64(r.Intn(5) - 2) }),
			"dense fractional bias": build(0.6, pm1, func() float64 { return float64(r.Intn(5)-2) * 0.25 }),
			"csr sparse":            build(0.05, pm1, nil).As(lattice.CSR),
		} {
			a, b := rng.New(seed), rng.New(seed)
			got, _ := solve(context.Background(), m, Config{Sweeps: 12, Seed: seed}, a)
			want := refSolve(m, 12, b)
			if math.Float64bits(got.Energy) != math.Float64bits(want.Energy) ||
				ising.HammingDistance(got.Spins, want.Spins) != 0 ||
				got.SwapAttempts != want.SwapAttempts || got.Swaps != want.Swaps {
				t.Fatalf("%s seed %d: energy %v swaps %d/%d, the exp loop %v swaps %d/%d", name, seed,
					got.Energy, got.Swaps, got.SwapAttempts, want.Energy, want.Swaps, want.SwapAttempts)
			}
			if a.State() != b.State() {
				t.Fatalf("%s seed %d: stream ends at %x, the exp loop's at %x", name, seed, a.State(), b.State())
			}
		}
	}
}
