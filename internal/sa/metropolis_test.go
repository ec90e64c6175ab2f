package sa

import (
	"context"
	"math"
	"testing"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/rng"
)

// refSolve is Solve's loop as it was before the acceptance table: the
// exp of every uphill attempt, drawing from r.
func refSolve(m *ising.Model, cfg Config, r *rng.Source) *Result {
	n := m.N()
	spins := ising.RandomSpins(n, r)
	lat := m.View(lattice.Auto)
	muH := m.MuH()
	fields := make([]float64, n)
	lattice.Fields(lat, spins, nil, fields, 1)
	energy := m.EnergyFromFields(spins, fields)
	rowCost := func(int) int64 { return int64(n) * instrPerRowUpdate }
	if lat.Kind() == lattice.CSR {
		rowCost = func(i int) int64 { return int64(lat.RowNNZ(i)) * instrPerRowUpdate }
	}
	res := &Result{}
	for sweep := 0; sweep < cfg.Sweeps; sweep++ {
		b := DefaultBeta.At(float64(sweep) / float64(cfg.Sweeps))
		for i := 0; i < n; i++ {
			res.Attempts++
			delta := 2 * float64(spins[i]) * (fields[i] + muH[i])
			if delta <= 0 || r.Float64() < math.Exp(-b*delta) {
				old := float64(spins[i])
				spins[i] = -spins[i]
				lat.FlipFanout(fields, i, -2*old)
				energy += delta
				res.Flips++
				res.Instructions += rowCost(i)
			}
			res.Instructions += instrPerAttempt
		}
	}
	res.Spins, res.Energy = spins, energy
	return res
}

// refSolveNaive is SolveNaive's loop before the acceptance table.
func refSolveNaive(m *ising.Model, cfg Config) *Result {
	r := rng.New(cfg.Seed)
	n := m.N()
	spins := ising.RandomSpins(n, r)
	energy := m.Energy(spins)
	res := &Result{}
	for sweep := 0; sweep < cfg.Sweeps; sweep++ {
		b := DefaultBeta.At(float64(sweep) / float64(cfg.Sweeps))
		for i := 0; i < n; i++ {
			res.Attempts++
			spins[i] = -spins[i]
			proposed := m.Energy(spins)
			delta := proposed - energy
			if delta <= 0 || r.Float64() < math.Exp(-b*delta) {
				energy = proposed
				res.Flips++
			} else {
				spins[i] = -spins[i]
			}
			res.Instructions += int64(n)*instrPerRowUpdate + instrPerAttempt
		}
	}
	res.Spins, res.Energy = spins, energy
	return res
}

// differentialModels are the model families the acceptance table must
// leave untouched: ±1 planes, whose ΔE are the table's even integers;
// floats with fractional weights; integer and fractional biases, which
// shift ΔE off the even integers or keep it on them; compressed rows.
func differentialModels(n int, seed uint64) map[string]*ising.Model {
	r := rng.New(seed)
	build := func(density float64, weight func() float64, bias func() float64) *ising.Model {
		b := ising.NewBuilder(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
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
	return map[string]*ising.Model{
		"kgraph planes":         graph.NewKGraph(n, r).Model,
		"dense fractional":      build(0.6, func() float64 { return float64(r.Intn(9)-4) * 0.375 }, nil),
		"dense integer biases":  build(0.6, pm1, func() float64 { return float64(r.Intn(5) - 2) }),
		"dense fractional bias": build(0.6, pm1, func() float64 { return float64(r.Intn(5)-2) * 0.25 }),
		"csr sparse":            build(0.04, pm1, nil).As(lattice.CSR),
	}
}

func sameRun(t *testing.T, name string, seed uint64, got, want *Result) {
	t.Helper()
	if math.Float64bits(got.Energy) != math.Float64bits(want.Energy) ||
		ising.HammingDistance(got.Spins, want.Spins) != 0 ||
		got.Attempts != want.Attempts || got.Flips != want.Flips ||
		got.Instructions != want.Instructions {
		t.Fatalf("%s seed %d: energy %v flips %d/%d instr %d, the exp loop %v flips %d/%d instr %d",
			name, seed, got.Energy, got.Flips, got.Attempts, got.Instructions,
			want.Energy, want.Flips, want.Attempts, want.Instructions)
	}
}

// TestSolveMatchesExpLoop: the acceptance table changes nothing a run
// produces — spins, energy bits, counters and where the stream stops —
// on every model family, seed after seed.
func TestSolveMatchesExpLoop(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		for name, m := range differentialModels(40, seed) {
			cfg := Config{Sweeps: 30, Seed: seed}
			r, ref := rng.New(seed), rng.New(seed)
			got, _ := solve(context.Background(), m, cfg, r)
			sameRun(t, name, seed, got, refSolve(m, cfg, ref))
			if r.State() != ref.State() {
				t.Fatalf("%s seed %d: stream ends at %x, the exp loop's at %x", name, seed, r.State(), ref.State())
			}
			if seed%10 == 0 {
				cfg.Sweeps = 4
				sameRun(t, name+" naive", seed, SolveNaive(m, cfg), refSolveNaive(m, cfg))
			}
		}
	}
}
