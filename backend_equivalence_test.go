package mbrim_test

import (
	"math/rand"
	"testing"

	"mbrim"
	"mbrim/internal/embed"
	"mbrim/internal/ising"
	"mbrim/internal/lattice"
)

// The determinism contract of the lattice layer, asserted at the public
// surface: for a fixed seed, a problem produces the same solve outcome
// bit for bit whichever layout stores it (Model.As re-lays it — no
// request names a layout), on every engine with a coupling hot loop.
// "Same" here is exact float equality and exact spin equality — not a
// tolerance — because each layout accumulates every row in the same
// ascending-column order as the serial dense loops it replaced.

// equivalenceModels returns named (model, graph) problems spanning the
// layouts the backends specialize for: a dense complete graph, a ~5%
// random graph, a crossbar chain embedding whose physical model is
// sparse and strongly structured, and two ±1 K-graphs wide enough for
// three-word bit planes — unbiased and with integer biases — where the
// dense backend takes its popcount rows and CSR the float walk
// (kgraph's fractional biases send every dense row to the walk).
func equivalenceModels(t *testing.T) map[string]*mbrim.Model {
	t.Helper()
	models := map[string]*mbrim.Model{
		"kgraph": mbrim.CompleteGraph(40, 1).ToIsing(),
		"random": mbrim.RandomGraph(60, 0.05, 2).ToIsing(),
	}
	logical := mbrim.CompleteGraph(9, 3).ToIsing()
	models["chimera"] = embed.Complete(logical, 0).Physical
	// Give two models biases so the μh path is exercised.
	r := rand.New(rand.NewSource(4))
	rebias := func(m *mbrim.Model, draw func() float64) *mbrim.Model {
		b := mbrim.NewModelBuilder(m.N())
		b.SetMu(m.Mu())
		for i := 0; i < m.N(); i++ {
			for j := i + 1; j < m.N(); j++ {
				if v := m.Coupling(i, j); v != 0 {
					b.SetCoupling(i, j, v)
				}
			}
			b.SetBias(i, draw())
		}
		m, err := b.Build()
		if err != nil {
			panic(err)
		}
		return m
	}
	for _, name := range []string{"kgraph", "chimera"} {
		models[name] = rebias(models[name], func() float64 { return r.Float64() - 0.5 })
	}
	models["k130"] = mbrim.CompleteGraph(130, 5).ToIsing()
	models["k130-intbias"] = rebias(mbrim.CompleteGraph(130, 6).ToIsing(), func() float64 { return float64(r.Intn(7) - 3) })
	return models
}

func solveOn(t *testing.T, kind mbrim.Kind, m *mbrim.Model, layout lattice.Kind) *mbrim.Outcome {
	t.Helper()
	out, err := mbrim.Solve(mbrim.Request{
		Kind:   kind,
		Model:  m.As(layout),
		Seed:   7,
		Sweeps: 20,
		Steps:  60,
		Runs:   2,
		Chips:  4,
		// Short dynamical runs keep the suite fast; bit-identity does
		// not depend on duration.
		DurationNS: 20,
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", kind, layout, err)
	}
	return out
}

func TestBackendsBitIdenticalAcrossEngines(t *testing.T) {
	engines := []mbrim.Kind{mbrim.SA, mbrim.BSBM, mbrim.DSBM, mbrim.BRIM,
		mbrim.QBSolv, mbrim.OursDnc, mbrim.MBRIMConcurrent}
	for name, m := range equivalenceModels(t) {
		for _, kind := range engines {
			t.Run(name+"/"+string(kind), func(t *testing.T) {
				ref := solveOn(t, kind, m, lattice.Dense)
				if ref.Backend != "dense" {
					t.Fatalf("outcome reports backend %q, want dense", ref.Backend)
				}
				got := solveOn(t, kind, m, lattice.CSR)
				if got.Backend != "csr" {
					t.Fatalf("outcome reports backend %q, want csr", got.Backend)
				}
				if got.Energy != ref.Energy {
					t.Fatalf("csr energy %v, dense %v", got.Energy, ref.Energy)
				}
				if ising.HammingDistance(got.Spins, ref.Spins) != 0 {
					t.Fatalf("csr spins differ from dense")
				}
				for k, v := range ref.Stats {
					if k == "softwareNS" {
						continue // measured host wall time, not deterministic
					}
					if got.Stats[k] != v {
						t.Fatalf("csr stat %s = %v, dense %v", k, got.Stats[k], v)
					}
				}
			})
		}
	}
}

func TestAutoBackendResolvesByDensity(t *testing.T) {
	models := equivalenceModels(t)
	dense := solveOn(t, mbrim.SA, models["kgraph"], lattice.Auto)
	if dense.Backend != "dense" {
		t.Fatalf("a complete graph was built %q, want dense", dense.Backend)
	}
	sparse := solveOn(t, mbrim.SA, models["random"], lattice.Auto)
	if sparse.Backend != "csr" {
		t.Fatalf("a 5%%-density graph was built %q, want csr", sparse.Backend)
	}
	// Whatever the builder picks, the outcome matches the other layout's.
	other := solveOn(t, mbrim.SA, models["random"], lattice.Dense)
	if other.Backend != "dense" {
		t.Fatalf("a model re-laid dense reports %q", other.Backend)
	}
	if sparse.Energy != other.Energy ||
		ising.HammingDistance(sparse.Spins, other.Spins) != 0 {
		t.Fatal("the stored layout's outcome differs from the re-laid one's")
	}
}
