package mbrim_test

import (
	"math/rand"
	"testing"

	"mbrim"
	"mbrim/internal/embed"
	"mbrim/internal/ising"
)

// The determinism contract of the lattice layer, asserted at the public
// surface: for a fixed seed, every coupling backend produces the same
// solve outcome bit for bit, on every engine with a coupling hot loop.
// "Same" here is exact float equality and exact spin equality — not a
// tolerance — because each backend accumulates every row in the same
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
		h := make([]float64, m.N())
		for i := range h {
			h[i] = draw()
		}
		m, err := m.WithBiases(h)
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

func solveOn(t *testing.T, kind mbrim.Kind, m *mbrim.Model, backend string) *mbrim.Outcome {
	t.Helper()
	out, err := mbrim.Solve(mbrim.Request{
		Kind:    kind,
		Model:   m,
		Seed:    7,
		Sweeps:  20,
		Steps:   60,
		Runs:    2,
		Chips:   4,
		Backend: backend,
		// Short dynamical runs keep the suite fast; bit-identity does
		// not depend on duration.
		DurationNS: 20,
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", kind, backend, err)
	}
	return out
}

func TestBackendsBitIdenticalAcrossEngines(t *testing.T) {
	engines := []mbrim.Kind{mbrim.SA, mbrim.BSBM, mbrim.DSBM, mbrim.BRIM,
		mbrim.QBSolv, mbrim.OursDnc, mbrim.MBRIMConcurrent}
	for name, m := range equivalenceModels(t) {
		for _, kind := range engines {
			t.Run(name+"/"+string(kind), func(t *testing.T) {
				ref := solveOn(t, kind, m, mbrim.BackendDense)
				if ref.Backend != mbrim.BackendDense {
					t.Fatalf("outcome reports backend %q, want dense", ref.Backend)
				}
				for _, backend := range []string{mbrim.BackendCSR} {
					got := solveOn(t, kind, m, backend)
					if got.Backend != backend {
						t.Fatalf("outcome reports backend %q, want %q", got.Backend, backend)
					}
					if got.Energy != ref.Energy {
						t.Fatalf("%s energy %v, dense %v", backend, got.Energy, ref.Energy)
					}
					if ising.HammingDistance(got.Spins, ref.Spins) != 0 {
						t.Fatalf("%s spins differ from dense", backend)
					}
					for k, v := range ref.Stats {
						if k == "softwareNS" {
							continue // measured host wall time, not deterministic
						}
						if got.Stats[k] != v {
							t.Fatalf("%s stat %s = %v, dense %v", backend, k, got.Stats[k], v)
						}
					}
				}
			})
		}
	}
}

func TestAutoBackendResolvesByDensity(t *testing.T) {
	models := equivalenceModels(t)
	dense := solveOn(t, mbrim.SA, models["kgraph"], mbrim.BackendAuto)
	if dense.Backend != mbrim.BackendDense {
		t.Fatalf("auto on a complete graph picked %q, want dense", dense.Backend)
	}
	sparse := solveOn(t, mbrim.SA, models["random"], "")
	if sparse.Backend != mbrim.BackendCSR {
		t.Fatalf("auto on a 5%%-density graph picked %q, want csr", sparse.Backend)
	}
	// Whatever auto picks, the outcome matches an explicit request.
	explicit := solveOn(t, mbrim.SA, models["random"], mbrim.BackendCSR)
	if sparse.Energy != explicit.Energy ||
		ising.HammingDistance(sparse.Spins, explicit.Spins) != 0 {
		t.Fatal("auto outcome differs from the explicitly-requested backend")
	}
}

func TestBackendRejectsUnknownName(t *testing.T) {
	_, err := mbrim.Solve(mbrim.Request{
		Kind:    mbrim.SA,
		Model:   mbrim.CompleteGraph(8, 1).ToIsing(),
		Backend: "simd",
	})
	if err == nil {
		t.Fatal("unknown backend name was accepted")
	}
}
