package embed

import (
	"math"
	"testing"

	"mbrim/internal/exact"
	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/rng"
	"mbrim/internal/sa"
)

func TestChimeraEmbedUsesWholeFabric(t *testing.T) {
	// n = shore·m logical spins consume all 2·shore·m² qubits.
	m := logicalModel(8, false, 1) // shore 4, m = 2
	e := CompleteOnChimera(m, 4, 0)
	if e.PhysicalNodes() != 2*4*2*2 {
		t.Fatalf("physical qubits = %d, want 32", e.PhysicalNodes())
	}
	for _, chain := range e.Chains() {
		if len(chain) != 4 { // 2 horizontal + 2 vertical
			t.Fatalf("chain length %d, want 4", len(chain))
		}
	}
}

func TestChimeraEmbedIsTopologyLegal(t *testing.T) {
	// Every programmed coupler must exist in the chimera graph — the
	// property that makes this a real embedding rather than wishful
	// wiring.
	for _, tc := range []struct{ n, shore int }{
		{8, 4}, {6, 2}, {12, 4}, {9, 3},
	} {
		m := logicalModel(tc.n, true, uint64(tc.n))
		e := CompleteOnChimera(m, tc.shore, 0)
		cells := (tc.n + tc.shore - 1) / tc.shore
		if cells < 2 {
			cells = 2
		}
		if !e.ChimeraLegal(cells, tc.shore) {
			t.Fatalf("n=%d shore=%d: embedding uses non-chimera couplers", tc.n, tc.shore)
		}
	}
}

func TestChimeraEmbedEnergyIdentity(t *testing.T) {
	// On intact chains: physical energy = logical energy − chain
	// ferromagnetic offset (computed from actual chain edge counts).
	m := logicalModel(6, true, 2)
	e := CompleteOnChimera(m, 2, 0)
	// Each chain of length 2m has 2m−1 internal couplers of strength F.
	offset := 0.0
	for _, chain := range e.Chains() {
		offset += float64(len(chain)-1) * e.ChainStrength
	}
	r := rng.New(3)
	for trial := 0; trial < 10; trial++ {
		s := ising.RandomSpins(6, r)
		physE := e.Physical.Energy(e.Encode(s))
		if math.Abs(physE-(m.Energy(s)-offset)) > 1e-6 {
			t.Fatalf("identity broken by %v", physE-(m.Energy(s)-offset))
		}
	}
}

func TestChimeraEmbedGroundStatePreserved(t *testing.T) {
	// Exact ground state of the embedded problem decodes to the
	// logical optimum (n=4, shore 2 → 16 physical qubits).
	for seed := uint64(0); seed < 3; seed++ {
		m := logicalModel(4, true, seed+10)
		e := CompleteOnChimera(m, 2, 0)
		logicalOpt := exact.Solve(m)
		physOpt := exact.Solve(e.Physical)
		if b := e.ChainBreaks(physOpt.Spins); b != 0 {
			t.Fatalf("seed %d: ground state breaks %d chains", seed, b)
		}
		decoded := e.Decode(physOpt.Spins)
		if got := m.Energy(decoded); math.Abs(got-logicalOpt.Energy) > 1e-9 {
			t.Fatalf("seed %d: decoded %v, optimum %v", seed, got, logicalOpt.Energy)
		}
	}
}

func TestChimeraEmbedSAEndToEnd(t *testing.T) {
	g := graph.Complete(8, rng.New(20))
	m := g.ToIsing()
	e := CompleteOnChimera(m, 4, 0)
	res := sa.SolveBatch(e.Physical, sa.Config{Sweeps: 800, Seed: 21}, 8)
	decoded := e.Decode(res.Best.Spins)
	if cut := g.CutValue(decoded); cut <= 0 {
		t.Fatalf("embedded SA cut %v", cut)
	}
}

func TestChimeraEmbedPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"n=1":        func() { CompleteOnChimera(mustBuild(ising.NewBuilder(1)), 4, 0) },
		"zero shore": func() { CompleteOnChimera(mustBuild(ising.NewBuilder(4)), 0, 0) },
		"neg chain":  func() { CompleteOnChimera(mustBuild(ising.NewBuilder(4)), 4, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
