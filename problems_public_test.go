package mbrim_test

import (
	"math"
	"testing"

	"mbrim"
	"mbrim/internal/exact"
	"mbrim/internal/ising"
	"mbrim/internal/lattice"
)

func TestSolveExactPublic(t *testing.T) {
	b := mbrim.NewModelBuilder(3)
	b.SetCoupling(0, 1, 1)
	b.SetCoupling(1, 2, 1)
	b.SetCoupling(0, 2, 1)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := mbrim.SolveExact(m)
	if res.Energy != -3 {
		t.Fatalf("triangle ferromagnet optimum %v, want -3", res.Energy)
	}
	if err := exact.Verify(m, res.Spins, res.Energy); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionProblemPublic(t *testing.T) {
	p := mbrim.PartitionProblem{Numbers: []float64{4, 3, 3, 2}}
	m, offset := p.Ising()
	res := mbrim.SolveExact(m)
	if got := res.Energy + offset; math.Abs(got) > 1e-9 {
		t.Fatalf("imbalance² %v, want 0 (6/6 split exists)", got)
	}
}

func TestSATProblemPublic(t *testing.T) {
	s := mbrim.SATProblem{
		Vars: 2,
		Clauses: [][]mbrim.SATLiteral{
			{{Var: 0}, {Var: 1}},
			{{Var: 0, Negated: true}},
		},
	}
	m, _ := s.Ising()
	res := mbrim.SolveExact(m)
	assign := s.Decode(res.Spins)
	if !s.Satisfied(assign) {
		t.Fatalf("decode %v does not satisfy", assign)
	}
	if assign[0] || !assign[1] {
		t.Fatalf("expected x0=false x1=true, got %v", assign)
	}
}

func TestEmbeddingPublic(t *testing.T) {
	g := mbrim.CompleteGraph(6, 1)
	e := mbrim.EmbedComplete(g.ToIsing(), 0)
	if e.PhysicalNodes() != 30 {
		t.Fatalf("physical nodes %d, want 30", e.PhysicalNodes())
	}
	if mbrim.EffectiveCapacity(30) != 6 {
		t.Fatal("EffectiveCapacity inconsistent with embedding size")
	}
}

func TestQUBORoundTripPublic(t *testing.T) {
	g := mbrim.CompleteGraph(8, 2)
	m := g.ToIsing()
	q, off1 := ising.FromIsing(m)
	back, off2, err := q.ToIsing()
	if err != nil {
		t.Fatal(err)
	}
	spins := mbrim.NewRNG(3)
	s := make([]int8, 8)
	for i := range s {
		s[i] = spins.Spin()
	}
	// E(σ) = Value(x) + off1 and Value(x) = E'(σ) + off2 ⇒ E = E' + off1 + off2.
	if d := math.Abs(m.Energy(s) - (back.Energy(s) + off1 + off2)); d > 1e-9 {
		t.Fatalf("double conversion drifted by %v", d)
	}
}

func TestSparseWorkflowPublic(t *testing.T) {
	g := mbrim.RandomGraph(500, 0.02, 9)
	m := g.ToIsing() // 2 % dense: stored, and annealed, as compressed rows
	if m.NNZ() != 2*g.M() {
		t.Fatalf("NNZ = %d for %d edges", m.NNZ(), g.M())
	}
	req := mbrim.Request{Kind: mbrim.SA, Model: m, Sweeps: 200, Seed: 10}
	res, err := mbrim.Solve(req)
	if err != nil || res.Backend != lattice.CSR.String() {
		t.Fatalf("outcome %v (%v)", res, err)
	}
	if cut := g.CutValue(res.Spins); cut <= 0 {
		t.Fatalf("sparse anneal cut %v", cut)
	}
	// The engine's running energy is the model's energy of the found state,
	// and the dense layout runs the same trajectory.
	if d := math.Abs(m.Energy(res.Spins) - res.Energy); d > 1e-6 {
		t.Fatalf("sparse energy off by %v", d)
	}
	req.Model = m.As(lattice.Dense)
	if out, err := mbrim.Solve(req); err != nil || out.Energy != res.Energy || out.Backend != lattice.Dense.String() {
		t.Fatalf("dense: outcome %v (%v), sparse found %v", out, err, res.Energy)
	}
}

func TestModelBuilderPublic(t *testing.T) {
	b := mbrim.NewModelBuilder(40)
	b.SetCoupling(0, 3, -2)
	b.SetCoupling(3, 0, -3) // the same pair: the last call sets it
	b.SetBias(1, 0.5)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 || m.Coupling(3, 0) != -3 {
		t.Fatalf("NNZ=%d J30=%v", m.NNZ(), m.Coupling(3, 0))
	}
	bad := mbrim.NewModelBuilder(4)
	bad.SetCoupling(2, 2, 1)
	if _, err := bad.Build(); err == nil {
		t.Fatal("a self-coupling was built")
	}
}
