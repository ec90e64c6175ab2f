package mbrim_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"mbrim"
)

func TestPublicSurfaceEndToEnd(t *testing.T) {
	g := mbrim.CompleteGraph(48, 1)
	m := g.ToIsing()
	out, err := mbrim.Solve(mbrim.Request{
		Kind: mbrim.MBRIMConcurrent, Model: m, Graph: g,
		Chips: 4, DurationNS: 30, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Cut <= 0 {
		t.Fatalf("cut %v", out.Cut)
	}
	if math.Abs(out.Cut-g.CutValue(out.Spins)) > 1e-9 {
		t.Fatal("cut inconsistent with spins")
	}
}

func TestCompleteGraphSeeded(t *testing.T) {
	a := mbrim.CompleteGraph(20, 7)
	b := mbrim.CompleteGraph(20, 7)
	for _, e := range a.Edges() {
		if b.Weight(e.U, e.V) != e.Weight {
			t.Fatal("CompleteGraph not reproducible")
		}
	}
}

func TestRandomGraphDensity(t *testing.T) {
	g := mbrim.RandomGraph(200, 0.1, 3)
	max := 200 * 199 / 2
	frac := float64(g.M()) / float64(max)
	if frac < 0.05 || frac > 0.15 {
		t.Fatalf("density %v", frac)
	}
}

func TestReadGraphRoundTrip(t *testing.T) {
	g := mbrim.RandomGraph(20, 0.4, 4)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := mbrim.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 20 || back.M() != g.M() {
		t.Fatal("round trip changed graph")
	}
}

func TestDirectSystemUse(t *testing.T) {
	m := mbrim.CompleteGraph(32, 5).ToIsing()
	sys, err := mbrim.NewSystem(m, mbrim.SystemConfig{Chips: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.RunConcurrent(30)
	if res.Energy >= 0 {
		t.Fatalf("no progress: %v", res.Energy)
	}
	batch, err := mbrim.NewSystem(m, mbrim.SystemConfig{Chips: 4, Seed: 6, EpochNS: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res2 := batch.RunBatch(4, 30); res2.BestEnergy >= 0 {
		t.Fatalf("batch no progress: %v", res2.BestEnergy)
	}
}

func TestPlanLayoutPublic(t *testing.T) {
	l, err := mbrim.PlanLayout(4, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if l.SpinsPerChip != 4000 {
		t.Fatalf("spins per chip %d", l.SpinsPerChip)
	}
	if _, err := mbrim.PlanLayout(4, 1, 3); err == nil {
		t.Fatal("accepted invalid chip count")
	}
}

func TestQUBOWorkflow(t *testing.T) {
	// A tiny set-partition QUBO: minimize (x0 + x1 - 1)^2 — exactly one
	// of two variables set.
	q := mbrim.NewQUBO(2)
	q.SetCoeff(0, 0, -1)
	q.SetCoeff(1, 1, -1)
	q.SetCoeff(0, 1, 2)
	m, offset, err := q.ToIsing()
	if err != nil {
		t.Fatal(err)
	}
	out, err := mbrim.Solve(mbrim.Request{Kind: mbrim.SA, Model: m, Sweeps: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Energy + offset; math.Abs(got-(-1)) > 1e-9 {
		t.Fatalf("QUBO optimum %v, want -1", got)
	}
}

func TestKindsListed(t *testing.T) {
	ks := mbrim.Kinds()
	if len(ks) < 9 {
		t.Fatalf("only %d kinds", len(ks))
	}
	joined := strings.Join(ks, ",")
	for _, want := range []string{"sa", "brim", "mbrim", "mbrim-batch", "qbsolv", "dsbm", "portfolio"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("kind %q missing from %v", want, ks)
		}
	}
}

// ExampleSolve demonstrates the quickstart path: build a K-graph,
// solve it on a 4-chip multiprocessor, read the cut.
func ExampleSolve() {
	g := mbrim.CompleteGraph(64, 42)
	out, err := mbrim.Solve(mbrim.Request{
		Kind:       mbrim.MBRIMConcurrent,
		Model:      g.ToIsing(),
		Graph:      g,
		Chips:      4,
		DurationNS: 50,
		Seed:       42,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(out.Cut > 0, len(out.Spins))
	// Output: true 64
}
