package problems

import (
	"math"
	"testing"
	"testing/quick"

	"mbrim/internal/exact"
	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/rng"
	"mbrim/internal/sa"
)

// --- Partition ---------------------------------------------------------

func TestPartitionEnergyIdentity(t *testing.T) {
	// imbalance² = E(σ) + offset for every assignment.
	f := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		n := 2 + r.Intn(10)
		nums := make([]float64, n)
		for i := range nums {
			nums[i] = float64(r.Intn(50) + 1)
		}
		p := Partition{Numbers: nums}
		m, offset := p.Ising()
		for trial := 0; trial < 5; trial++ {
			s := ising.RandomSpins(n, r)
			imb := p.Imbalance(s)
			if math.Abs(imb*imb-(m.Energy(s)+offset)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionExactOptimum(t *testing.T) {
	// {3,1,1,2,2,1}: perfect split 5/5 exists.
	p := Partition{Numbers: []float64{3, 1, 1, 2, 2, 1}}
	m, offset := p.Ising()
	res := exact.Solve(m)
	if got := res.Energy + offset; math.Abs(got) > 1e-9 {
		t.Fatalf("best imbalance² = %v, want 0", got)
	}
	if p.Imbalance(res.Spins) != 0 {
		t.Fatal("optimal spins do not balance")
	}
}

func TestPartitionSAFindsGoodSplit(t *testing.T) {
	r := rng.New(1)
	nums := make([]float64, 24)
	for i := range nums {
		nums[i] = float64(r.Intn(100) + 1)
	}
	p := Partition{Numbers: nums}
	m, _ := p.Ising()
	br := sa.SolveBatch(m, sa.Config{Sweeps: 400, Seed: 2}, 8)
	total := 0.0
	for _, a := range nums {
		total += a
	}
	if imb := p.Imbalance(br.Best.Spins); imb > total*0.02 {
		t.Fatalf("SA imbalance %v of total %v", imb, total)
	}
}

func TestPartitionDecode(t *testing.T) {
	p := Partition{Numbers: []float64{1, 2, 3}}
	plus, minus := p.Decode([]int8{1, -1, 1})
	if len(plus) != 2 || len(minus) != 1 || plus[0] != 0 || plus[1] != 2 || minus[0] != 1 {
		t.Fatalf("Decode = %v / %v", plus, minus)
	}
}

// --- VertexCover -------------------------------------------------------

func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

func TestVertexCoverExactOnPath(t *testing.T) {
	// P5 (5 vertices, 4 edges): minimum cover has 2 vertices {1,3}.
	vc := VertexCover{G: pathGraph(5)}
	m, offset := vc.Ising()
	res := exact.Solve(m)
	if got := res.Energy + offset; math.Abs(got-2) > 1e-9 {
		t.Fatalf("optimal cost %v, want 2 (B=1 per vertex, no violations)", got)
	}
	cover := vc.Decode(res.Spins)
	if !vc.IsCover(cover) || len(cover) != 2 {
		t.Fatalf("decoded cover %v invalid or non-minimal", cover)
	}
}

func TestVertexCoverDecodeRepairs(t *testing.T) {
	vc := VertexCover{G: pathGraph(4)}
	// Empty selection: repair must produce a valid cover.
	cover := vc.Decode([]int8{-1, -1, -1, -1})
	if !vc.IsCover(cover) {
		t.Fatalf("repaired cover %v does not cover", cover)
	}
}

func TestVertexCoverSAOnRandomGraph(t *testing.T) {
	r := rng.New(3)
	g := graph.Random(30, 0.15, r)
	vc := VertexCover{G: g}
	m, _ := vc.Ising()
	br := sa.SolveBatch(m, sa.Config{Sweeps: 300, Seed: 4}, 6)
	cover := vc.Decode(br.Best.Spins)
	if !vc.IsCover(cover) {
		t.Fatal("SA-decoded cover invalid after repair")
	}
	if len(cover) == g.N() {
		t.Fatal("cover is the whole graph; optimization did nothing")
	}
}

// --- IndependentSet ----------------------------------------------------

func TestIndependentSetExactOnPath(t *testing.T) {
	// P5: maximum independent set {0,2,4}, size 3.
	is := IndependentSet{G: pathGraph(5)}
	m, offset := is.Ising()
	res := exact.Solve(m)
	// Objective = A·conflicts − B·|set| = E + offset; optimum −3.
	if got := res.Energy + offset; math.Abs(got-(-3)) > 1e-9 {
		t.Fatalf("optimal objective %v, want -3", got)
	}
	set := is.Decode(res.Spins)
	if !is.IsIndependent(set) || len(set) != 3 {
		t.Fatalf("decoded set %v", set)
	}
}

func TestIndependentSetDecodeRepairs(t *testing.T) {
	is := IndependentSet{G: pathGraph(4)}
	all := []int8{1, 1, 1, 1}
	set := is.Decode(all)
	if !is.IsIndependent(set) {
		t.Fatalf("repair left conflicts: %v", set)
	}
	if len(set) == 0 {
		t.Fatal("repair dropped everything")
	}
}

// --- Coloring ----------------------------------------------------------

func TestColoringEnergyIdentity(t *testing.T) {
	// At a proper one-hot coloring the energy plus offset is zero; at
	// any assignment it equals the penalty count (A=1).
	g := pathGraph(4)
	c := Coloring{G: g, Colors: 2}
	m, offset := c.Ising()
	// Proper coloring 0,1,0,1 as one-hot spins.
	spins := make([]int8, 8)
	for i := range spins {
		spins[i] = -1
	}
	for v := 0; v < 4; v++ {
		spins[c.Index(v, v%2)] = 1
	}
	if got := m.Energy(spins) + offset; math.Abs(got) > 1e-9 {
		t.Fatalf("proper coloring has penalty %v, want 0", got)
	}
	// Monochromatic edge: color everything 0 → 3 conflict edges.
	for v := 0; v < 4; v++ {
		spins[c.Index(v, v%2)] = -1
		spins[c.Index(v, 0)] = 1
	}
	if got := m.Energy(spins) + offset; math.Abs(got-3) > 1e-9 {
		t.Fatalf("all-one-color penalty %v, want 3", got)
	}
}

func TestColoringExactFindsProper(t *testing.T) {
	// C5 (odd cycle) is 3-colorable but not 2-colorable.
	g := graph.New(5)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, (i+1)%5, 1)
	}
	c3 := Coloring{G: g, Colors: 3}
	m3, off3 := c3.Ising()
	res3 := exact.Solve(m3)
	if got := res3.Energy + off3; math.Abs(got) > 1e-9 {
		t.Fatalf("C5 3-coloring penalty %v, want 0", got)
	}
	colors := c3.Decode(res3.Spins)
	if !c3.Valid(colors) {
		t.Fatalf("decoded coloring %v has conflicts", colors)
	}
	c2 := Coloring{G: g, Colors: 2}
	m2, off2 := c2.Ising()
	res2 := exact.Solve(m2)
	if got := res2.Energy + off2; got < 1-1e-9 {
		t.Fatalf("C5 2-coloring penalty %v, want >= 1 (odd cycle)", got)
	}
}

func TestColoringSAOnRandomGraph(t *testing.T) {
	r := rng.New(5)
	g := graph.Random(18, 0.2, r)
	c := Coloring{G: g, Colors: 4}
	m, _ := c.Ising()
	br := sa.SolveBatch(m, sa.Config{Sweeps: 400, Seed: 6}, 6)
	colors := c.Decode(br.Best.Spins)
	if conflicts := c.Conflicts(colors); conflicts > g.M()/10 {
		t.Fatalf("%d conflicts of %d edges after decode", conflicts, g.M())
	}
}

func TestColoringDecodeGreedyFallback(t *testing.T) {
	g := pathGraph(3)
	c := Coloring{G: g, Colors: 2}
	// All spins down: every vertex falls back to greedy → proper
	// coloring of a path.
	colors := c.Decode(make([]int8, 6)) // zeros are not +1
	if !c.Valid(colors) {
		t.Fatalf("greedy fallback produced conflicts: %v", colors)
	}
}

// --- SAT ---------------------------------------------------------------

func lit(v int) Literal { return Literal{Var: v} }
func neg(v int) Literal { return Literal{Var: v, Negated: true} }

func TestSATSatisfiableExact(t *testing.T) {
	// (x0 ∨ x1) ∧ (¬x0 ∨ x1) ∧ (¬x1 ∨ x2): satisfiable (x1=1, x2=1).
	s := SAT{Vars: 3, Clauses: [][]Literal{
		{lit(0), lit(1)},
		{neg(0), lit(1)},
		{neg(1), lit(2)},
	}}
	m, _ := s.Ising()
	res := exact.Solve(m)
	assign := s.Decode(res.Spins)
	if !s.Satisfied(assign) {
		t.Fatalf("optimal decode %v does not satisfy", assign)
	}
}

func TestSATUnsatisfiableDetected(t *testing.T) {
	// x0 ∧ ¬x0: no independent set of size 2.
	s := SAT{Vars: 1, Clauses: [][]Literal{{lit(0)}, {neg(0)}}}
	m, offset := s.Ising()
	res := exact.Solve(m)
	// Objective −B·|set|; best |set| = 1, so objective −1, not −2.
	if got := res.Energy + offset; math.Abs(got-(-1)) > 1e-9 {
		t.Fatalf("unsat optimum %v, want -1", got)
	}
	assign := s.Decode(res.Spins)
	if s.Satisfied(assign) {
		t.Fatal("claimed to satisfy an unsatisfiable formula")
	}
}

func TestSAT3CNFWithSA(t *testing.T) {
	// Random satisfiable 3-CNF: plant an assignment, generate clauses
	// consistent with it.
	r := rng.New(7)
	vars := 12
	planted := make([]bool, vars)
	for i := range planted {
		planted[i] = r.Bool(0.5)
	}
	var clauses [][]Literal
	for len(clauses) < 30 {
		a, b, c := r.Intn(vars), r.Intn(vars), r.Intn(vars)
		if a == b || b == c || a == c {
			continue
		}
		cl := []Literal{
			{Var: a, Negated: r.Bool(0.5)},
			{Var: b, Negated: r.Bool(0.5)},
			{Var: c, Negated: r.Bool(0.5)},
		}
		ok := false
		for _, l := range cl {
			if planted[l.Var] != l.Negated {
				ok = true
			}
		}
		if ok {
			clauses = append(clauses, cl)
		}
	}
	s := SAT{Vars: vars, Clauses: clauses}
	m, _ := s.Ising()
	br := sa.SolveBatch(m, sa.Config{Sweeps: 500, Seed: 8}, 8)
	assign := s.Decode(br.Best.Spins)
	if got := s.NumSatisfied(assign); got < len(clauses)-2 {
		t.Fatalf("SA satisfied only %d of %d clauses", got, len(clauses))
	}
}

func TestSATPanicsOnBadInput(t *testing.T) {
	for name, f := range map[string]func(){
		"no clauses":   func() { SAT{Vars: 1}.Ising() },
		"empty clause": func() { SAT{Vars: 1, Clauses: [][]Literal{{}}}.Ising() },
		"bad var":      func() { SAT{Vars: 1, Clauses: [][]Literal{{lit(3)}}}.Ising() },
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

// --- TSP -----------------------------------------------------------------

func squareTSP() TSP {
	// Four cities on a unit square: optimal tour length 4.
	pts := [][2]float64{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	d := make([][]float64, 4)
	for i := range d {
		d[i] = make([]float64, 4)
		for j := range d[i] {
			dx := pts[i][0] - pts[j][0]
			dy := pts[i][1] - pts[j][1]
			d[i][j] = math.Sqrt(dx*dx + dy*dy)
		}
	}
	return TSP{Dist: d}
}

func TestTSPExactSquare(t *testing.T) {
	tsp := squareTSP()
	m, offset := tsp.Ising()
	res := exact.Solve(m)
	if got := res.Energy + offset; math.Abs(got-4) > 1e-6 {
		t.Fatalf("optimal H = %v, want 4 (perimeter)", got)
	}
	tour := tsp.Decode(res.Spins)
	if !tsp.ValidTour(tour) {
		t.Fatalf("decoded tour %v invalid", tour)
	}
	if l := tsp.Length(tour); math.Abs(l-4) > 1e-6 {
		t.Fatalf("tour length %v, want 4", l)
	}
}

func TestTSPEnergyIdentityAtValidTour(t *testing.T) {
	tsp := squareTSP()
	m, offset := tsp.Ising()
	// Encode tour 0→1→2→3 as one-hot spins.
	spins := make([]int8, 16)
	for i := range spins {
		spins[i] = -1
	}
	for ti, v := range []int{0, 1, 2, 3} {
		spins[tsp.Index(v, ti)] = 1
	}
	if got := m.Energy(spins) + offset; math.Abs(got-4) > 1e-6 {
		t.Fatalf("valid tour H = %v, want 4", got)
	}
}

func TestTSPDecodeRepairs(t *testing.T) {
	tsp := squareTSP()
	// All spins down: full repair path.
	tour := tsp.Decode(make([]int8, 16))
	if !tsp.ValidTour(tour) {
		t.Fatalf("repaired tour %v invalid", tour)
	}
	// Duplicate assignment: city 0 claims two slots.
	spins := make([]int8, 16)
	for i := range spins {
		spins[i] = -1
	}
	spins[tsp.Index(0, 0)] = 1
	spins[tsp.Index(0, 1)] = 1
	tour = tsp.Decode(spins)
	if !tsp.ValidTour(tour) {
		t.Fatalf("duplicate-repaired tour %v invalid", tour)
	}
}

func TestTSPSAFindsShortTour(t *testing.T) {
	// Six cities on a hexagon: optimum is the perimeter (6 edges of
	// unit side). SA should get within 20%.
	n := 6
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			ai := 2 * math.Pi * float64(i) / float64(n)
			aj := 2 * math.Pi * float64(j) / float64(n)
			dx := math.Cos(ai) - math.Cos(aj)
			dy := math.Sin(ai) - math.Sin(aj)
			d[i][j] = math.Sqrt(dx*dx + dy*dy)
		}
	}
	tsp := TSP{Dist: d}
	m, _ := tsp.Ising()
	br := sa.SolveBatch(m, sa.Config{Sweeps: 800, Seed: 9}, 10)
	tour := tsp.Decode(br.Best.Spins)
	if !tsp.ValidTour(tour) {
		t.Fatalf("tour %v invalid", tour)
	}
	perimeter := 6.0 // hexagon side = 1 at unit radius... side = 2 sin(π/6) = 1
	if l := tsp.Length(tour); l > perimeter*1.2 {
		t.Fatalf("tour length %v, perimeter %v", l, perimeter)
	}
}

func TestTSPPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":      func() { TSP{}.Ising() },
		"ragged":     func() { TSP{Dist: [][]float64{{0, 1}, {1}}}.Ising() },
		"bad decode": func() { squareTSP().Decode(make([]int8, 3)) },
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
