package core

import (
	"runtime"
	"testing"

	"mbrim/internal/graph"
	"mbrim/internal/lattice"
	"mbrim/internal/rng"
)

// allocatedBytes is what f allocates, by the runtime's own count.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSparseCapacity is the capacity the storage refactor buys, in test
// form until the benchmark may carry it (ROADMAP's sparse20k row): a
// G-set-scale instance — 20 000 spins, about 0.1 % dense — built and
// solved by a software annealer, the integer-field engine and the
// 4-chip multiprocessor through the one Solve surface. As an n×n array
// the model alone is 3.2 GB, and every chip and view copies of it; here
// the model, three solves and everything they build stay under 256 MB
// allocated in total, and what each engine reports is the model's own
// energy of the state it returns.
func TestSparseCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("a 20 000-spin instance")
	}
	const n = 20000
	g := graph.RandomRegularish(n, 10, rng.New(20)) // O(n·d) to draw, ≈ 200 000 edges
	if d := float64(2*g.M()) / (n * n); d < 0.0005 || d > 0.002 {
		t.Fatalf("density %.5f, want about 0.001", d)
	}
	got := allocatedBytes(func() {
		m := g.ToIsing()
		if m.NNZ() != 2*g.M() || m.View(lattice.Auto).Kind() != lattice.CSR {
			t.Fatalf("stored %d couplings as %v for %d edges", m.NNZ(), m.View(lattice.Auto).Kind(), g.M())
		}
		for _, req := range []Request{
			{Kind: SA, Sweeps: 3},
			{Kind: DSBM, Steps: 40},
			{Kind: MBRIMConcurrent, Chips: 4, DurationNS: 12, EpochNS: 4},
		} {
			req.Model, req.Graph, req.Seed = m, g, 7
			out, err := Solve(req)
			if err != nil {
				t.Fatalf("%s: %v", req.Kind, err)
			}
			if out.Backend != "csr" {
				t.Errorf("%s ran on %s", req.Kind, out.Backend)
			}
			if e := m.Energy(out.Spins); e != out.Energy {
				t.Errorf("%s: reported energy %v, the model says %v", req.Kind, out.Energy, e)
			}
			if out.Cut != g.CutValue(out.Spins) || out.Cut <= 0 {
				t.Errorf("%s: cut %v, the graph says %v", req.Kind, out.Cut, g.CutValue(out.Spins))
			}
		}
	})
	if got > 256<<20 {
		t.Fatalf("model and three solves allocated %d MB; the budget is 256", got>>20)
	}
	t.Logf("%d spins, %d edges: %d MB allocated", n, g.M(), got>>20)
}

// TestModelAllocatesWhatItStores: a 2 %-dense 1 024-spin edge list —
// sparse1k_mbrim4's shape — freezes into well under 1 MB (it was an
// 8.4 MB matrix); a ±1 K1024 freezes into its planes and row counts,
// 266 KB, after a call list that never outgrows them (it was an 8.4 MB
// matrix beside them); and a
// solve over a model that has not changed derives nothing from it: the
// view, its planes, the symmetry check and the density probe were
// per-solve passes over n² entries.
func TestModelAllocatesWhatItStores(t *testing.T) {
	smallest := func(f func()) uint64 {
		var got uint64
		for try := 0; try < 3; try++ { // the smallest of three: a GC cycle's own bookkeeping lands in TotalAlloc too
			if b := allocatedBytes(f); try == 0 || b < got {
				got = b
			}
		}
		return got
	}
	g := graph.Random(1024, 0.02, rng.New(3))
	if got := smallest(func() { g.ToIsing() }); got >= 1<<20 {
		t.Errorf("ToIsing of %d edges on 1 024 spins allocated %d bytes, want under 1 MB", g.M(), got)
	}
	kg := graph.Complete(1024, rng.New(3))
	planes := uint64(lattice.Footprint(lattice.Auto, 1024, 1024*1023, true))
	if got := smallest(func() { kg.ToIsing() }); got > planes*9/4 {
		t.Errorf("ToIsing of K1024 allocated %d bytes, above 2.25 × its %d bytes of planes", got, planes)
	}
	if c := kg.ToIsing().View(lattice.Auto); c.Kind() != lattice.Dense || uint64(lattice.Bytes(c)) != planes {
		t.Errorf("K1024 stored as %v in %d bytes, want dense planes in %d", c.Kind(), lattice.Bytes(c), planes)
	}

	k, req := testProblem(256, 1)
	req.Kind, req.Sweeps = SA, 2
	if _, err := Solve(*req); err != nil { // warm: registry, pools
		t.Fatal(err)
	}
	perSolve := allocatedBytes(func() {
		for i := 0; i < 4; i++ {
			if _, err := Solve(*req); err != nil {
				t.Fatal(err)
			}
		}
	}) / 4
	// A solve's own state is a few n-vectors (3.4 KB here). The view a
	// solve used to derive was 17 KB of bit planes and row counts on top
	// of three passes over the matrix; nothing of that size is left.
	if n := uint64(k.N()); perSolve >= 32*n {
		t.Errorf("a warm SA solve of K256 allocates %d bytes: more than four n-vectors", perSolve)
	}
	t.Logf("warm SA solve of K256: %d bytes", perSolve)
}
