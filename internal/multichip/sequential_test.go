package multichip

import (
	"math"
	"testing"
)

func TestSequentialFindsFerromagnetGround(t *testing.T) {
	n := 32
	m := ferromagnet(n)
	res := MustSystem(m, Config{Chips: 4, Seed: 1}).RunSequential(60)
	if want := -float64(n*(n-1)) / 2; res.Energy != want {
		t.Fatalf("energy %v, want %v", res.Energy, want)
	}
}

func TestSequentialNoIgnorance(t *testing.T) {
	// After every chip's turn its changes are synced, so at the end
	// all shadows agree with the truth.
	m := kgraph(40, 2)
	s := MustSystem(m, Config{Chips: 4, Seed: 3})
	s.RunSequential(33)
	truth := s.GlobalSpins()
	for ci, c := range chipsOf(s) {
		for g := 0; g < s.n; g++ {
			if c.shadow[g] != truth[g] {
				t.Fatalf("chip %d shadow of %d stale in sequential mode", ci, g)
			}
		}
	}
}

func TestSequentialElapsedIsChipsTimesModel(t *testing.T) {
	m := kgraph(32, 4)
	res := MustSystem(m, Config{Chips: 4, Seed: 5}).RunSequential(30)
	if math.Abs(res.ModelNS-30) > 1e-6 {
		t.Fatalf("model time %v, want 30", res.ModelNS)
	}
	if math.Abs(res.ElapsedNS-4*30) > 1e-6 {
		t.Fatalf("elapsed %v, want %v (no overlap)", res.ElapsedNS, 4*30.0)
	}
}

func TestSequentialDeterministic(t *testing.T) {
	m := kgraph(40, 6)
	a := MustSystem(m, Config{Chips: 4, Seed: 7}).RunSequential(20)
	b := MustSystem(m, Config{Chips: 4, Seed: 7}).RunSequential(20)
	if a.Energy != b.Energy || a.BitChanges != b.BitChanges {
		t.Fatal("sequential mode nondeterministic")
	}
}

func TestConcurrentMatchesSequentialQuality(t *testing.T) {
	// Sec 5.4.1's claim: with short epochs, concurrent quality is no
	// worse than sequential (statistically). Average over seeds and
	// allow a small band.
	m := kgraph(64, 8)
	var conc, seq float64
	const runs = 5
	for i := 0; i < runs; i++ {
		seed := uint64(300 + i)
		conc += MustSystem(m, Config{Chips: 4, Seed: seed, EpochNS: 1}).RunConcurrent(60).Energy
		seq += MustSystem(m, Config{Chips: 4, Seed: seed, EpochNS: 1}).RunSequential(60).Energy
	}
	if conc > seq+0.1*math.Abs(seq) {
		t.Fatalf("concurrent (%v) clearly worse than sequential (%v)", conc/runs, seq/runs)
	}
}

func TestSequentialPanicsOnBadDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustSystem(ferromagnet(8), Config{Chips: 2}).RunSequential(0)
}
