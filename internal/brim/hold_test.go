package brim

import (
	"testing"

	"mbrim/internal/ising"
	"mbrim/internal/sched"
)

// strongPair returns two spins that strongly prefer alignment — a kick
// against that preference reverts as soon as the control releases.
func strongPair() *ising.Model {
	mb := ising.NewBuilder(2)
	mb.SetCoupling(0, 1, 5)
	return mustBuild(mb)
}

func TestKickHeldAgainstDynamics(t *testing.T) {
	m := strongPair()
	ma := New(m, Config{
		Seed:        1,
		InducedFlip: sched.Constant(0), // no spontaneous kicks
		KickHoldNS:  5,
	})
	ma.SetHorizon(20)
	ma.SetSpins([]int8{1, 1})
	ma.Run(1)
	ma.Induce(0)
	if ma.Spins()[0] != -1 {
		t.Fatal("kick did not flip the readout")
	}
	// During the hold the node must stay kicked despite the strong
	// opposing coupling.
	ma.Run(4)
	if ma.Spins()[0] != -1 {
		t.Fatal("held kick reverted during the hold window")
	}
	// After release the ferromagnetic dynamics re-align the pair (the
	// partner may follow the held node down — either polarity is a
	// valid resolution, misalignment is not).
	ma.Run(10)
	if ma.Spins()[0] != ma.Spins()[1] {
		t.Fatalf("pair still misaligned after release: %v", ma.Spins())
	}
}

func TestKickWithoutHoldRevertsQuickly(t *testing.T) {
	m := strongPair()
	ma := New(m, Config{
		Seed:        1,
		InducedFlip: sched.Constant(0),
		KickHoldNS:  -1, // disabled
	})
	ma.SetHorizon(20)
	ma.SetSpins([]int8{1, 1})
	ma.Run(1)
	ma.Induce(0)
	ma.Run(4)
	if ma.Spins()[0] != 1 {
		t.Fatal("unheld kick against a strong coupling did not revert within 4 tau")
	}
}

func TestSetSpinsClearsHolds(t *testing.T) {
	m := strongPair()
	ma := New(m, Config{Seed: 1, InducedFlip: sched.Constant(0), KickHoldNS: 100})
	ma.SetHorizon(50)
	ma.SetSpins([]int8{1, 1})
	ma.Run(1)
	ma.Induce(0) // held at -1 for 100 ns nominally
	ma.SetSpins([]int8{1, 1})
	ma.Run(5)
	// If the hold survived the state load, node 0 would be clamped
	// back to -1; it must instead follow the loaded state.
	if ma.Spins()[0] != 1 {
		t.Fatal("stale hold survived SetSpins and corrupted the loaded state")
	}
}

func TestInduceCountsAsInduced(t *testing.T) {
	m := strongPair()
	ma := New(m, Config{Seed: 1, InducedFlip: sched.Constant(0)})
	ma.SetHorizon(10)
	ma.SetSpins([]int8{1, 1})
	before := ma.InducedFlips()
	ma.Induce(1)
	if ma.InducedFlips() != before+1 {
		t.Fatal("Induce did not count an induced flip")
	}
	if ma.Flips() < 1 {
		t.Fatal("Induce did not count a flip")
	}
}

func TestDoubleInduceToggles(t *testing.T) {
	m := mustBuild(ising.NewBuilder(1))
	ma := New(m, Config{Seed: 1, InducedFlip: sched.Constant(0)})
	ma.SetHorizon(10)
	ma.SetSpins([]int8{1})
	ma.Induce(0)
	if ma.Spins()[0] != -1 {
		t.Fatal("first kick")
	}
	ma.Induce(0)
	if ma.Spins()[0] != 1 {
		t.Fatal("second kick did not toggle back")
	}
	if ma.InducedFlips() != 2 {
		t.Fatalf("induced count %d, want 2", ma.InducedFlips())
	}
}
