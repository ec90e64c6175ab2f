package ising

import (
	"math"
	"testing"
	"testing/quick"

	"mbrim/internal/rng"
)

func randomQUBO(n int, r *rng.Source) *QUBO {
	q := NewQUBO(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			q.SetCoeff(i, j, float64(r.Intn(9)-4))
		}
	}
	return q
}

// spinsToBits maps σ ∈ {-1,+1}^n to x ∈ {0,1}^n via x = (σ+1)/2.
func spinsToBits(s []int8) []bool {
	x := make([]bool, len(s))
	for i, v := range s {
		x[i] = v > 0
	}
	return x
}

// bitsToSpins maps x ∈ {0,1}^n to σ ∈ {-1,+1}^n via σ = 2x − 1.
func bitsToSpins(x []bool) []int8 {
	s := make([]int8, len(x))
	for i, v := range x {
		if v {
			s[i] = 1
		} else {
			s[i] = -1
		}
	}
	return s
}

func randomBits(n int, r *rng.Source) []bool {
	x := make([]bool, n)
	for i := range x {
		x[i] = r.Bool(0.5)
	}
	return x
}

func TestQUBOToIsingValueIdentity(t *testing.T) {
	// For every assignment: Value(x) = E(σ) + offset with σ = 2x−1.
	f := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		n := 1 + r.Intn(20)
		q := randomQUBO(n, r)
		m, offset, err := q.ToIsing()
		if err != nil {
			return false
		}
		for trial := 0; trial < 8; trial++ {
			x := randomBits(n, r)
			s := bitsToSpins(x)
			if math.Abs(q.Value(x)-(m.Energy(s)+offset)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIsingToQUBOValueIdentity(t *testing.T) {
	f := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		n := 1 + r.Intn(20)
		m := randomModel(n, r)
		q, offset := FromIsing(m)
		for trial := 0; trial < 8; trial++ {
			s := RandomSpins(n, r)
			x := spinsToBits(s)
			if math.Abs(m.Energy(s)-(q.Value(x)+offset)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripPreservesOptimum(t *testing.T) {
	// The minimizer of the QUBO must be the minimizer of the derived
	// Ising model (exhaustive over small n).
	r := rng.New(77)
	for trial := 0; trial < 10; trial++ {
		n := 2 + r.Intn(8)
		q := randomQUBO(n, r)
		m, offset, err := q.ToIsing()
		if err != nil {
			t.Fatal(err)
		}
		bestQ, bestE := math.Inf(1), math.Inf(1)
		var argQ, argE uint
		for mask := uint(0); mask < 1<<n; mask++ {
			x := make([]bool, n)
			for i := 0; i < n; i++ {
				x[i] = mask&(1<<i) != 0
			}
			if v := q.Value(x); v < bestQ {
				bestQ, argQ = v, mask
			}
			if e := m.Energy(bitsToSpins(x)); e < bestE {
				bestE, argE = e, mask
			}
		}
		if math.Abs(bestQ-(bestE+offset)) > 1e-9 {
			t.Fatalf("optimum values disagree: %v vs %v+%v", bestQ, bestE, offset)
		}
		// Argmins may differ only if degenerate; check values match.
		xQ := make([]bool, n)
		for i := 0; i < n; i++ {
			xQ[i] = argQ&(1<<i) != 0
		}
		xE := make([]bool, n)
		for i := 0; i < n; i++ {
			xE[i] = argE&(1<<i) != 0
		}
		if math.Abs(q.Value(xQ)-q.Value(xE)) > 1e-9 {
			t.Fatalf("argmins have different QUBO values")
		}
	}
}

func TestSpinsBitsRoundTrip(t *testing.T) {
	r := rng.New(5)
	s := RandomSpins(100, r)
	if got := bitsToSpins(spinsToBits(s)); HammingDistance(got, s) != 0 {
		t.Fatal("spin/bit round trip changed values")
	}
	x := randomBits(100, r)
	back := spinsToBits(bitsToSpins(x))
	for i := range x {
		if x[i] != back[i] {
			t.Fatal("bit/spin round trip changed values")
		}
	}
}

func TestQUBOValueZeroAssignment(t *testing.T) {
	r := rng.New(6)
	q := randomQUBO(10, r)
	if v := q.Value(make([]bool, 10)); v != 0 {
		t.Fatalf("all-zero assignment has value %v, want 0", v)
	}
}

func TestNewQUBOPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewQUBO(-1) did not panic")
		}
	}()
	NewQUBO(-1)
}
