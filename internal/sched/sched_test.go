package sched

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstant(t *testing.T) {
	c := Constant(3.5)
	for _, p := range []float64{-1, 0, 0.5, 1, 2} {
		if c.At(p) != 3.5 {
			t.Fatalf("Constant.At(%v) = %v", p, c.At(p))
		}
	}
}

func TestLinearEndpoints(t *testing.T) {
	l := Linear{From: 2, To: 10}
	if l.At(0) != 2 || l.At(1) != 10 {
		t.Fatal("Linear endpoints wrong")
	}
	if got := l.At(0.5); got != 6 {
		t.Fatalf("Linear midpoint = %v, want 6", got)
	}
}

func TestLinearClamps(t *testing.T) {
	l := Linear{From: 0, To: 1}
	if l.At(-5) != 0 || l.At(5) != 1 {
		t.Fatal("Linear does not clamp progress")
	}
}

func TestLinearMonotoneProperty(t *testing.T) {
	l := Linear{From: 1, To: 9}
	f := func(a, b float64) bool {
		pa := clamp(math.Abs(math.Mod(a, 1)))
		pb := clamp(math.Abs(math.Mod(b, 1)))
		if pa > pb {
			pa, pb = pb, pa
		}
		return l.At(pa) <= l.At(pb)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
