package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTTSKnownValues(t *testing.T) {
	// p = q: one run suffices in expectation → TTS = t exactly when
	// ln(1-q)/ln(1-p) = 1.
	if got := TTS(10, 0.99, 0.99); math.Abs(got-10) > 1e-9 {
		t.Fatalf("TTS(10, .99, .99) = %v, want 10", got)
	}
	// p = 0.5, q = 0.99: need log(0.01)/log(0.5) ≈ 6.64 runs.
	want := 10 * math.Log(0.01) / math.Log(0.5)
	if got := TTS(10, 0.5, 0.99); math.Abs(got-want) > 1e-9 {
		t.Fatalf("TTS = %v, want %v", got, want)
	}
}

func TestTTSEdges(t *testing.T) {
	if !math.IsInf(TTS(1, 0, 0.99), 1) {
		t.Fatal("p=0 should give +Inf")
	}
	if got := TTS(7, 1, 0.99); got != 7 {
		t.Fatalf("p=1 should give t, got %v", got)
	}
	if got := TTS(7, 1.5, 0.99); got != 7 {
		t.Fatalf("p>1 should clamp to t, got %v", got)
	}
}

func TestTTSMonotoneInP(t *testing.T) {
	// Higher success probability can never need more time.
	f := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw%999+1) / 1000
		b := float64(bRaw%999+1) / 1000
		if a > b {
			a, b = b, a
		}
		return TTS(1, b, 0.99) <= TTS(1, a, 0.99)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTTSPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero t": func() { TTS(0, 0.5, 0.99) },
		"q=0":    func() { TTS(1, 0.5, 0) },
		"q=1":    func() { TTS(1, 0.5, 1) },
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

func TestSuccessProbability(t *testing.T) {
	energies := []float64{-10, -9, -8, -5}
	if p := SuccessProbability(energies, -9, 0); p != 0.5 {
		t.Fatalf("p = %v, want 0.5", p)
	}
	if p := SuccessProbability(energies, -10, 0); p != 0.25 {
		t.Fatalf("p = %v, want 0.25", p)
	}
	if p := SuccessProbability(energies, -9, 1); p != 0.75 {
		t.Fatalf("tolerance ignored: p = %v", p)
	}
	if p := SuccessProbability(nil, 0, 0); p != 0 {
		t.Fatalf("empty sample p = %v", p)
	}
}

func TestSuccessProbabilityCI(t *testing.T) {
	energies := []float64{-10, -9, -8, -5}
	p, lo, hi := SuccessProbabilityCI(energies, -9, 0, 0)
	if p != 0.5 {
		t.Fatalf("p = %v, want 0.5", p)
	}
	// Wilson 95% band for 2/4: roughly [0.15, 0.85].
	if !(lo > 0.1 && lo < 0.2 && hi > 0.8 && hi < 0.9) {
		t.Fatalf("95%% band [%v, %v] outside expected range", lo, hi)
	}
	if !(lo < p && p < hi) {
		t.Fatalf("point estimate %v outside band [%v, %v]", p, lo, hi)
	}

	// All hits: the band must stay below 1 with width > 0 (the whole
	// point of Wilson over the normal approximation).
	p, lo, hi = SuccessProbabilityCI([]float64{-10, -10, -10}, -10, 0, 0)
	if p != 1 || hi != 1 || lo >= 1 || lo < 0.3 {
		t.Fatalf("all-hit band = %v [%v, %v]", p, lo, hi)
	}
	// No hits: symmetric.
	p, lo, hi = SuccessProbabilityCI([]float64{-1, -1, -1}, -10, 0, 0)
	if p != 0 || lo != 0 || hi <= 0 || hi > 0.7 {
		t.Fatalf("no-hit band = %v [%v, %v]", p, lo, hi)
	}

	// A wider z widens the band.
	_, lo95, hi95 := SuccessProbabilityCI(energies, -9, 0, 1.96)
	_, lo99, hi99 := SuccessProbabilityCI(energies, -9, 0, 2.576)
	if !(lo99 < lo95 && hi99 > hi95) {
		t.Fatalf("z=2.576 band [%v,%v] not wider than z=1.96 [%v,%v]", lo99, hi99, lo95, hi95)
	}

	// Empty sample: maximally uninformative.
	p, lo, hi = SuccessProbabilityCI(nil, 0, 0, 0)
	if p != 0 || lo != 0 || hi != 1 {
		t.Fatalf("empty sample = %v [%v, %v], want 0 [0, 1]", p, lo, hi)
	}
}
