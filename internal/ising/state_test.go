package ising

import (
	"testing"

	"mbrim/internal/rng"
)

func TestRandomSpinsValid(t *testing.T) {
	r := rng.New(1)
	s := RandomSpins(1000, r)
	if !ValidSpins(s) {
		t.Fatal("RandomSpins produced invalid values")
	}
}

func TestValidSpinsRejects(t *testing.T) {
	if ValidSpins([]int8{1, 0, -1}) {
		t.Fatal("ValidSpins accepted 0")
	}
	if ValidSpins([]int8{2}) {
		t.Fatal("ValidSpins accepted 2")
	}
	if !ValidSpins(nil) {
		t.Fatal("ValidSpins rejected empty")
	}
}

func TestCopySpinsIndependent(t *testing.T) {
	s := []int8{1, -1, 1}
	c := CopySpins(s)
	c[0] = -1
	if s[0] != 1 {
		t.Fatal("CopySpins aliases the input")
	}
}

func TestHammingDistance(t *testing.T) {
	a := []int8{1, 1, -1, -1}
	b := []int8{1, -1, -1, 1}
	if d := HammingDistance(a, b); d != 2 {
		t.Fatalf("HammingDistance = %d, want 2", d)
	}
	if d := HammingDistance(a, a); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
}

func TestHammingDistancePanicsOnLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched lengths")
		}
	}()
	HammingDistance([]int8{1}, []int8{1, 1})
}

func BenchmarkEnergyN512(b *testing.B) {
	r := rng.New(1)
	m := randomModel(512, r)
	s := RandomSpins(512, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Energy(s)
	}
}

func BenchmarkLocalFieldsN512(b *testing.B) {
	r := rng.New(1)
	m := randomModel(512, r)
	s := RandomSpins(512, r)
	buf := make([]float64, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.LocalFields(s, buf)
	}
}

func BenchmarkApplyFlipN512(b *testing.B) {
	r := rng.New(1)
	m := randomModel(512, r)
	s := RandomSpins(512, r)
	f := m.LocalFields(s, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ApplyFlip(s, f, i&511)
	}
}
