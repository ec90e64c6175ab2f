package ising

import (
	"fmt"

	"mbrim/internal/rng"
)

// RandomSpins returns n spins drawn uniformly from {-1, +1}.
func RandomSpins(n int, r *rng.Source) []int8 {
	s := make([]int8, n)
	for i := range s {
		s[i] = r.Spin()
	}
	return s
}

// CopySpins returns an independent copy of s.
func CopySpins(s []int8) []int8 {
	c := make([]int8, len(s))
	copy(c, s)
	return c
}

// ValidSpins reports whether every value is -1 or +1.
func ValidSpins(s []int8) bool {
	for _, v := range s {
		if v != -1 && v != 1 {
			return false
		}
	}
	return true
}

// HammingDistance returns the number of positions where a and b differ.
// It is the "bit change" count of the paper's batch-mode accounting:
// the data a chip must broadcast at an epoch boundary.
func HammingDistance(a, b []int8) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("ising: HammingDistance on lengths %d and %d", len(a), len(b)))
	}
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}
