//go:build !amd64

package lattice

// No column sweep off amd64: useAVX is never true, so dense.MatVecRange
// never reaches sweep32.
var useAVX = false

func sweep32(col *float64, stride uintptr, x *float64, rows int, acc *float64) {
	panic("lattice: sweep32 without AVX")
}
