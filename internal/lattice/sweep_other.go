//go:build !amd64 || purego

package lattice

// No packed lanes off amd64, nor under the purego tag, which builds the
// Go forms alone on any host (go test -tags purego ./... runs every
// golden through them): useAVX and useAVX512 are never true, so
// dense.MatVecRange never reaches sweep32 or sweep64, csr.MatVecRange
// never reaches csrLanes, Tanh never reaches tanhLanes, a Latch never
// reaches latchStage, latchStage8, latchFinal, latchFinal8 or
// latchCommit, a Bifurcation never
// reaches sbmStep and neither KeptFields.Flip nor dense.FlipFanout
// reaches fanOutLanes.
var useAVX, useAVX512 = false, false

func sweep32(col *float64, stride uintptr, x *float64, rows int, acc *float64) {
	panic("lattice: sweep32 without AVX")
}

func sweep64(col *float64, stride uintptr, x *float64, rows int, acc *float64) {
	panic("lattice: sweep64 without AVX-512")
}

func csrLanes(cols *int32, vals *float64, start *int, lens *int32, order *int32, x, base, out *float64, groups int) {
	panic("lattice: csrLanes without AVX")
}

func tanhLanes(x *float64, groups int, tab *[21][4]uint64) {
	panic("lattice: tanhLanes without AVX")
}

func latchStage(v, v0, k, bias, ext *float64, gamma, kappa, invTau float64, groups int, tab *[21][4]uint64, next *float64, c float64) {
	panic("lattice: latchStage without AVX")
}

func latchFinal(v, v0, k, bias, ext *float64, gamma, kappa, invTau float64, groups int, tab *[21][4]uint64, k1, k2, k3, cand *float64, h, limit float64) int {
	panic("lattice: latchFinal without AVX")
}

func latchStage8(v, v0, k, bias, ext *float64, gamma, kappa, invTau float64, groups int, tab *[21][4]uint64, next *float64, c float64) {
	panic("lattice: latchStage8 without AVX-512")
}

func latchFinal8(v, v0, k, bias, ext *float64, gamma, kappa, invTau float64, groups int, tab *[21][4]uint64, k1, k2, k3, cand *float64, h, limit float64) int {
	panic("lattice: latchFinal8 without AVX-512")
}

func latchCommit(cand, v, holdUntil *float64, holdTarget, spins *int8, crossed *int32, groups int, t, th float64) int {
	panic("lattice: latchCommit without AVX")
}

func sbmStep(x, y, f *float64, spins *int8, flipped *int32, groups int, ma, c0, dt, a0 float64) int {
	panic("lattice: sbmStep without AVX")
}

func fanOutLanes(planes *uint64, rows *int, pairs int, out *float64, quads int, scale float64) {
	panic("lattice: fanOutLanes without AVX")
}
