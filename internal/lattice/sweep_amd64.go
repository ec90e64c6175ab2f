//go:build !purego

package lattice

// sweep32 adds rows [0, rows) of a column sweep to 32 parked sums:
// acc[k] += col[j·stride/8 + k]·x[j] for k in [0, 32), ascending j,
// every product and every sum rounded on its own (sweep_amd64.s). col
// and acc must have 32 readable entries at every offset named; stride
// is in bytes.
//
//go:noescape
func sweep32(col *float64, stride uintptr, x *float64, rows int, acc *float64)

// sweep64 is sweep32 over 64 parked sums, eight 8-lane registers
// (sweep64_amd64.s): the same products and sums in the same order, so
// the same bits. Only an AVX-512F host may call it.
//
//go:noescape
func sweep64(col *float64, stride uintptr, x *float64, rows int, acc *float64)

// tanhLanes replaces x[0:4·groups] by its tanh, four doubles per packed
// instruction with tanhGo's operations, order and roundings
// (tanh_amd64.s); tab is &tanhTab.
//
//go:noescape
func tanhLanes(x *float64, groups int, tab *[21][4]uint64)

// latchStage is Latch.Stage over 4·groups nodes, four doubles per packed
// instruction with Latch.deriv's operations, order and roundings
// (latch_amd64.s); every pointer names the range's first node.
//
//go:noescape
func latchStage(v, v0, k, bias, ext *float64, gamma, kappa, invTau float64, groups int, tab *[21][4]uint64, next *float64, c float64)

// latchFinal is Latch.Final over 4·groups nodes, as latchStage is
// Latch.Stage: k holds the fourth stage's mat-vec; it returns the first
// bad node, or −1.
//
//go:noescape
func latchFinal(v, v0, k, bias, ext *float64, gamma, kappa, invTau float64, groups int, tab *[21][4]uint64, k1, k2, k3, cand *float64, h, limit float64) int

// latchStage8 and latchFinal8 are latchStage and latchFinal over
// 8·groups nodes, eight doubles per packed instruction with the same
// operations in the same order, so the same bits (latch512_amd64.s).
// Only an AVX-512F host may call them.
//
//go:noescape
func latchStage8(v, v0, k, bias, ext *float64, gamma, kappa, invTau float64, groups int, tab *[21][4]uint64, next *float64, c float64)

//go:noescape
func latchFinal8(v, v0, k, bias, ext *float64, gamma, kappa, invTau float64, groups int, tab *[21][4]uint64, k1, k2, k3, cand *float64, h, limit float64) int

// sbmStep is Bifurcation.Step over 4·groups nodes, four doubles per
// packed instruction with Bifurcation.node's operations, order and
// roundings (bifurcation_amd64.s), ma = −(A0 − a); it returns how many
// nodes it wrote to flipped.
//
//go:noescape
func sbmStep(x, y, f *float64, spins *int8, flipped *int32, groups int, ma, c0, dt, a0 float64) int

// latchCommit is Latch.Commit over 4·groups nodes, four doubles per
// packed instruction with commit's operations, order and roundings and
// Readout's compares (commit_amd64.s). It returns how many nodes it
// wrote to crossed.
//
//go:noescape
func latchCommit(cand, v, holdUntil *float64, holdTarget, spins *int8, crossed *int32, groups int, t, th float64) int

// csrLanes fills out[order[p]] for the 4·groups positions p of whole
// lane groups of one window (csr.go): each lane starts at base[row] (+0
// for a nil base) and adds vals·x[cols] in its row's order, every
// product and sum rounded on its own, slots past its length masked
// (csr_amd64.s). start, lens and order point at the first group's
// entries; cols and vals at the slot arrays' first element.
//
//go:noescape
func csrLanes(cols *int32, vals *float64, start *int, lens *int32, order *int32, x, base, out *float64, groups int)

// fanOutLanes adds c_i·scale to out[i] for the 4·quads columns i, c_i
// counting bit i of the plane rows at word offsets rows[0], rows[2], …
// minus those at rows[1], rows[3], … — 1 to 127 pairs, quads ≥ 1
// (fanout_amd64.s; planes.addRows).
//
//go:noescape
func fanOutLanes(planes *uint64, rows *int, pairs int, out *float64, quads int, scale float64)

func cpuHasAVX() bool

func cpuHasAVX512F() bool

// useAVX and useAVX512 are set once, here; only tests write them again,
// to prove the narrower kernels on a wider host.
var (
	useAVX    = cpuHasAVX()
	useAVX512 = useAVX && cpuHasAVX512F()
)
