package lattice

// sweep32 adds rows [0, rows) of a column sweep to 32 parked sums:
// acc[k] += col[j·stride/8 + k]·x[j] for k in [0, 32), ascending j,
// every product and every sum rounded on its own (sweep_amd64.s). col
// and acc must have 32 readable entries at every offset named; stride
// is in bytes.
//
//go:noescape
func sweep32(col *float64, stride uintptr, x *float64, rows int, acc *float64)

func cpuHasAVX() bool

// useAVX is set once, here; only tests write it again, to prove the
// portable kernel on an AVX host.
var useAVX = cpuHasAVX()
