package lattice

import "math"

// Latch is the pointwise half of a BRIM machine's RK4 derivative: node
// i's latch, bias and feedback, which turn the coupling mat-vec
// mv_i = Σ_j Ĵ_ij·v_j into
//
//	dV_i/dt = ((mv_i + (Bias_i + Ext_i)) + κ·(tanh(Gamma·v_i) − v_i))·InvTau
//
// (package doc, "The latch stage"). A Latch holds the machine's own
// slices; it copies none of them.
type Latch struct {
	// Gamma is the feedback sharpness, InvTau 1/τ.
	Gamma, InvTau float64
	// Bias holds the scaled biases μ·h_i/scale and Ext the external
	// currents, one per node.
	Bias, Ext []float64
}

// deriv is node i's derivative from its voltage vi and mat-vec mv: the
// form that defines the bits, as tanhGo does for the tanh. Each product
// sits in an explicit float64 conversion, so no compiler may fuse it
// into the sum beside it; latchStage and latchFinal are the same
// operations in the same order four nodes at a time.
func (l *Latch) deriv(i int, vi, mv, kappa float64) float64 {
	th := tanhGo(float64(l.Gamma * vi))
	acc := mv + (l.Bias[i] + l.Ext[i])
	acc += float64(kappa * (th - vi))
	return float64(acc * l.InvTau)
}

// Stage finishes nodes [lo, hi) of one RK4 stage taken at voltages v
// with feedback gain kappa. On entry k[lo:hi] holds the stage's coupling
// mat-vec (MatVecRange of v with a nil base); on return it holds dV/dt,
// and next[i] = v0[i] + c·k[i] is the next stage's voltage. next may be v
// itself: a node's inputs are read before its outputs are written. On an
// AVX-512F host the whole groups of eight go through latchStage8; on an
// AVX host the whole groups of four left go through latchStage, and the
// rest through deriv — the same bits either way, so a node's do not
// depend on the range or lane group it was evaluated in.
func (l *Latch) Stage(v, v0, k, next []float64, kappa, c float64, lo, hi int) {
	v, v0, k, next = v[lo:hi], v0[lo:hi], k[lo:hi], next[lo:hi]
	bias, ext := l.Bias[lo:hi], l.Ext[lo:hi]
	i := 0
	if g := len(k) / 8; useAVX512 && g > 0 {
		latchStage8(&v[0], &v0[0], &k[0], &bias[0], &ext[0], l.Gamma, kappa, l.InvTau, g, &tanhTab, &next[0], c)
		i = g * 8
	}
	if g := (len(k) - i) / 4; useAVX && g > 0 {
		latchStage(&v[i], &v0[i], &k[i], &bias[i], &ext[i], l.Gamma, kappa, l.InvTau, g, &tanhTab, &next[i], c)
		i += g * 4
	}
	for ; i < len(k); i++ {
		d := l.deriv(lo+i, v[i], k[i], kappa)
		k[i] = d
		next[i] = v0[i] + float64(c*d)
	}
}

// Final finishes an RK4 step: it forms the fourth stage's dV/dt d at
// voltages v from the mat-vec in k4, which it leaves as it was, and the
// step's candidate voltages
//
//	cand[i] = v0[i] + h·(((k1[i] + 2·k2[i]) + 2·k3[i]) + d[i])
//
// and returns the lowest i whose |cand[i]| is not at most limit — a NaN
// is not — or −1. Lanes and Go form split the nodes as Stage does.
func (l *Latch) Final(v, v0, k1, k2, k3, k4, cand []float64, kappa, h, limit float64) int {
	n := len(cand)
	v, v0, k1, k2, k3, k4 = v[:n], v0[:n], k1[:n], k2[:n], k3[:n], k4[:n]
	bias, ext := l.Bias[:n], l.Ext[:n]
	i, bad := 0, -1
	if g := n / 8; useAVX512 && g > 0 {
		bad = latchFinal8(&v[0], &v0[0], &k4[0], &bias[0], &ext[0], l.Gamma, kappa, l.InvTau, g, &tanhTab, &k1[0], &k2[0], &k3[0], &cand[0], h, limit)
		i = g * 8
	}
	if g := (n - i) / 4; useAVX && g > 0 {
		b := latchFinal(&v[i], &v0[i], &k4[i], &bias[i], &ext[i], l.Gamma, kappa, l.InvTau, g, &tanhTab, &k1[i], &k2[i], &k3[i], &cand[i], h, limit)
		if bad < 0 && b >= 0 {
			bad = i + b
		}
		i += g * 4
	}
	for ; i < n; i++ {
		d := l.deriv(i, v[i], k4[i], kappa)
		c := v0[i] + float64(h*(((k1[i]+float64(2*k2[i]))+float64(2*k3[i]))+d))
		cand[i] = c
		if bad < 0 && !(math.Abs(c) <= limit) {
			bad = i
		}
	}
	return bad
}

// Readout is a BRIM node's hysteresis comparator: the spin a node holding
// s switches to at voltage v — −1 once v is below −th, +1 once it is
// above th, the opposite threshold of its spin — or 0 when it keeps s.
func Readout(s int8, v, th float64) int8 {
	if s >= 0 && v < -th {
		return -1
	}
	if s <= 0 && v > th {
		return 1
	}
	return 0
}

// rail saturates a voltage at the supplies, ±1. A NaN, ±0 and anything
// between the rails come back as they were.
func rail(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}

// commit is node i's committed voltage from its candidate c: the form
// that defines the bits. It takes c to the rails and holds the node at
// 0.8·holdTarget[i] while holdUntil[i] is past t; latchCommit is the
// same operations in the same order four nodes at a time.
func commit(c float64, i int, holdUntil []float64, holdTarget []int8, t float64) float64 {
	c = rail(c)
	if holdUntil[i] > t {
		c = float64(0.8 * float64(holdTarget[i]))
	}
	return c
}

// Commit ends a BRIM step at time t: it writes every node's committed
// voltage, commit of its candidate cand[i], to v, and returns
// crossed[:k], the k nodes whose committed voltage Readout says moves
// their spin, ascending. It writes nothing else: spins is read, and the
// caller records the flips. Every slice must have len(cand) entries, and
// those of crossed past k may be overwritten. On an AVX host the whole groups of four go through
// latchCommit and the rest through commit — the same bits either way, a
// NaN's included.
func (l *Latch) Commit(cand, v, holdUntil []float64, holdTarget, spins []int8, t, th float64, crossed []int32) []int32 {
	n := len(cand)
	v, holdUntil, holdTarget, spins, crossed = v[:n], holdUntil[:n], holdTarget[:n], spins[:n], crossed[:n]
	i, k := 0, 0
	if groups := n / 4; useAVX && groups > 0 {
		k = latchCommit(&cand[0], &v[0], &holdUntil[0], &holdTarget[0], &spins[0], &crossed[0], groups, t, th)
		i = groups * 4
	}
	for ; i < n; i++ {
		x := commit(cand[i], i, holdUntil, holdTarget, t)
		v[i] = x
		if Readout(spins[i], x, th) != 0 {
			crossed[k] = int32(i)
			k++
		}
	}
	return crossed[:k]
}
