package lattice

// Bifurcation is the pointwise half of a simulated bifurcation machine's
// step (internal/sbm): from each node's force f_i it takes the
// symplectic-Euler update at bifurcation parameter a,
//
//	y_i += (−(A0 − a)·x_i + C0·f_i)·Dt
//	x_i += A0·y_i·Dt
//
// then the perfectly inelastic walls — x_i > 1 ⇒ (x_i, y_i) = (1, +0),
// x_i < −1 ⇒ (−1, +0) — and the sign readout σ_i = +1 where x_i ≥ 0, else
// −1 (a NaN reads −1), with the list of the nodes whose sign changed
// (package doc, "The bifurcation step").
type Bifurcation struct {
	A0, C0, Dt float64
}

// node is one node's update and walls, ma = −(A0 − a): the form that
// defines the bits. Each product sits in an explicit float64 conversion,
// so no compiler may fuse it into the sum beside it; sbmStep is the same
// operations in the same order four nodes at a time.
func (b *Bifurcation) node(x, y, f, ma float64) (float64, float64) {
	y += float64((float64(ma*x) + float64(b.C0*f)) * b.Dt)
	x += float64(float64(b.A0*y) * b.Dt)
	if x > 1 {
		return 1, 0
	}
	if x < -1 {
		return -1, 0
	}
	return x, y
}

// Step advances every node of x and y one step, given the forces f. On
// entry spins holds the readout of x, every entry ±1; on return it holds
// the readout of the new x, and Step returns flipped[:k], the k nodes
// whose sign changed, ascending. flipped must have len(x) entries, and
// those past k may be overwritten. On an AVX host the whole groups of
// four go through sbmStep and the rest through node — the same bits
// either way.
func (b *Bifurcation) Step(x, y, f []float64, spins []int8, flipped []int32, a float64) []int32 {
	n := len(x)
	y, f, spins, flipped = y[:n], f[:n], spins[:n], flipped[:n]
	ma := -(b.A0 - a)
	i, k := 0, 0
	if groups := n / 4; useAVX && groups > 0 {
		k = sbmStep(&x[0], &y[0], &f[0], &spins[0], &flipped[0], groups, ma, b.C0, b.Dt, b.A0)
		i = groups * 4
	}
	for ; i < n; i++ {
		xi, yi := b.node(x[i], y[i], f[i], ma)
		x[i], y[i] = xi, yi
		s := int8(-1)
		if xi >= 0 {
			s = 1
		}
		if s != spins[i] {
			spins[i] = s
			flipped[k] = int32(i)
			k++
		}
	}
	return flipped[:k]
}
