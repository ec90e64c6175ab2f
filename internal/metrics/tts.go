package metrics

import (
	"fmt"
	"math"
)

// Time-to-solution (TTS) is the standard cross-machine metric in the
// Ising-machine literature (used by the SBM and CIM papers the
// evaluation compares against): the expected time to reach a target
// solution at least once with confidence q, given independent runs of
// duration t that each succeed with probability p:
//
//	TTS(q) = t · ln(1−q) / ln(1−p)
//
// With p = 0 the TTS is +Inf; with p ≥ 1 a single run suffices and
// TTS = t.

// TTS returns the time-to-solution at confidence q for runs of
// duration t (any time unit) succeeding with probability p.
func TTS(t, p, q float64) float64 {
	if t <= 0 {
		panic(fmt.Sprintf("metrics: TTS duration %v", t))
	}
	if q <= 0 || q >= 1 {
		panic(fmt.Sprintf("metrics: TTS confidence %v", q))
	}
	if p <= 0 {
		return math.Inf(1)
	}
	if p >= 1 {
		return t
	}
	return t * math.Log(1-q) / math.Log(1-p)
}

// SuccessProbability estimates p from a batch of final energies
// against a target: the fraction of runs with energy ≤ target + tol.
func SuccessProbability(energies []float64, target, tol float64) float64 {
	if len(energies) == 0 {
		return 0
	}
	hits := 0
	for _, e := range energies {
		if e <= target+tol {
			hits++
		}
	}
	return float64(hits) / float64(len(energies))
}

// SuccessProbabilityCI is SuccessProbability with a Wilson score
// interval: it returns the point estimate p̂ together with the
// [lo, hi] confidence bounds at z standard normal deviates (z ≤ 0
// selects the conventional 95% band, z = 1.95996…). The Wilson
// interval stays inside [0, 1] and remains informative at the small
// run counts a live TTS estimate works with — unlike the normal
// approximation, it does not collapse to a zero-width band when every
// run hit (or missed) the target.
func SuccessProbabilityCI(energies []float64, target, tol, z float64) (p, lo, hi float64) {
	p = SuccessProbability(energies, target, tol)
	n := float64(len(energies))
	if n == 0 {
		return 0, 0, 1
	}
	if z <= 0 {
		z = 1.959963984540054
	}
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return p, lo, hi
}
