// Package sched defines the annealing schedules the solvers share. A
// schedule maps normalized progress (0 at the start of a run, 1 at the
// end) to a control value: brim's feedback gain, the induced-flip
// probability of BRIM and mBRIM, and simulated annealing's inverse
// temperature. The machine needs two shapes, Linear and Constant.
package sched

// Schedule maps progress ∈ [0,1] to a control value. Implementations
// must be pure: the same progress always yields the same value.
type Schedule interface {
	At(progress float64) float64
}

// clamp limits progress to [0, 1] so integrator round-off at the ends
// of a run cannot push a schedule out of its domain.
func clamp(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Constant is the schedule that always returns its value.
type Constant float64

// At returns the constant value regardless of progress.
func (c Constant) At(float64) float64 { return float64(c) }

// Linear interpolates From→To linearly in progress. It is the
// standard β ramp of Isakov-style simulated annealing.
type Linear struct {
	From, To float64
}

// At returns From + progress·(To−From).
func (l Linear) At(p float64) float64 {
	p = clamp(p)
	return l.From + float64(p*(l.To-l.From))
}
