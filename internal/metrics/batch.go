package metrics

import (
	"fmt"
	"time"
)

// Batch is a best-of-Runs batch, the "anneal many times from different
// initial conditions and take the best" pattern the paper calls common
// if not universal: every restart's result in order, the lowest-energy
// one, and the batch's wall time. Restarts run back to back, so Wall is
// the honest cost a single core pays.
type Batch[R any] struct {
	Best    R
	Results []R
	Wall    time.Duration
}

// BestOf runs restart i = 0, 1, …, runs−1 as run(i, seed+i), in order,
// and keeps the result of lowest energy, the earliest on a tie. It stops
// at the first error — a cancellation, or an engine's divergence — and
// returns it, holding the run that returned it beside the completed ones.
// The engine passes in run, and with it all it alone knows of a restart.
func BestOf[R any](runs int, seed uint64, energy func(R) float64, run func(i int, seed uint64) (R, error)) (*Batch[R], error) {
	if runs < 1 {
		panic(fmt.Sprintf("metrics: runs=%d", runs))
	}
	b := &Batch[R]{Results: make([]R, 0, runs)}
	start := time.Now()
	var err error
	for i := 0; i < runs && err == nil; i++ {
		var res R
		res, err = run(i, seed+uint64(i))
		if i == 0 || energy(res) < energy(b.Best) {
			b.Best = res
		}
		b.Results = append(b.Results, res)
	}
	b.Wall = time.Since(start)
	return b, err
}
