package metrics

import (
	"context"
	"errors"
	"testing"
)

// TestBestOf: the one best-of-Runs loop every engine's batch runs
// through. Restart i runs at seed+i, Best is the first of the lowest
// energies, and a cancellation stops the batch at the run it cut short,
// which the batch keeps, returning ctx.Err(). runs < 1 panics.
func TestBestOf(t *testing.T) {
	type run struct {
		seed   uint64
		energy float64
	}
	for _, tc := range []struct {
		energies        []float64
		cutAt, wantBest int // cutAt is the restart a cancellation cuts short, or -1
	}{
		{[]float64{3}, -1, 0},
		{[]float64{-1, -4, -2}, -1, 1},
		{[]float64{0, -5, -5, 2}, -1, 1},
		{[]float64{-1, -3, -9, -9}, 1, 1},
		{[]float64{-2, -7}, 0, 0},
		{[]float64{-6, -1, -2, -8}, 2, 0},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		b, err := BestOf(len(tc.energies), 40, func(r *run) float64 { return r.energy },
			func(i int, seed uint64) (*run, error) {
				if i == tc.cutAt {
					cancel()
				}
				return &run{seed, tc.energies[i]}, ctx.Err()
			})
		cancel()
		ran := len(tc.energies)
		if tc.cutAt >= 0 {
			ran = tc.cutAt + 1
		}
		if (tc.cutAt >= 0) != errors.Is(err, context.Canceled) || len(b.Results) != ran {
			t.Fatalf("%v cut at %d: err %v, %d results", tc.energies, tc.cutAt, err, len(b.Results))
		}
		for i, r := range b.Results {
			if r.seed != 40+uint64(i) || r.energy != tc.energies[i] {
				t.Fatalf("%v: restart %d ran at seed %d with energy %v", tc.energies, i, r.seed, r.energy)
			}
		}
		if b.Best != b.Results[tc.wantBest] {
			t.Fatalf("%v cut at %d: Best is the run at seed %d, want restart %d", tc.energies, tc.cutAt, b.Best.seed, tc.wantBest)
		}
	}
	for _, runs := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("runs=%d did not panic", runs)
				}
			}()
			BestOf(runs, 0, func(float64) float64 { return 0 }, func(int, uint64) (float64, error) { return 0, nil })
		}()
	}
}
