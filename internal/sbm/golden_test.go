package sbm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/rng"
)

const multiChipGolden = "testdata/multichip.golden.json"

// weightedModel is a half-dense model with quarter-integer couplings and
// half-integer biases: no ±1 planes, so dSB's force is never kept by
// fanning out flipped rows.
func weightedModel(n int, r *rng.Source) *ising.Model {
	mb := ising.NewBuilder(n)
	for i := 0; i < n; i++ {
		mb.SetBias(i, float64(r.Intn(5)-2)/2)
		for j := i + 1; j < n; j++ {
			if r.Intn(2) == 0 {
				mb.SetCoupling(i, j, float64(r.Intn(9)-4)/4)
			}
		}
	}
	return mustBuild(mb)
}

// multiChipHashes runs Solve over both variants × Chips {1, 3, 4}
// × n {30, 64, 97, 140} × {K-graph, G(n, 0.04), weighted with biases}
// and returns, per configuration, the SHA-256 of every OnStep step and
// energy, the final energy and spins, the steps taken (one exchange
// each) and the bytes that chips would exchange over them: [49]'s
// every-step pipeline sends 4 bytes per remote position per chip, so a
// step costs 4·n·(chips−1) bytes. Chips reach a run only through its
// seed.
func multiChipHashes() map[string]string {
	out := map[string]string{}
	for _, n := range []int{30, 64, 97, 140} {
		models := []struct {
			name string
			m    *ising.Model
		}{
			{"kgraph", graph.Complete(n, rng.New(uint64(n))).ToIsing()},
			{"sparse", graph.Random(n, 0.04, rng.New(uint64(n+1))).ToIsing()},
			{"weighted", weightedModel(n, rng.New(uint64(n+2)))},
		}
		for _, mod := range models {
			for _, v := range []Variant{Ballistic, Discrete} {
				for _, chips := range []int{1, 3, 4} {
					h := sha256.New()
					word := func(u uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, u)) }
					res := Solve(mod.m, Config{Variant: v, Steps: 120, Seed: uint64(n + chips),
						OnStep: func(step int, e float64) { word(uint64(step)); word(math.Float64bits(e)) }})
					word(math.Float64bits(res.Energy))
					for _, s := range res.Spins {
						h.Write([]byte{byte(s)})
					}
					word(uint64(res.Steps))
					word(math.Float64bits(float64(res.Steps) * float64(4*n*(chips-1))))
					name := fmt.Sprintf("%s/n=%d/%v/chips=%d", mod.name, n, v, chips)
					out[name] = hex.EncodeToString(h.Sum(nil))
				}
			}
		}
	}
	return out
}

// TestMultiChipGolden pins the 72 runs behind Fig 12's multi-chip SB
// row against testdata/multichip.golden.json, generated when a
// partitioned loop still ran them: Solve plus [49]'s traffic formula
// reproduces every hash, so nothing about a multi-chip SB trajectory
// moved. The file has no regenerate flag.
func TestMultiChipGolden(t *testing.T) {
	raw, err := os.ReadFile(multiChipGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := multiChipHashes()
	if len(got) != 72 || len(want) != len(got) {
		t.Fatalf("ran %d configurations, golden file holds %d", len(got), len(want))
	}
	for name, h := range got {
		if want[name] != h {
			t.Errorf("%s: hash %s, golden %s", name, h, want[name])
		}
	}
}
