// Number partitioning on an Ising machine: split a multiset of numbers
// into two groups with equal sums. This is one of Karp's original
// NP-complete problems; its Ising form (Lucas [36] in the paper's
// references) is H = (Σ aᵢσᵢ)², i.e. couplings J_ij = -2aᵢaⱼ in this
// library's convention — an instance with biases and non-unit weights,
// exercising a different model path than the ±1 MaxCut benchmarks.
//
//	go run ./examples/partition
package main

import (
	"fmt"
	"log"

	"mbrim"
)

func main() {
	numbers := []float64{
		31, 17, 8, 42, 29, 5, 73, 11, 60, 38, 22, 90, 14, 55, 7, 66,
		12, 81, 26, 49, 3, 95, 34, 58, 19, 44, 70, 9, 27, 62, 16, 51,
	}
	total := 0.0
	for _, a := range numbers {
		total += a
	}
	fmt.Printf("partitioning %d numbers, total %.0f (perfect half: %.1f)\n",
		len(numbers), total, total/2)

	// H(σ) = (Σ aᵢσᵢ)² = Σ aᵢ² + 2 Σ_{i<j} aᵢaⱼ σᵢσⱼ. In this library's
	// convention E = -Σ_{i<j} J σσ, so J_ij = -2 aᵢaⱼ and the constant
	// Σ aᵢ² is the offset: minimizing E minimizes the imbalance squared.
	p := mbrim.PartitionProblem{Numbers: numbers}
	m, _ := p.Ising()

	machine, err := mbrim.Solve(mbrim.Request{
		Kind:       mbrim.MBRIMBatch, // 2 chips, 4 staggered jobs
		Model:      m,
		Chips:      2,
		Runs:       4,
		DurationNS: 1500,
		Seed:       3,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Hybrid finish: polish the machine's readout with warm-started SA.
	// Number partitioning has couplings spanning two orders of
	// magnitude, the regime where an analog machine benefits most from
	// a short digital cleanup.
	out, err := mbrim.Solve(mbrim.Request{
		Kind:    mbrim.SA,
		Model:   m,
		Sweeps:  400,
		Seed:    3,
		Initial: machine.Spins,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("machine energy %.0f -> polished energy %.0f\n", machine.Energy, out.Energy)

	group := func(name string, indices []int) {
		values, sum := make([]float64, len(indices)), 0.0
		for k, i := range indices {
			values[k] = numbers[i]
			sum += numbers[i]
		}
		fmt.Printf("group %s (sum %.0f): %v\n", name, sum, values)
	}
	plus, minus := p.Decode(out.Spins)
	group("A", plus)
	group("B", minus)
	fmt.Printf("imbalance: %.0f (machine time %.0f ns + SA polish %v)\n",
		p.Imbalance(out.Spins), machine.ModelNS, out.Wall)
}
