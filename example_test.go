package mbrim_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"mbrim"
)

// ExampleNewSystem drives the multiprocessor directly for full control
// over epochs, bandwidth and operating mode.
func ExampleNewSystem() {
	g := mbrim.CompleteGraph(64, 7)
	sys, err := mbrim.NewSystem(g.ToIsing(), mbrim.SystemConfig{
		Chips:             4,
		EpochNS:           3.3,
		Channels:          1,
		ChannelBytesPerNS: 0.05, // a deliberately starved fabric
		Seed:              7,
	})
	if err != nil {
		panic(err)
	}
	res := sys.RunConcurrent(50)
	fmt.Println(res.StallNS > 0, res.BitChanges <= res.Flips)
	// Output: true true
}

// ExampleSolve_tracing attaches a JSONL tracer and a metrics registry
// to a solve: the tracer archives the typed event stream (RunStart,
// per-epoch ChipStep/EpochSync/FabricTransfer, RunEnd), the registry
// accumulates counters that agree with the outcome's own stats.
func ExampleSolve_tracing() {
	g := mbrim.CompleteGraph(64, 7)
	var buf bytes.Buffer
	tracer := mbrim.NewJSONLTracer(&buf)
	reg := mbrim.NewRegistry()
	out, err := mbrim.Solve(mbrim.Request{
		Kind:       mbrim.MBRIMConcurrent,
		Model:      g.ToIsing(),
		Graph:      g,
		Chips:      4,
		DurationNS: 30,
		Seed:       7,
		Tracer:     tracer,
		Metrics:    reg,
	})
	if err != nil {
		panic(err)
	}
	if err := tracer.Flush(); err != nil {
		panic(err)
	}

	events, err := mbrim.ReadJSONL(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Println("bracketed:", events[0].Kind, "...", events[len(events)-1].Kind)
	snap := reg.Snapshot()
	fmt.Println("counters agree:",
		float64(snap.Counters["multichip.flips"]) == out.Stats["flips"],
		snap.Counters["core.solves"] == 1)
	// Output:
	// bracketed: run_start ... run_end
	// counters agree: true true
}

// ExampleNewModelBuilder writes a model coupling by coupling: a ring of
// four ferromagnetic couplings, whose ground state aligns every spin.
func ExampleNewModelBuilder() {
	b := mbrim.NewModelBuilder(4)
	for i := 0; i < 4; i++ {
		b.SetCoupling(i, (i+1)%4, 1)
	}
	m, err := b.Build() // rejects bad indices, self-couplings and non-finite values
	if err != nil {
		panic(err)
	}
	fmt.Println(mbrim.SolveExact(m).Energy)
	// Output: -4
}

// ExamplePartitionProblem encodes number partitioning and solves it
// exactly (small instances) — the Lucas-catalogue workflow.
func ExamplePartitionProblem() {
	p := mbrim.PartitionProblem{Numbers: []float64{7, 5, 4, 4, 2}}
	m, offset := p.Ising()
	res := mbrim.SolveExact(m)
	fmt.Println(res.Energy+offset == 0, p.Imbalance(res.Spins))
	// Output: true 0
}

// ExampleEmbedComplete shows the local-coupling capacity cost of
// Sec 4.1.1: an n-spin all-to-all problem needs n(n−1) physical nodes.
func ExampleEmbedComplete() {
	g := mbrim.CompleteGraph(10, 1)
	e := mbrim.EmbedComplete(g.ToIsing(), 0)
	fmt.Println(e.PhysicalNodes(), mbrim.EffectiveCapacity(e.PhysicalNodes()))
	// Output: 90 10
}

// ExamplePlanLayout reproduces the paper's Fig 7 configurations for a
// chip of 4×4 modules with 2000 nodes each.
func ExamplePlanLayout() {
	for _, chips := range []int{1, 4, 16} {
		l, _ := mbrim.PlanLayout(4, 2000, chips)
		fmt.Printf("%d chips: %d spins each, %d total\n", chips, l.SpinsPerChip, l.TotalSpins)
	}
	// Output:
	// 1 chips: 8000 spins each, 8000 total
	// 4 chips: 4000 spins each, 16000 total
	// 16 chips: 2000 spins each, 32000 total
}

// ExamplePackReconfigurable shows the Fig 4/5 utilization argument.
func ExamplePackReconfigurable() {
	problems := []int{100, 100, 100}
	mono, _ := mbrim.PackMonolithic(100, 3, problems)
	reconf, _ := mbrim.PackReconfigurable(100, problems)
	fmt.Printf("monolithic %.2f reconfigurable %.2f\n", mono.Utilization(), reconf.Utilization())
	// Output: monolithic 0.33 reconfigurable 1.00
}

// ExampleNewBRIM drives the analog machine directly, one chip over a
// K32 for 50 ns of model time.
func ExampleNewBRIM() {
	g := mbrim.CompleteGraph(32, 4)
	ma := mbrim.NewBRIM(g.ToIsing(), mbrim.BRIMConfig{Seed: 4})
	ma.SetHorizon(50)
	ma.Run(50)
	fmt.Println(len(ma.Spins()), ma.Flips() > 0)
	// Output: 32 true
}

// ExampleChimeraCapacity reproduces the paper's D-Wave 2000q number.
func ExampleChimeraCapacity() {
	fmt.Println(mbrim.ChimeraCapacity(2048, 4))
	// Output: 65
}

// ExampleSolveCtx stops a solve through its context: the error matches
// ErrInterrupted and carries the best spins found so far, plus the
// checkpoint bytes that Request.Resume continues from.
func ExampleSolveCtx() {
	g := mbrim.CompleteGraph(64, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a deadline or a signal handler cancels the same way
	_, err := mbrim.SolveCtx(ctx, mbrim.Request{
		Kind:       mbrim.MBRIMConcurrent,
		Model:      g.ToIsing(),
		Chips:      4,
		DurationNS: 50,
		Seed:       5,
	})
	var ie *mbrim.InterruptedError
	fmt.Println(errors.Is(err, mbrim.ErrInterrupted), errors.As(err, &ie))
	fmt.Println(len(ie.Outcome.Spins), len(ie.Checkpoint) > 0)
	// Output:
	// true true
	// 64 true
}

// ExampleNewQUBO states a problem over 0/1 variables: pick exactly one
// of two, as the penalty (x0 + x1 − 1)² expands to. ToIsing returns the
// model and the offset that maps its energy back to the QUBO's value.
func ExampleNewQUBO() {
	q := mbrim.NewQUBO(2)
	q.SetCoeff(0, 0, -1)
	q.SetCoeff(1, 1, -1)
	q.SetCoeff(0, 1, 2)
	m, offset, err := q.ToIsing()
	if err != nil {
		panic(err)
	}
	res := mbrim.SolveExact(m)
	fmt.Println(res.Energy+offset, res.Spins[0] != res.Spins[1])
	// Output: -1 true
}

// ExampleVertexCoverProblem finds the minimum cover of a path graph.
func ExampleVertexCoverProblem() {
	g := mbrim.NewGraph(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1, 1)
	}
	vc := mbrim.VertexCoverProblem{G: g}
	m, _ := vc.Ising()
	cover := vc.Decode(mbrim.SolveExact(m).Spins)
	fmt.Println(vc.IsCover(cover), len(cover))
	// Output: true 2
}

// ExampleKnapsackProblem packs a small knapsack optimally.
func ExampleKnapsackProblem() {
	k := mbrim.KnapsackProblem{
		Weights:  []int{2, 3, 4},
		Values:   []float64{3, 4, 5},
		Capacity: 5,
	}
	m, _ := k.Ising()
	items := k.Decode(mbrim.SolveExact(m).Spins)
	fmt.Println(k.Feasible(items), k.TotalValue(items))
	// Output: true 7
}

// ExampleTSPProblem finds the square's perimeter tour.
func ExampleTSPProblem() {
	t := mbrim.TSPProblem{Dist: [][]float64{
		{0, 1, 2, 1},
		{1, 0, 1, 2},
		{2, 1, 0, 1},
		{1, 2, 1, 0},
	}}
	m, _ := t.Ising()
	tour := t.Decode(mbrim.SolveExact(m).Spins)
	fmt.Println(t.ValidTour(tour), t.Length(tour))
	// Output: true 4
}
