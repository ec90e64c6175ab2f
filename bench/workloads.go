package main

import (
	"encoding/json"
	"fmt"
	"time"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/multichip"
	"mbrim/internal/rng"
)

// refSeconds is the --seconds value the workload sizes below are
// stated for; other values scale the counts linearly, so the work done
// for a given (workload, seconds, seed) never depends on the host.
const refSeconds = 20

// instancesPerRun is how many distinct problem instances one run
// cycles over. Solve i uses instance i mod instancesPerRun, so no two
// consecutive solves share a model and a model cache cannot flatter
// itself.
const instancesPerRun = 8

// workload is one fixed traffic mix. The names are the benchmark's
// public vocabulary: BENCHMARK.json, bench/README.md and later issues
// refer to them.
type workload struct {
	Name string
	// Why is the one-line rationale copied into BENCHMARK.json.
	Why string
	// Engine is the solver kind, "cluster" for the distributed fabric.
	Engine string
	// N is the spin count; P > 0 makes the instance a G(n,p) edge list
	// instead of a K-graph.
	N int
	P float64
	// Spec is the solver part of the request body (everything but the
	// problem, the seeds and the worker list).
	Spec map[string]any
	// Clients is the closed-loop client count (never above nproc on the
	// reference host); Poll the status poll interval.
	Clients int
	Poll    time.Duration
	// Measured and Warmup are solve counts at refSeconds; every one is
	// run, whatever the host's speed. The benchmark's driver allows
	// 3420 s for 114 runs, 30 s each with build check, three set-ups
	// and verification, so Measured is sized to 11-12 s on the 2-core
	// reference host in a fast phase; its slow phases add a half.
	Measured int
	Warmup   int
	// ExpectMS is the reference-host solve wall; ten times it (at least
	// minSolveDeadline) is the per-solve deadline that turns a hang into
	// a counted failure.
	ExpectMS float64
	// Traced is how many solves the in-process traced pass unrolls at
	// refSeconds.
	Traced int
}

func (w *workload) cluster() bool  { return w.Engine == "cluster" }
func (w *workload) mbrim() bool    { return w.Engine == "mbrim" || w.cluster() }
func (w *workload) software() bool { return !w.mbrim() }

// chips is the slice/chip count of the mbrim workloads (0 otherwise).
func (w *workload) chips() int {
	c, _ := w.Spec["chips"].(int)
	return c
}

func (w *workload) durationNS() float64 {
	d, _ := w.Spec["durationNS"].(float64)
	return d
}

// multichipConfig is the multiprocessor configuration the workload's
// request resolves to (mbrim workloads only).
func (w *workload) multichipConfig(seed uint64) multichip.Config {
	cfg := multichip.Config{Chips: w.chips(), Seed: seed}
	cfg.Channels, _ = w.Spec["channels"].(int)
	cfg.ChannelBytesPerNS, _ = w.Spec["channelBytesPerNS"].(float64)
	return cfg
}

// scaled sizes a reference count for the requested window.
func scaled(count int, seconds float64) int {
	n := int(float64(count)*seconds/refSeconds + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// workloads is the fixed matrix. Order is the report order.
var workloads = []*workload{
	{
		Name:   "k256_mbrim4",
		Why:    "paper headline: 4-chip concurrent mode on a dense K256 with a finite channel; brim RK4, dense lattice, epoch sync, sinks and fabric stalls dominate",
		Engine: "mbrim", N: 256,
		Spec:    map[string]any{"chips": 4, "durationNS": 200.0, "channels": 3, "channelBytesPerNS": 2.0},
		Clients: 1, Poll: 2 * time.Millisecond,
		Measured: 38, Warmup: 2, ExpectMS: 350, Traced: 10,
	},
	{
		Name:   "sparse1k_mbrim4",
		Why:    "same engine on a 2%-density 1024-spin edge list: body decode, CSR backend and the per-chip dense cross rows dominate; bypasses the dense kernels",
		Engine: "mbrim", N: 1024, P: 0.02,
		Spec:    map[string]any{"chips": 4, "durationNS": 100.0},
		Clients: 1, Poll: 2 * time.Millisecond,
		Measured: 32, Warmup: 2, ExpectMS: 415, Traced: 10,
	},
	{
		Name:   "k256_cluster2",
		Why:    "distributed fabric: coordinator, JSON wire and two worker processes stepping slices through 31 epoch barriers; the only workload that pays wire and barrier cost",
		Engine: "cluster", N: 256,
		Spec:    map[string]any{"chips": 2, "durationNS": 100.0},
		Clients: 1, Poll: 2 * time.Millisecond,
		Measured: 52, Warmup: 2, ExpectMS: 280, Traced: 10,
	},
	{
		Name:   "k256_sa_burst",
		Why:    "service plane: ~1.5 ms of SA engine in a ~14 ms solve, so decode, model build, admission, three fsync'd journal appends, sinks, eviction and encode dominate, two clients deep",
		Engine: "sa", N: 256,
		Spec:    map[string]any{},
		Clients: 2, Poll: 250 * time.Microsecond,
		Measured: 1800, Warmup: 40, ExpectMS: 14, Traced: 40,
	},
	{
		Name:   "k512_dsbm",
		Why:    "software engine bound on the integer-field path (sbm over lattice.Fields on +-1 rows) with multichip and cluster idle; where a bit-packed backend must pay",
		Engine: "dsbm", N: 512,
		Spec:    map[string]any{"steps": 800},
		Clients: 1, Poll: 2 * time.Millisecond,
		Measured: 38, Warmup: 2, ExpectMS: 370, Traced: 10,
	},
}

// smokeWorkloads shrinks the matrix to K32-class problems and three
// solves each: same names, same code paths, sub-second.
func smokeWorkloads() []*workload {
	out := make([]*workload, len(workloads))
	for i, w := range workloads {
		s := *w
		s.N = 32
		if w.P > 0 {
			s.N, s.P = 64, 0.1
		}
		s.Spec = map[string]any{}
		for k, v := range w.Spec {
			s.Spec[k] = v
		}
		if s.mbrim() {
			s.Spec["durationNS"] = 20.0
		}
		if _, ok := s.Spec["steps"]; ok {
			s.Spec["steps"] = 50
		}
		s.Measured, s.Warmup, s.Traced = 3, 1, 2
		s.ExpectMS = 500 // generous: the smoke runs under `go test` next to other packages
		out[i] = &s
	}
	return out
}

func findWorkload(set []*workload, name string) *workload {
	for _, w := range set {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// instance is the bench's own copy of one problem: the daemon only
// ever sees the request body generated from it.
type instance struct {
	graphSeed uint64
	g         *graph.Graph
	m         *ising.Model
	// edges is the explicit edge list in the submit body's 1-based
	// [u, v, w] form; nil for K-graphs, which the daemon regenerates
	// from graphSeed.
	edges [][3]float64
}

// splitmix is the seed-derivation hash (the SplitMix64 finalizer).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// makeInstances derives the run's instances from the benchmark seed
// alone.
func makeInstances(w *workload, seed uint64) []*instance {
	out := make([]*instance, instancesPerRun)
	for j := range out {
		gs := splitmix(seed*instancesPerRun + uint64(j))
		if gs == 0 {
			gs = 1 // the daemon reads graphSeed 0 as "default 1"
		}
		in := &instance{graphSeed: gs}
		if w.P > 0 {
			in.g = graph.Random(w.N, w.P, rng.New(gs))
			in.edges = make([][3]float64, 0, in.g.M())
			for _, e := range in.g.Edges() {
				in.edges = append(in.edges, [3]float64{float64(e.U + 1), float64(e.V + 1), e.Weight})
			}
		} else {
			in.g = graph.Complete(w.N, rng.New(gs))
		}
		in.m = in.g.ToIsing()
		out[j] = in
	}
	return out
}

// Seed layout: solve i of a run with benchmark seed S uses solver seed
// S·10⁶+1+i, so the three phases never share a seed.
const (
	warmupSeedBase = 900_000
	tracedSeedBase = 950_000
)

func solverSeed(seed uint64, i int) uint64 { return seed*1_000_000 + 1 + uint64(i) }

// solveInput is one generated request.
type solveInput struct {
	seed uint64
	inst *instance
	body []byte
}

// makeInputs generates count request bodies starting at solve index
// base. workers is the worker URL list of the cluster workload.
func makeInputs(w *workload, insts []*instance, seed uint64, base, count int, workers []string) ([]solveInput, error) {
	out := make([]solveInput, count)
	for i := range out {
		in := insts[(base+i)%len(insts)]
		body := map[string]any{"seed": solverSeed(seed, base+i)}
		for k, v := range w.Spec {
			body[k] = v
		}
		if w.cluster() {
			body["workers"] = workers
		} else {
			body["engine"] = w.Engine
		}
		if in.edges != nil {
			body["n"], body["edges"] = w.N, in.edges
		} else {
			body["k"], body["graphSeed"] = w.N, in.graphSeed
		}
		b, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("encoding request %d: %w", i, err)
		}
		out[i] = solveInput{seed: solverSeed(seed, base+i), inst: in, body: b}
	}
	return out, nil
}
