package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mbrim/internal/checkpoint"
	"mbrim/internal/cluster"
	"mbrim/internal/core"
	"mbrim/internal/diag"
	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/journal"
	"mbrim/internal/lattice"
	"mbrim/internal/multichip"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
	"mbrim/internal/runs"
)

// The traced pass. For each workload it unrolls, inside the bench
// process, what the daemon does for one solve — calling each layer's
// public functions directly and wrapping every call in a span — and
// times the nested real paths (bare core solve ⊂ with sinks ⊂ managed ⊂
// journaled ⊂ in-process HTTP) so each outer layer's cost is a
// difference of medians. Nothing inside the repository is
// instrumented: every layer is measured from outside.

// span is one recorded interval. Spans of one solve share Trace.
type span struct {
	Trace   int    `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: root
	Name    string `json:"name"`
	StartNS int64  `json:"startNS"`
	EndNS   int64  `json:"endNS"`
}

// recorder keeps spans in memory; they are written out when the pass
// ends. With on false every call is a no-op, which is how the pass
// measures what recording itself costs.
type recorder struct {
	on    bool
	t0    time.Time
	trace int
	spans []span
}

func (r *recorder) start(name string, parent int) int {
	if !r.on {
		return 0
	}
	r.spans = append(r.spans, span{Trace: r.trace, ID: len(r.spans) + 1, Parent: parent,
		Name: name, StartNS: time.Since(r.t0).Nanoseconds()})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if id != 0 {
		r.spans[id-1].EndNS = time.Since(r.t0).Nanoseconds()
	}
}

// selfTimes sums, per trace and span name, each span's duration minus
// the part its children cover, in ms.
func selfTimes(spans []span) map[int]map[string]float64 {
	child := make([]int64, len(spans)+1)
	for _, s := range spans {
		child[s.Parent] += s.EndNS - s.StartNS
	}
	out := map[int]map[string]float64{}
	for _, s := range spans {
		if out[s.Trace] == nil {
			out[s.Trace] = map[string]float64{}
		}
		out[s.Trace][s.Name] += float64(s.EndNS-s.StartNS-child[s.ID]) / 1e6
	}
	return out
}

// parsedRequest is the decoded submit body's common part.
type parsedRequest struct {
	k, n              int
	graphSeed, seed   uint64
	edges             [][3]float64
	chips             int
	durationNS        float64
	channels          int
	channelBytesPerNS float64
	steps             int
	spec              any // the decoded struct; the daemon journals its re-marshal
}

func decodeRequest(w *workload, body []byte) (*parsedRequest, error) {
	if w.cluster() {
		var sr cluster.SubmitRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sr); err != nil {
			return nil, err
		}
		return &parsedRequest{k: sr.K, n: sr.N, graphSeed: sr.GraphSeed, seed: sr.Seed, edges: sr.Edges,
			chips: sr.Chips, durationNS: sr.DurationNS, channels: sr.Channels,
			channelBytesPerNS: sr.ChannelBytesPerNS, spec: &sr}, nil
	}
	var sr runs.SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sr); err != nil {
		return nil, err
	}
	return &parsedRequest{k: sr.K, n: sr.N, graphSeed: sr.GraphSeed, seed: sr.Seed, edges: sr.Edges,
		chips: sr.Chips, durationNS: sr.DurationNS, channels: sr.Channels,
		channelBytesPerNS: sr.ChannelBytesPerNS, steps: sr.Steps, spec: &sr}, nil
}

func buildGraph(p *parsedRequest) *graph.Graph {
	if p.k > 0 {
		return graph.Complete(p.k, rng.New(p.graphSeed))
	}
	g := graph.New(p.n)
	for _, e := range p.edges {
		g.AddEdge(int(e[0])-1, int(e[1])-1, e[2])
	}
	return g
}

// coreRequest is the solve the daemon would build for a workload's
// request (the cluster workload's in-process equivalent is the
// concurrent engine on the same chip count).
func coreRequest(w *workload, m *ising.Model, g *graph.Graph, seed uint64) core.Request {
	req := core.Request{Kind: core.Kind(w.Engine), Model: m, Graph: g, Seed: seed}
	if w.cluster() {
		req.Kind = core.MBRIMConcurrent
	}
	if w.mbrim() {
		cfg := w.multichipConfig(seed)
		req.Chips, req.Channels, req.ChannelBytesPerNS = cfg.Chips, cfg.Channels, cfg.ChannelBytesPerNS
		req.DurationNS = w.durationNS()
		// The daemon gives multichip submissions ~100 energy samples.
		req.SampleEveryNS = req.DurationNS / 100
	}
	req.Steps, _ = w.Spec["steps"].(int)
	return req
}

// unrolledResult is what one unrolled solve hands back for checking.
type unrolledResult struct {
	energy       float64
	requestBytes int
	outcomeBytes int
}

// unrolledSolve performs one solve the way the daemon does, layer by
// layer, each public call wrapped in a span.
func unrolledSolve(rec *recorder, w *workload, in *solveInput, jw *journal.Writer) (unrolledResult, error) {
	res := unrolledResult{requestBytes: len(in.body)}
	root := rec.start("solve", 0)
	defer rec.end(root)

	sp := rec.start("runs.decode_request", root)
	p, err := decodeRequest(w, in.body)
	rec.end(sp)
	if err != nil {
		return res, err
	}
	sp = rec.start("graph.build", root)
	g := buildGraph(p)
	rec.end(sp)
	sp = rec.start("ising.build", root)
	m := g.ToIsing()
	rec.end(sp)

	appendRec := func(r journal.Record) error {
		sp := rec.start("journal.append", root)
		defer rec.end(sp)
		return jw.Append(r)
	}
	spec, err := json.Marshal(p.spec)
	if err != nil {
		return res, err
	}
	if err := appendRec(journal.Record{Type: journal.TypeSubmit, ID: "run-1", Spec: spec}); err != nil {
		return res, err
	}
	if !w.cluster() { // the coordinator API journals no start record
		if err := appendRec(journal.Record{Type: journal.TypeStart, ID: "run-1"}); err != nil {
			return res, err
		}
	}

	eng := rec.start("engine", root)
	var out *core.Outcome
	if w.mbrim() {
		out, err = unrolledMultichip(rec, eng, p, m, g)
	} else {
		sp := rec.start("core.solve", eng)
		out, err = core.SolveCtx(context.Background(), coreRequest(w, m, g, p.seed))
		rec.end(sp)
	}
	rec.end(eng)
	if err != nil {
		return res, err
	}
	res.energy = out.Energy

	sum, err := json.Marshal(&runs.OutcomeSummary{Energy: out.Energy, Cut: out.Cut, ModelNS: out.ModelNS,
		WallNS: out.Wall.Nanoseconds(), Spins: len(out.Spins), Backend: out.Backend, Stats: out.Stats})
	if err != nil {
		return res, err
	}
	if err := appendRec(journal.Record{Type: journal.TypeTerminal, ID: "run-1", State: "completed", Summary: sum}); err != nil {
		return res, err
	}

	sp = rec.start("runs.encode_outcome", root)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if w.cluster() {
		err = enc.Encode(map[string]any{"id": "cr-1", "done": true, "result": map[string]any{
			"energy": out.Energy, "modelNS": out.ModelNS, "flips": out.Stats["flips"],
			"bitChanges": out.Stats["bitChanges"], "trafficBytes": out.Stats["trafficBytes"]}})
	} else {
		err = enc.Encode(runs.OutcomeBody{ID: "run-1", State: runs.StateCompleted, Engine: w.Engine,
			Seed: p.seed, Energy: out.Energy, Cut: out.Cut, ModelNS: out.ModelNS,
			WallNS: out.Wall.Nanoseconds(), Backend: out.Backend, Stats: out.Stats, Spins: out.Spins})
	}
	rec.end(sp)
	res.outcomeBytes = buf.Len()
	return res, err
}

// unrolledMultichip is the concurrent engine taken apart: one
// multichip.Slice per chip, stepped in lockstep with the boundary
// updates cross-delivered in ascending chip order — the loop the
// cluster coordinator runs, without the wire. Its trajectory is
// bit-identical to System.RunConcurrent; the pass checks that it is.
func unrolledMultichip(rec *recorder, eng int, p *parsedRequest, m *ising.Model, g *graph.Graph) (*core.Outcome, error) {
	sp := rec.start("lattice.build", eng)
	view := m.View(lattice.Auto)
	rec.end(sp)
	cfg := multichip.Config{Chips: p.chips, Seed: p.seed, Channels: p.channels, ChannelBytesPerNS: p.channelBytesPerNS}
	slices := make([]*multichip.Slice, p.chips)
	for ci := range slices {
		sp := rec.start("multichip.new_slice", eng)
		s, err := multichip.NewSlice(m, cfg, ci, p.durationNS)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		slices[ci] = s
	}
	reps := make([]*multichip.EpochReport, len(slices))
	var bitChanges int
	for !slices[0].Done() {
		ep := rec.start("epoch", eng)
		for ci, s := range slices {
			sp := rec.start("multichip.chip_step", ep)
			rep, err := s.RunEpoch()
			rec.end(sp)
			if err != nil {
				return nil, err
			}
			reps[ci] = rep
			bitChanges += len(rep.Updates)
		}
		if !slices[0].Done() {
			for d, s := range slices {
				var ups []multichip.PendingUpdate
				for src, rep := range reps {
					if src != d {
						ups = append(ups, rep.Updates...)
					}
				}
				sp := rec.start("multichip.apply_sync", ep)
				err := s.ApplySync(ups)
				rec.end(sp)
				if err != nil {
					return nil, err
				}
			}
		}
		rec.end(ep)
	}
	spins := make([]int8, m.N())
	var flips int64
	for ci, s := range slices {
		for li, gi := range s.Owned() {
			spins[gi] = reps[ci].Spins[li]
		}
		flips += reps[ci].Flips
	}
	return &core.Outcome{Kind: core.MBRIMConcurrent, Backend: view.Kind().String(), Spins: spins,
		Energy: m.Energy(spins), Cut: g.CutValue(spins), ModelNS: slices[0].ModelNS(),
		Stats: map[string]float64{"flips": float64(flips), "bitChanges": float64(bitChanges)}}, nil
}

// timeMS runs f and returns its wall time in ms.
func timeMS(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return msSince(t0), err
}

// medianOf times f n times and returns the median, in ms.
func medianOf(n int, f func() error) (float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		ms, err := timeMS(f)
		if err != nil {
			return 0, err
		}
		xs = append(xs, ms)
	}
	return median(xs), nil
}

// allocDelta runs f and returns the heap objects and bytes allocated
// process-wide meanwhile. The traced pass runs one thing at a time, so
// the whole delta belongs to f.
func allocDelta(f func() error) (mallocs, bytes float64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err = f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc), err
}

// tableRow is one line of the layer table.
type tableRow struct {
	Row string  `json:"row"`
	MS  float64 `json:"ms"`
}

// traceResult is one workload's traced pass.
type traceResult struct {
	Layers map[string]metric `json:"layers"`
	// Table sums to TotalMS, the untraced raw.solve_ms_p50 it explains.
	Table   []tableRow `json:"table"`
	TotalMS float64    `json:"total_ms"`
	// Errors lists what the pass found wrong (a real path whose energy
	// differs from the unrolled solve's, for one); empty means correct.
	Errors []string `json:"errors,omitempty"`
}

// traceConfig parameterizes one traced pass.
type traceConfig struct {
	w       *workload
	seed    uint64
	seconds float64
	outDir  string
	// untracedP50 is the raw.solve_ms_p50 of the untraced pass the layer
	// table must sum to.
	untracedP50 float64
}

// tracePass is the state the pass's helpers share.
type tracePass struct {
	*traceConfig
	inputs []solveInput
	layers map[string]metric
	errs   []string
}

func (tp *tracePass) set(name string, v float64, unit string) { tp.layers[name] = metric{v, unit} }

func (tp *tracePass) fail(format string, a ...any) {
	if len(tp.errs) < 8 {
		tp.errs = append(tp.errs, fmt.Sprintf(format, a...))
	}
}

// input cycles over the traced inputs so consecutive solves never share
// an instance.
func (tp *tracePass) input(i int) *solveInput { return &tp.inputs[i%len(tp.inputs)] }

// runTrace performs the traced pass for one workload.
func runTrace(tc *traceConfig) (*traceResult, error) {
	w := tc.w
	tp := &tracePass{traceConfig: tc, layers: map[string]metric{}}
	for _, d := range perLayer {
		if !d.fromClient {
			tp.layers[d.Name] = metric{0, d.Unit}
		}
	}
	nTraced := scaled(w.Traced, tc.seconds)
	nNested := max(3, nTraced/2)
	insts := makeInstances(w, tc.seed)

	// Workers for the cluster paths live for the whole pass.
	var wires []*wireCounter
	var workerURLs []string
	if w.cluster() {
		for i := 0; i < w.chips(); i++ {
			wc := &wireCounter{}
			srv := newWorkerServer(wc)
			defer srv.Close()
			wires = append(wires, wc)
			workerURLs = append(workerURLs, srv.URL)
		}
	}
	var err error
	if tp.inputs, err = makeInputs(w, insts, tc.seed, tracedSeedBase, nTraced, workerURLs); err != nil {
		return nil, err
	}

	stateDir, err := os.MkdirTemp(tc.outDir, "trace-state-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateDir)

	// The unrolled, span-recorded solves run round-robin with the same
	// sequence unrecorded (their ratio is what the tracing costs) and
	// with the nested real paths, so host drift hits every median alike.
	jw, err := journal.Open(filepath.Join(stateDir, "unrolled.journal"), nil)
	if err != nil {
		return nil, err
	}
	defer jw.Close()
	np, err := newNestedPaths(tp, stateDir, wires, workerURLs)
	if err != nil {
		return nil, err
	}
	defer np.close()
	rec := &recorder{t0: time.Now()}
	var onMS, offMS []float64
	var last unrolledResult
	for i := 0; i < nTraced; i++ {
		rec.on, rec.trace = true, i+1
		ms, err := timeMS(func() (e error) { last, e = unrolledSolve(rec, w, tp.input(i), jw); return })
		if err != nil {
			return nil, fmt.Errorf("%s: unrolled solve: %w", w.Name, err)
		}
		onMS = append(onMS, ms)
		if i >= nNested {
			continue
		}
		rec.on = false
		if ms, err = timeMS(func() error { _, e := unrolledSolve(rec, w, tp.input(i), jw); return e }); err != nil {
			return nil, fmt.Errorf("%s: unrolled solve: %w", w.Name, err)
		}
		offMS = append(offMS, ms)
		if err := np.round(i, last.energy, i == nNested-1); err != nil {
			return nil, fmt.Errorf("%s: nested paths: %w", w.Name, err)
		}
	}
	self := selfTimes(rec.spans)
	rowMedian := func(name string) float64 {
		var xs []float64
		for _, byName := range self {
			xs = append(xs, byName[name])
		}
		return median(xs)
	}
	tp.set("trace.overhead_frac", median(onMS[:len(offMS)])/median(offMS)-1, "ratio")
	tp.set("runs.decode_request_us", rowMedian("runs.decode_request")*1e3, "us")
	tp.set("runs.request_bytes", float64(last.requestBytes), "bytes")
	tp.set("runs.encode_outcome_us", rowMedian("runs.encode_outcome")*1e3, "us")
	tp.set("runs.outcome_bytes", float64(last.outcomeBytes), "bytes")
	tp.set("graph.build_ms", rowMedian("graph.build"), "ms")
	tp.set("ising.build_ms", rowMedian("ising.build"), "ms")
	if w.mbrim() {
		tp.set("multichip.chip_step_ms", rowMedian("multichip.chip_step"), "ms")
		tp.set("multichip.apply_sync_ms", rowMedian("multichip.apply_sync"), "ms")
		tp.set("multichip.step_imbalance", stepImbalance(rec.spans), "ratio")
	}
	paths, err := np.publish(nNested)
	if err != nil {
		return nil, err
	}

	// 3. Single layers, timed by calling their public functions.
	in0 := tp.input(0)
	tp.latticeLayer(in0.inst.m)
	if err := tp.journalLayer(stateDir, in0); err != nil {
		return nil, err
	}
	if w.mbrim() {
		if err := tp.multichipLayer(in0); err != nil {
			return nil, err
		}
	}

	// The layer table: span self times inside, differences of medians
	// outside, and whatever the real daemon adds beyond the in-process
	// HTTP path (process boundary, loopback TCP, poll lag) as an
	// explicit unattributed row, so the rows sum to the untraced
	// raw.solve_ms_p50 by construction.
	service := []string{"runs.decode_request", "graph.build", "ising.build", "journal.append", "runs.encode_outcome"}
	engine := []string{"lattice.build", "multichip.new_slice", "multichip.chip_step", "multichip.apply_sync", "epoch", "core.solve"}
	var table []tableRow
	serviceMS, engineMS := 0.0, 0.0
	for _, name := range service {
		table = append(table, tableRow{name, rowMedian(name)})
		serviceMS += rowMedian(name)
	}
	for _, name := range engine {
		if v := rowMedian(name); v != 0 {
			table = append(table, tableRow{name, v})
			engineMS += v
		}
	}
	table = append(table, tableRow{"engine.other", paths.solve - engineMS})
	outer := paths.solve
	if w.cluster() {
		table = append(table, tableRow{"cluster.fabric", paths.cluster - paths.solve})
		outer = paths.cluster
	} else {
		table = append(table,
			tableRow{"obs.sinks", paths.traced - paths.solve},
			tableRow{"runs.manager", paths.managed - paths.traced})
		outer = paths.managed
	}
	table = append(table,
		tableRow{"service.other", paths.http - outer - serviceMS},
		tableRow{"unattributed_ms", tc.untracedP50 - paths.http})
	tp.set("trace.unattributed_ms", tc.untracedP50-paths.http, "ms")

	if err := writeJSONFile(filepath.Join(tc.outDir, "trace."+w.Name+".json"),
		map[string]any{"workload": w.Name, "seed": tc.seed, "table": table, "spans": rec.spans}); err != nil {
		return nil, err
	}
	return &traceResult{Layers: tp.layers, Table: table, TotalMS: tc.untracedP50, Errors: tp.errs}, nil
}

// stepImbalance is the mean over epochs of (slowest chip step ÷ mean
// chip step): how much an epoch barrier waits for its slowest chip.
func stepImbalance(spans []span) float64 {
	byEpoch := map[int][]float64{}
	for _, s := range spans {
		if s.Name == "multichip.chip_step" {
			byEpoch[s.Parent] = append(byEpoch[s.Parent], float64(s.EndNS-s.StartNS))
		}
	}
	var ratios []float64
	for _, steps := range byEpoch {
		if m := mean(steps); m > 0 {
			ratios = append(ratios, quantile(steps, 1)/m)
		}
	}
	return mean(ratios)
}

// nestedMS holds the medians of the nested real paths, in ms.
type nestedMS struct {
	solve, traced, managed, journaled, cluster, http float64
}

// Indices of the nested real paths in nestedPaths.xs.
const (
	pathSolve = iota
	pathTraced
	pathManaged
	pathJournaled
	pathCluster
	pathHTTP
	numPaths
)

// nestedPaths times the real paths a solve nests through: the bare
// engine, the engine with the daemon's sinks, the run manager without
// and with the journal (or, for the cluster workload, the coordinator
// over HTTP-hosted workers), and the whole protocol over in-process
// HTTP.
type nestedPaths struct {
	tp         *tracePass
	stateDir   string
	wires      []*wireCounter
	workerURLs []string

	jw             *journal.Writer
	plain, durable *runs.Manager
	httpT          *target

	xs                                         [numPaths][]float64
	ring                                       *obs.Ring
	red                                        *diag.Reducer
	coreAllocs, coreBytes, runAllocs, runBytes float64
	cluster                                    clusterPassStats
}

func newNestedPaths(tp *tracePass, stateDir string, wires []*wireCounter, workerURLs []string) (*nestedPaths, error) {
	np := &nestedPaths{tp: tp, stateDir: stateDir, wires: wires, workerURLs: workerURLs}
	cfg := runs.Config{Registry: obs.NewRegistry(), MaxActive: 2, MaxQueued: 16, RetainRuns: 8}
	np.plain = runs.NewManager(cfg)
	var err error
	if np.jw, err = journal.Open(filepath.Join(stateDir, "run.journal"), nil); err != nil {
		return nil, err
	}
	cfg.Registry, cfg.Journal, cfg.StateDir, cfg.CheckpointEvery = obs.NewRegistry(), np.jw, stateDir, 2*time.Second
	np.durable = runs.NewManager(cfg)
	if np.httpT, err = bootInProcess(stateDir, 0, true); err != nil {
		np.jw.Close()
		return nil, err
	}
	return np, nil
}

func (np *nestedPaths) close() {
	np.httpT.stop()
	np.jw.Close()
}

// round times every path once on traced input i. energy is the
// unrolled solve's energy for that input, which every path must
// reproduce; withAllocs also takes the allocation deltas.
func (np *nestedPaths) round(i int, energy float64, withAllocs bool) error {
	tp, w := np.tp, np.tp.w
	in := tp.input(i)
	check := func(path string, got float64) {
		if got != energy {
			tp.fail("%s: energy %v, unrolled solve of seed %d had %v", path, got, in.seed, energy)
		}
	}
	request := func() core.Request { return coreRequest(w, in.inst.m, in.inst.g, in.seed) }
	timeInto := func(k int, f func() error) error {
		t, err := timeMS(f)
		np.xs[k] = append(np.xs[k], t)
		return err
	}
	// counted runs f under the allocation counters on the last round.
	counted := func(k int, mallocs, bytes *float64, f func() error) (err error) {
		if !withAllocs {
			return timeInto(k, f)
		}
		*mallocs, *bytes, err = allocDelta(func() error { return timeInto(k, f) })
		return err
	}
	managed := func(mgr *runs.Manager, path string) error {
		run, err := mgr.Submit(context.Background(), request())
		if err != nil {
			return err
		}
		<-run.Done()
		out, err := run.Outcome()
		if err == nil {
			check(path, out.Energy)
		}
		return err
	}

	// core.solve_ms: the bare engine.
	bare := func() error {
		return counted(pathSolve, &np.coreAllocs, &np.coreBytes, func() error {
			out, err := core.SolveCtx(context.Background(), request())
			if err == nil {
				check("core.solve", out.Energy)
			}
			return err
		})
	}
	// cluster.solve_ms: the coordinator over two HTTP-hosted workers.
	fabric := func() error {
		return timeInto(pathCluster, func() error {
			return clusterSolve(tp, in, np.wires, np.workerURLs, &np.cluster, check)
		})
	}
	// core.solve_traced_ms: with the sinks the daemon attaches.
	sinks := func() error {
		return timeInto(pathTraced, func() error {
			np.ring, np.red = obs.NewRing(4096), diag.New(diag.Config{})
			req := request()
			req.Tracer, req.SpanTrace, req.Diag = obs.Fanout(np.ring, np.red), true, true
			out, err := core.SolveCtx(context.Background(), req)
			if err == nil {
				check("core.solve_traced", out.Energy)
			}
			return err
		})
	}
	// runs.managed_ms, runs.journaled_ms: through the run manager.
	plain := func() error {
		return counted(pathManaged, &np.runAllocs, &np.runBytes, func() error { return managed(np.plain, "runs.managed") })
	}
	durable := func() error {
		return timeInto(pathJournaled, func() error { return managed(np.durable, "runs.journaled") })
	}
	// In-process HTTP: the full protocol without the process boundary.
	overHTTP := func() error {
		return timeInto(pathHTTP, func() error {
			r := solveOnce(np.httpT, w, in)
			verify(w, &r)
			if r.err != nil {
				return r.err
			}
			if r.verr == nil {
				check("http", r.energy)
			}
			return r.verr
		})
	}
	paths := []func() error{bare, sinks, plain, durable, overHTTP}
	if w.cluster() {
		paths = []func() error{bare, fabric, overHTTP}
	}
	// Whatever runs first in a round pays for the cold model, so the
	// starting path rotates from round to round.
	for k := range paths {
		if err := paths[(k+i)%len(paths)](); err != nil {
			return err
		}
	}
	return nil
}

// publish reports the path medians and what follows from them. rounds
// is how many rounds ran.
func (np *nestedPaths) publish(rounds int) (nestedMS, error) {
	tp, w, xs := np.tp, np.tp.w, np.xs
	ms := nestedMS{solve: median(xs[pathSolve]), traced: median(xs[pathTraced]), managed: median(xs[pathManaged]),
		journaled: median(xs[pathJournaled]), cluster: median(xs[pathCluster]), http: median(xs[pathHTTP])}
	tp.set("core.solve_ms", ms.solve, "ms")
	tp.set("core.allocs_per_solve", np.coreAllocs, "count")
	tp.set("core.bytes_per_solve", np.coreBytes, "bytes")
	if w.software() {
		updates := float64(w.N) * 200 // SA's default sweep count
		if steps, ok := w.Spec["steps"].(int); ok {
			updates = float64(w.N * steps)
		}
		tp.set("core.ns_per_spin_update", ms.solve*1e6/updates, "ns")
	}
	journalPath := filepath.Join(np.stateDir, "run.journal")
	if w.cluster() {
		tp.set("cluster.solve_ms", ms.cluster, "ms")
		tp.set("cluster.inprocess_ms", ms.solve, "ms")
		tp.set("cluster.fabric_tax", ms.cluster/ms.solve, "ratio")
		np.cluster.publish(tp, np.wires)
		journalPath = np.httpT.journal
	} else {
		tp.set("core.solve_traced_ms", ms.traced, "ms")
		tp.set("obs.sink_overhead_ms", ms.traced-ms.solve, "ms")
		tp.set("obs.events_per_solve", float64(np.ring.Total()), "count")
		snap, _ := medianOf(20, func() error { np.red.Snapshot(); return nil })
		tp.set("diag.snapshot_us", snap*1e3, "us")
		tp.set("runs.managed_ms", ms.managed, "ms")
		tp.set("runs.journaled_ms", ms.journaled, "ms")
		tp.set("runs.overhead_ms", ms.managed-ms.traced, "ms")
		tp.set("runs.allocs_per_solve", np.runAllocs, "count")
		tp.set("runs.bytes_per_solve", np.runBytes, "bytes")
	}
	recs, jbytes, err := journalPerSolve(journalPath, rounds)
	tp.set("journal.records_per_solve", recs, "count")
	tp.set("journal.bytes_per_solve", jbytes, "bytes")
	return ms, err
}

// journalPerSolve replays a journal that served solves runs and
// returns records and bytes per solve.
func journalPerSolve(path string, solves int) (records, bytes float64, err error) {
	rep, err := journal.Replay(path)
	if err != nil {
		return 0, 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	return float64(len(rep.Records)) / float64(solves), float64(st.Size()) / float64(solves), nil
}

// latticeLayer times the coupling view and its two row kernels on the
// full model, one worker.
func (tp *tracePass) latticeLayer(m *ising.Model) {
	n := m.N()
	var view lattice.Coupling
	build, _ := medianOf(5, func() error { view = m.View(lattice.Auto); return nil })
	spins := ising.RandomSpins(n, rng.New(tp.seed))
	x, out := make([]float64, n), make([]float64, n)
	for i, s := range spins {
		x[i] = float64(s)
	}
	matvec, _ := medianOf(30, func() error { lattice.MatVec(view, x, nil, out, 1); return nil })
	fields, _ := medianOf(30, func() error { lattice.Fields(view, spins, nil, out, 1); return nil })
	energy, _ := medianOf(30, func() error { m.Energy(spins); return nil })
	nnz := float64(view.NNZ())
	// Computed from the array sizes, not measured: dense streams n²
	// float64s; CSR streams a float64 value and an int column per
	// nonzero plus the row offsets. Both read x and write out.
	bytes := float64(n*n*8 + 2*n*8)
	if view.Kind() == lattice.CSR {
		bytes = nnz*16 + float64((n+1)*8+2*n*8)
	}
	tp.set("lattice.build_ms", build, "ms")
	tp.set("lattice.nnz", nnz, "count")
	tp.set("lattice.matvec_us", matvec*1e3, "us")
	tp.set("lattice.fields_us", fields*1e3, "us")
	tp.set("lattice.bytes_per_matvec", bytes, "bytes")
	tp.set("lattice.matvec_gflops", 2*nnz/(matvec*1e6), "GFLOP/s")
	tp.set("ising.energy_us", energy*1e3, "us")
}

// journalLayer times one fsync'd append of a representative record (a
// submit record carrying the workload's request) on the state
// directory's filesystem.
func (tp *tracePass) journalLayer(stateDir string, in *solveInput) error {
	p, err := decodeRequest(tp.w, in.body)
	if err != nil {
		return err
	}
	spec, err := json.Marshal(p.spec)
	if err != nil {
		return err
	}
	jw, err := journal.Open(filepath.Join(stateDir, "append.journal"), nil)
	if err != nil {
		return err
	}
	defer jw.Close()
	ms, err := medianOf(30, func() error {
		return jw.Append(journal.Record{Type: journal.TypeSubmit, ID: "run-1", Spec: spec})
	})
	tp.set("journal.append_us_p50", ms*1e3, "us")
	return err
}

// cancelAt cancels a run at the first epoch barrier at or past epoch.
type cancelAt struct {
	epoch  int
	cancel context.CancelFunc
}

func (c cancelAt) Emit(e obs.Event) {
	if e.Kind == obs.EpochSync && e.Epoch >= c.epoch {
		c.cancel()
	}
}

// multichipLayer times the multiprocessor's public entry points on one
// instance: construction, the concurrent run (sequential and with host
// parallelism), batch mode on the headline workload, and the
// checkpoint envelope of a mid-run cancel.
func (tp *tracePass) multichipLayer(in *solveInput) error {
	w, m := tp.w, in.inst.m
	d := w.durationNS()
	cfg := w.multichipConfig(in.seed)
	var sys *multichip.System
	newSystem := func() (err error) { sys, err = multichip.NewSystem(m, cfg); return }
	build, err := medianOf(3, newSystem)
	if err != nil {
		return err
	}
	tp.set("multichip.new_system_ms", build, "ms")

	var res *multichip.Result
	var seq, par []float64
	var mallocs, bytes float64
	for i := 0; i < 3; i++ {
		for _, parallel := range []bool{false, true} {
			cfg.Parallel = parallel
			if err := newSystem(); err != nil {
				return err
			}
			var ms float64
			run := func() (err error) {
				ms, err = timeMS(func() error { res = sys.RunConcurrent(d); return nil })
				return
			}
			if parallel {
				run()
				par = append(par, ms)
			} else {
				mallocs, bytes, _ = allocDelta(run)
				seq = append(seq, ms)
			}
		}
	}
	cfg.Parallel = false
	epochs := float64(res.Epochs)
	tp.set("multichip.run_concurrent_ms", median(seq), "ms")
	tp.set("multichip.parallel_speedup", median(seq)/median(par), "ratio")
	tp.set("multichip.host_ms_per_model_ns", median(seq)/d, "ms/ns")
	tp.set("multichip.epochs", epochs, "count")
	tp.set("multichip.flips", float64(res.Flips), "count")
	tp.set("multichip.bit_changes", float64(res.BitChanges), "count")
	tp.set("multichip.allocs_per_epoch", mallocs/epochs, "count")
	tp.set("multichip.bytes_per_epoch", bytes/epochs, "bytes")
	tp.set("interconnect.traffic_bytes", res.TrafficBytes, "bytes")
	tp.set("interconnect.stall_ns", res.StallNS, "ns")
	tp.set("interconnect.peak_demand_bytes_per_ns", res.PeakDemandBytesPerNS, "B/ns")

	if w.Name == "k256_mbrim4" {
		// Batch mode, the paper's second operating mode: one job per chip.
		batch, err := medianOf(2, func() error {
			if err := newSystem(); err != nil {
				return err
			}
			sys.RunBatch(w.chips(), d)
			return nil
		})
		if err != nil {
			return err
		}
		tp.set("multichip.run_batch_ms", batch, "ms")
	}

	// The checkpoint envelope of a cancel halfway through the run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Tracer = cancelAt{epoch: res.Epochs / 2, cancel: cancel}
	if err := newSystem(); err != nil {
		return err
	}
	_, ck, err := sys.RunConcurrentCtx(ctx, d, nil)
	if ck == nil {
		return fmt.Errorf("%s: mid-run cancel produced no checkpoint (%v)", w.Name, err)
	}
	file := &checkpoint.File{Engine: string(core.MBRIMConcurrent), Seed: in.seed, N: m.N(),
		ModelHash: checkpoint.HashModel(m), Multichip: ck}
	var data []byte
	enc, err := medianOf(3, func() (err error) { data, err = checkpoint.Encode(file); return })
	if err != nil {
		return err
	}
	dec, err := medianOf(3, func() error { _, err := checkpoint.Decode(data); return err })
	if err != nil {
		return err
	}
	tp.set("checkpoint.encode_ms", enc, "ms")
	tp.set("checkpoint.decode_ms", dec, "ms")
	tp.set("checkpoint.bytes", float64(len(data)), "bytes")
	return nil
}
