package runs

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mbrim/internal/checkpoint"
	"mbrim/internal/core"
	"mbrim/internal/journal"
	"mbrim/internal/obs"
)

// durableManager builds a Manager journaling into dir, returning the
// manager and its open journal writer.
func durableManager(t *testing.T, dir string, reg *obs.Registry, every time.Duration) (*Manager, *journal.Writer) {
	t.Helper()
	jw, err := journal.Open(filepath.Join(dir, "run.journal"), reg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Registry: reg, Journal: jw, StateDir: dir, CheckpointEvery: every})
	return m, jw
}

// outcomesMatch asserts bit-identity of the fields the crash-recovery
// contract pins: energy (exact bits), flips, and the full spin state.
func outcomesMatch(t *testing.T, label string, got, want *core.Outcome) {
	t.Helper()
	if math.Float64bits(got.Energy) != math.Float64bits(want.Energy) {
		t.Fatalf("%s: energy %x != %x (%v vs %v)", label,
			math.Float64bits(got.Energy), math.Float64bits(want.Energy), got.Energy, want.Energy)
	}
	if got.Stats["flips"] != want.Stats["flips"] {
		t.Fatalf("%s: flips %v != %v", label, got.Stats["flips"], want.Stats["flips"])
	}
	if len(got.Spins) != len(want.Spins) {
		t.Fatalf("%s: %d spins != %d", label, len(got.Spins), len(want.Spins))
	}
	for i := range got.Spins {
		if got.Spins[i] != want.Spins[i] {
			t.Fatalf("%s: spin %d differs", label, i)
		}
	}
}

func TestJournalWriteThrough(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m, jw := durableManager(t, dir, reg, 0)

	sr := SubmitRequest{Engine: "sa", K: 12, Seed: 1, Sweeps: 5}
	spec, _ := json.Marshal(&sr)
	req, err := m.buildRequest(&sr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.SubmitWith(context.Background(), req, SubmitOptions{Priority: 2, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, r)
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := journal.Replay(filepath.Join(dir, "run.journal"))
	if err != nil || rep.Torn {
		t.Fatalf("replay: %v torn=%v", err, rep.Torn)
	}
	if len(rep.Records) != 2 {
		t.Fatalf("journal = %d records, want submit/terminal", len(rep.Records))
	}
	sub, term := rep.Records[0], rep.Records[1]
	if sub.Type != journal.TypeSubmit || sub.ID != "run-1" || sub.Priority != 2 || len(sub.Spec) == 0 {
		t.Fatalf("submit record = %+v", sub)
	}
	if term.Type != journal.TypeTerminal || term.State != string(StateCompleted) || len(term.Summary) == 0 {
		t.Fatalf("terminal record = %+v", term)
	}
	var sum OutcomeSummary
	if err := json.Unmarshal(term.Summary, &sum); err != nil || sum.Spins != 12 {
		t.Fatalf("terminal summary = %s (%v)", term.Summary, err)
	}
	// The journal keeps the very summary GET /runs/{id} serves.
	if served, _ := json.Marshal(r.Status().Outcome); string(served) != string(term.Summary) {
		t.Fatalf("journaled summary %s, served %s", term.Summary, served)
	}
}

// TestSegmentedCheckpointBitIdentity pins the keystone property behind
// crash recovery: running a multichip solve in checkpoint segments is
// invisible in the outcome — bit-identical energy, ledgers and spins
// versus the same request solved in one unbroken pass.
func TestSegmentedCheckpointBitIdentity(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m, jw := durableManager(t, dir, reg, 50*time.Millisecond)
	defer jw.Close()

	sr := SubmitRequest{Engine: "mbrim-seq", K: 20, Seed: 3, Chips: 4, DurationNS: 10000}
	req, err := m.buildRequest(&sr)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(&sr)
	r, err := m.SubmitWith(context.Background(), req, SubmitOptions{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, r)
	out, err := r.Outcome()
	if err != nil || out == nil {
		t.Fatalf("outcome: %v, %v", out, err)
	}
	if n := reg.Snapshot().Counters["runs.checkpoints_persisted_total"]; n < 1 {
		t.Fatalf("no checkpoints persisted — the segmentation never engaged (%d)", n)
	}

	refReq, err := m.buildRequest(&sr)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Solve(refReq)
	if err != nil {
		t.Fatal(err)
	}
	outcomesMatch(t, "segmented vs unbroken", out, ref)
}

// TestCrashReplayBitIdentity simulates a daemon crash mid-run: the
// journal stops cold (no terminal record), the run dies, and a fresh
// manager replays the journal, resumes run-1 from its last durable
// checkpoint, and must land on the exact outcome of a run that never
// crashed. The journaled spec is one an older daemon wrote, "backend"
// and all: POST /runs refuses the field now, replay must not — it
// decodes leniently, and every layout was the same trajectory anyway.
func TestCrashReplayBitIdentity(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m1, jw1 := durableManager(t, dir, reg, 50*time.Millisecond)

	spec := []byte(`{"engine":"mbrim-seq","k":20,"seed":3,"durationNS":10000,"chips":4,"backend":"dense"}`)
	var sr SubmitRequest
	if err := json.Unmarshal(spec, &sr); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSubmit(spec); err == nil {
		t.Fatal("the submit decoder accepted a backend field")
	}
	req, err := m1.buildRequest(&sr)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := m1.SubmitWith(context.Background(), req, SubmitOptions{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	// Let at least two checkpoints land so the crash loses real
	// progress, then "crash": the journal closes first (nothing more can
	// be recorded, exactly like kill -9), then the run dies.
	deadline := time.Now().Add(20 * time.Second)
	for reg.Snapshot().Counters["runs.checkpoints_persisted_total"] < 2 {
		select {
		case <-r1.Done():
			t.Fatal("run finished before two checkpoints; raise durationNS")
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoints persisted in 20s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	jw1.Close()
	r1.Cancel()
	waitDone(t, r1)

	// Restart: replay the surviving journal into a fresh manager.
	rep, err := journal.Replay(filepath.Join(dir, "run.journal"))
	if err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	m2, jw2 := durableManager(t, dir, reg2, 50*time.Millisecond)
	defer jw2.Close()
	sum := m2.Recover(rep.Records)
	if sum.Resumed != 1 || sum.Tombstones != 0 || sum.Unrecoverable != 0 {
		t.Fatalf("recover summary = %+v, want exactly one resumed run", sum)
	}
	r2, ok := m2.Get("run-1")
	if !ok {
		t.Fatal("replay lost run-1")
	}
	waitDone(t, r2)
	out, err := r2.Outcome()
	if err != nil || out == nil {
		t.Fatalf("resumed outcome: %v, %v", out, err)
	}
	if st := r2.Status(); st.Restarts < 1 {
		t.Fatalf("resumed run reports %d restarts, want >= 1", st.Restarts)
	}

	// The resumed run's ID counter moved past run-1.
	next, err := m2.SubmitWith(context.Background(), saRequest(8), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID() != "run-2" {
		t.Fatalf("post-replay ID = %s, want run-2", next.ID())
	}
	waitDone(t, next)

	refReq, err := m2.buildRequest(&sr)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Solve(refReq)
	if err != nil {
		t.Fatal(err)
	}
	outcomesMatch(t, "crash-resumed vs uninterrupted", out, ref)
}

// TestRecoverTombstones covers the replay state machine's other arms:
// terminal runs come back as queryable tombstones, crashed
// seed-deterministic runs restart from scratch, and journal garbage
// surfaces as failed tombstones instead of vanishing.
func TestRecoverTombstones(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Config{Registry: reg})
	sum := m.Recover([]journal.Record{
		{Type: journal.TypeSubmit, ID: "run-1", WallNS: 100,
			Spec: json.RawMessage(`{"engine":"sa","k":8,"sweeps":5}`)},
		{Type: journal.TypeStart, ID: "run-1", WallNS: 200},
		{Type: journal.TypeTerminal, ID: "run-1", WallNS: 300, State: "completed",
			Summary: json.RawMessage(`{"energy":-12.5,"spins":8}`)},
		// run-2 crashed mid-flight; sa has no checkpoints, so replay
		// restarts it from scratch (seed-deterministic outcome).
		{Type: journal.TypeSubmit, ID: "run-2", WallNS: 400,
			Spec: json.RawMessage(`{"engine":"sa","k":8,"seed":1,"sweeps":5}`)},
		{Type: journal.TypeStart, ID: "run-2", WallNS: 500},
		// run-3 crashed with no spec: unrecoverable, but not forgotten.
		{Type: journal.TypeStart, ID: "run-3", WallNS: 600},
		// Cluster-scoped records are not this manager's business.
		{Type: journal.TypeSubmit, ID: "cr-1", Scope: journal.ScopeCluster},
	})
	if sum.Tombstones != 1 || sum.Restarted != 1 || sum.Unrecoverable != 1 || sum.Resumed != 0 {
		t.Fatalf("recover summary = %+v", sum)
	}

	r1, ok := m.Get("run-1")
	if !ok {
		t.Fatal("tombstone run-1 missing")
	}
	st := r1.Status()
	if st.State != StateCompleted || st.Engine != "sa" {
		t.Fatalf("tombstone status = %+v", st)
	}
	if st.Outcome == nil || st.Outcome.Energy != -12.5 || st.Outcome.Spins != 8 {
		t.Fatalf("tombstone summary = %+v", st.Outcome)
	}

	r2, ok := m.Get("run-2")
	if !ok {
		t.Fatal("restarted run-2 missing")
	}
	waitDone(t, r2)
	out2, err := r2.Outcome()
	if err != nil || out2 == nil {
		t.Fatalf("restarted outcome: %v, %v", out2, err)
	}
	refReq, err := m.buildRequest(&SubmitRequest{Engine: "sa", K: 8, Seed: 1, Sweeps: 5})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Solve(refReq)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(out2.Energy) != math.Float64bits(ref.Energy) {
		t.Fatalf("scratch restart drifted: %v vs %v", out2.Energy, ref.Energy)
	}

	r3, ok := m.Get("run-3")
	if !ok {
		t.Fatal("unrecoverable run-3 missing")
	}
	if st := r3.Status(); st.State != StateFailed {
		t.Fatalf("run-3 state = %s, want failed", st.State)
	}
	if _, err := r3.Outcome(); err == nil || !strings.Contains(err.Error(), "not replayable") {
		t.Fatalf("run-3 error = %v", err)
	}
	if _, ok := m.Get("cr-1"); ok {
		t.Fatal("cluster-scoped record leaked into the runs table")
	}

	// The restored sequence continues past the journaled IDs.
	next, err := m.SubmitWith(context.Background(), saRequest(8), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID() != "run-4" {
		t.Fatalf("next ID = %s, want run-4", next.ID())
	}
	waitDone(t, next)
}

// TestReplayParentEdgeListSpec replays a spec as the previous daemon
// journaled it — encoding/json's re-marshal of the request, an edge
// list with fractional, exponent and 17-digit weights included. The
// crashed run restarts on the same edges, bit for bit, and the terminal
// one comes back naming its engine and seed.
func TestReplayParentEdgeListSpec(t *testing.T) {
	spec := json.RawMessage(`{"engine":"sa","n":5,"edges":[[1,2,1],[2,3,-0.25],[3,4,1e-7],[4,5,3.5],[5,1,-1],` +
		`[1,3,12345678901234568]],"seed":3,"sweeps":20}`)
	want := SubmitRequest{Engine: "sa", N: 5, Seed: 3, Sweeps: 20, Edges: EdgeList{
		{1, 2, 1}, {2, 3, -0.25}, {3, 4, 1e-7}, {4, 5, 3.5}, {5, 1, -1}, {1, 3, 12345678901234568}}}
	var sr SubmitRequest
	if err := json.Unmarshal(spec, &sr); err != nil || !reflect.DeepEqual(sr, want) {
		t.Fatalf("the parent's spec reads as %+v (%v), want %+v", sr, err, want)
	}
	m := NewManager(Config{Registry: obs.NewRegistry()})
	sum := m.Recover([]journal.Record{
		{Type: journal.TypeSubmit, ID: "run-1", WallNS: 100, Spec: spec},
		{Type: journal.TypeStart, ID: "run-1", WallNS: 200},
		{Type: journal.TypeSubmit, ID: "run-2", WallNS: 300, Spec: spec},
		{Type: journal.TypeTerminal, ID: "run-2", WallNS: 400, State: "completed"},
	})
	if sum.Restarted != 1 || sum.Tombstones != 1 || sum.Resumed != 0 || sum.Unrecoverable != 0 {
		t.Fatalf("recover summary = %+v, want one restart and one tombstone", sum)
	}
	r1, _ := m.Get("run-1")
	waitDone(t, r1)
	out, err := r1.Outcome()
	if err != nil {
		t.Fatal(err)
	}
	refReq, err := m.buildRequest(&want)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Solve(refReq)
	if err != nil {
		t.Fatal(err)
	}
	outcomesMatch(t, "replayed parent spec vs its request", out, ref)
	r2, _ := m.Get("run-2")
	if st := r2.Status(); st.Engine != "sa" || st.Seed != 3 {
		t.Fatalf("tombstone names engine %q seed %d, want sa 3", st.Engine, st.Seed)
	}
}

// panicOnce is a Tracer that panics on its nth Emit, exactly once —
// injected through Request.Tracer it detonates inside the engine, where
// core.SolveCtx's recover converts it to *core.PanicError.
type panicOnce struct {
	after int64
	seen  atomic.Int64
	fired atomic.Bool
}

func (p *panicOnce) Emit(e obs.Event) {
	if p.fired.Load() {
		return
	}
	if p.seen.Add(1) > p.after && p.fired.CompareAndSwap(false, true) {
		panic("injected tracer fault")
	}
}

func TestPanicRestartOnce(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m, jw := durableManager(t, dir, reg, 50*time.Millisecond)
	defer jw.Close()

	sr := SubmitRequest{Engine: "mbrim-seq", K: 20, Seed: 3, Chips: 4, DurationNS: 4000}
	req, err := m.buildRequest(&sr)
	if err != nil {
		t.Fatal(err)
	}
	req.Tracer = &panicOnce{after: 40}
	spec, _ := json.Marshal(&sr)
	r, err := m.SubmitWith(context.Background(), req, SubmitOptions{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, r)
	st := r.Status()
	if st.State != StateCompleted {
		t.Fatalf("state = %s, want completed after one supervised restart", st.State)
	}
	if st.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", st.Restarts)
	}
	if n := reg.Snapshot().Counters["runs.restarts_total"]; n != 1 {
		t.Fatalf("runs.restarts_total = %d, want 1", n)
	}
	// The restart is on the journal.
	jw.Close()
	rep, err := journal.Replay(filepath.Join(dir, "run.journal"))
	if err != nil {
		t.Fatal(err)
	}
	sawRestart := false
	for _, rec := range rep.Records {
		if rec.Type == journal.TypeRestart && rec.ID == r.ID() {
			sawRestart = true
		}
	}
	if !sawRestart {
		t.Fatal("no restart record journaled")
	}

	// Restart-once means once: a run that panics deterministically on
	// every attempt fails instead of looping.
	req2, _ := m.buildRequest(&sr)
	req2.Tracer = &alwaysPanic{}
	r2, err := m.SubmitWith(context.Background(), req2, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, r2)
	if st := r2.Status(); st.State != StateFailed {
		t.Fatalf("deterministic panicker state = %s, want failed", st.State)
	}
}

type alwaysPanic struct{}

func (alwaysPanic) Emit(obs.Event) { panic("deterministic fault") }

// segmentProbe is a registered engine that only watches how it is run:
// an unresumed call works until it is cancelled (handing back a
// checkpoint) or 150 ms pass; a call resumed from that checkpoint
// finishes at once. A faulty probe's second and third calls hand back
// no checkpoint when cancelled — a bare context error, then an
// interrupt with empty bytes — and its fourth sends the resume bytes
// it received on held and finishes once released.
type segmentProbe struct {
	kind           core.Kind
	resume, faulty bool
	calls, resumed *atomic.Int64
	held           chan []byte
	release        chan struct{}
}

func (e segmentProbe) Kind() core.Kind { return e.kind }
func (e segmentProbe) Capabilities() core.Capabilities {
	return core.Capabilities{Resume: e.resume, Description: "test probe"}
}

func (e segmentProbe) Solve(ctx context.Context, r *core.Request) (*core.Outcome, error) {
	call := e.calls.Add(1)
	start := time.Now()
	out := r.NewOutcome()
	out.Spins = make([]int8, r.Model.N())
	for i := range out.Spins {
		out.Spins[i] = 1
	}
	switch {
	case e.faulty && call == 2:
		<-ctx.Done()
		return nil, ctx.Err()
	case e.faulty && call == 3:
		<-ctx.Done()
		return r.Interrupted(out, start, ctx.Err(), []byte{})
	case e.faulty && call > 3:
		e.held <- r.Resume
		<-e.release
	case len(r.Resume) > 0:
		e.resumed.Add(1)
	default:
		select {
		case <-ctx.Done():
			return r.Interrupted(out, start, ctx.Err(), []byte("probe checkpoint"))
		case <-time.After(150 * time.Millisecond):
		}
	}
	r.Finish(out, start)
	return out, nil
}

// segmentProbes are registered once per test binary (a registry entry
// cannot be taken back, and -cpu 1,4 runs every test twice): one with
// the Resume capability, one without, and a faulty one.
var segmentProbes = func() (ps [3]segmentProbe) {
	for i, resume := range []bool{true, false, true} {
		ps[i] = segmentProbe{kind: core.Kind(fmt.Sprintf("probe-resume-%v", resume)), resume: resume,
			calls: new(atomic.Int64), resumed: new(atomic.Int64)}
	}
	ps[2].kind, ps[2].faulty = "probe-faulty", true
	ps[2].held, ps[2].release = make(chan []byte), make(chan struct{})
	for _, p := range ps {
		core.Register(p)
	}
	return ps
}()

// TestSegmentationFollowsTheResumeCapability: periodic durable
// checkpoints are a property of the registry's Resume capability, not
// of a list of engine names — an engine that declares it is run in
// segments (cancelled at the cadence, its checkpoint persisted, resumed
// in place), one that does not is left alone. The list used to name the
// three mbrim kinds, so a fourth resumable engine was never segmented.
func TestSegmentationFollowsTheResumeCapability(t *testing.T) {
	for _, probe := range segmentProbes[:2] {
		resume := probe.resume
		probe.calls.Store(0)
		probe.resumed.Store(0)
		reg := obs.NewRegistry()
		m, jw := durableManager(t, t.TempDir(), reg, 30*time.Millisecond)
		req := saRequest(8)
		req.Kind = probe.kind
		r, err := m.SubmitWith(context.Background(), req, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, r)
		jw.Close()
		if st := r.Status(); st.State != StateCompleted {
			t.Fatalf("resume=%v: run ended %s: %s", resume, st.State, st.Error)
		}
		persisted := reg.Snapshot().Counters["runs.checkpoints_persisted_total"]
		calls, resumed := probe.calls.Load(), probe.resumed.Load()
		if resume && (calls != 2 || resumed != 1 || persisted != 1) {
			t.Errorf("Resume engine: %d calls, %d resumed, %d checkpoints persisted; want 2, 1, 1", calls, resumed, persisted)
		}
		if !resume && (calls != 1 || resumed != 0 || persisted != 0) {
			t.Errorf("engine without Resume: %d calls, %d resumed, %d checkpoints persisted; want 1, 0, 0", calls, resumed, persisted)
		}
	}
}

// TestSegmentWithoutCheckpointKeepsTheLastGoodOne: a checkpoint segment
// that hands back no checkpoint — a bare context error, or an interrupt
// with empty bytes — made no progress. The run persists nothing for it
// and resumes from the last good checkpoint, which the journal's newest
// ref still loads. The bare error used to fail the run; the empty bytes
// were persisted, deleting the good file, and the next segment started
// from model time 0.
func TestSegmentWithoutCheckpointKeepsTheLastGoodOne(t *testing.T) {
	probe := segmentProbes[2]
	probe.calls.Store(0)
	dir := t.TempDir()
	m, jw := durableManager(t, dir, obs.NewRegistry(), 20*time.Millisecond)
	defer jw.Close()
	req := saRequest(8)
	req.Kind = probe.kind
	r, err := m.SubmitWith(context.Background(), req, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var resumedFrom []byte
	select {
	case resumedFrom = <-probe.held:
	case <-r.Done():
		st := r.Status()
		t.Fatalf("run ended %s before its fourth segment: %s", st.State, st.Error)
	}
	rep, err := journal.Replay(filepath.Join(dir, "run.journal"))
	if err != nil {
		t.Fatal(err)
	}
	var newest *checkpoint.Ref
	for _, rec := range rep.Records {
		if rec.Type == journal.TypeCheckpoint && rec.ID == r.ID() {
			newest = rec.Checkpoint
		}
	}
	if newest == nil {
		t.Error("no checkpoint journaled")
	} else if data, err := newest.Load(m.checkpointDir()); err != nil || len(data) == 0 {
		t.Errorf("the newest checkpoint ref loads %d bytes, err %v; want the last good checkpoint", len(data), err)
	}
	probe.release <- struct{}{}
	waitDone(t, r)
	if st := r.Status(); st.State != StateCompleted {
		t.Fatalf("run ended %s: %s", st.State, st.Error)
	}
	if string(resumedFrom) != "probe checkpoint" {
		t.Errorf("the fourth segment resumed from %q, want the first segment's checkpoint", resumedFrom)
	}
}
