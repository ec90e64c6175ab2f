package runs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mbrim/internal/checkpoint"
	"mbrim/internal/core"
	"mbrim/internal/diag"
	"mbrim/internal/journal"
	"mbrim/internal/obs"
)

// This file is the durability layer: write-through journaling of every
// run transition, periodic durable checkpoints for the checkpointable
// engines, restart-once panic supervision, and the replay pass that
// reconstructs the run table after a daemon restart.
//
// The crash-recovery contract leans entirely on PR 3's bit-identity
// guarantee: a multichip solve resumed from a checkpoint produces the
// same trajectory, ledgers included, as one that was never stopped. So
// periodic persistence runs the solve in segments — cancel at the
// checkpoint cadence, persist the InterruptedError's envelope, resume
// in place — and a kill -9 at any instant loses at most one segment of
// wall time, never a bit of the final outcome. Engines without
// checkpoints (sa, tabu, ...) are seed-deterministic: replay restarts
// them from scratch and lands on the same answer.

// minCheckpointEvery floors the periodic-checkpoint cadence: below
// this, fsync time would rival solve time and a segment might not span
// a single engine epoch.
const minCheckpointEvery = 20 * time.Millisecond

// durable reports whether run state persists across restarts.
func (m *Manager) durable() bool { return m.cfg.Journal != nil && m.cfg.StateDir != "" }

// checkpointDir is where periodic checkpoint files live, beside the
// journal inside StateDir.
func (m *Manager) checkpointDir() string { return filepath.Join(m.cfg.StateDir, "checkpoints") }

// initStateDir creates the checkpoint directory; called by NewManager.
func (m *Manager) initStateDir() {
	if m.durable() {
		_ = os.MkdirAll(m.checkpointDir(), 0o755)
	}
}

// journalAppend writes rec through the journal, if one is configured.
// Append failures are counted, not fatal: a daemon with a full disk
// keeps solving, it just loses durability (the append-error counter is
// the alert).
func (m *Manager) journalAppend(rec journal.Record) {
	if m.cfg.Journal == nil {
		return
	}
	if err := m.cfg.Journal.Append(rec); err != nil {
		m.reg.Counter("journal.append_errors_total").Inc()
	}
}

// journalTerminal records a run's final state, error and outcome
// summary.
func (m *Manager) journalTerminal(r *Run, state State) {
	if m.cfg.Journal == nil {
		return
	}
	rec := journal.Record{Type: journal.TypeTerminal, ID: r.id, State: string(state)}
	r.mu.Lock()
	if r.err != nil {
		rec.Error = r.err.Error()
	}
	if r.outcome != nil {
		if data, err := json.Marshal(summarize(r.outcome)); err == nil {
			rec.Summary = data
		}
	}
	r.mu.Unlock()
	m.journalAppend(rec)
}

// persistCheckpoint atomically writes data as a fresh, uniquely named
// checkpoint file and journals its ref. Files are immutable once
// journaled — the previous one is deleted only after the new ref is
// durably on the log, so the journal's newest intact ref always points
// at bytes that still exist and still hash. (A crash between journal
// append and delete leaves one stale file behind; harmless.)
func (m *Manager) persistCheckpoint(r *Run, data []byte) {
	r.mu.Lock()
	r.ckptSeq++
	name := fmt.Sprintf("%s.%d.ckpt", r.id, r.ckptSeq)
	prev := r.lastRef
	r.mu.Unlock()
	ref, err := checkpoint.WriteRef(m.checkpointDir(), name, data)
	if err != nil {
		m.reg.Counter("journal.checkpoint_errors_total").Inc()
		return
	}
	r.mu.Lock()
	r.lastRef = &ref
	r.mu.Unlock()
	jerr := error(nil)
	if m.cfg.Journal != nil {
		if jerr = m.cfg.Journal.Append(journal.Record{
			Type: journal.TypeCheckpoint, ID: r.id, Checkpoint: &ref,
		}); jerr != nil {
			m.reg.Counter("journal.append_errors_total").Inc()
		}
	}
	m.reg.Counter("runs.checkpoints_persisted_total").Inc()
	if jerr == nil && prev != nil && prev.Name != ref.Name {
		_ = os.Remove(filepath.Join(m.checkpointDir(), prev.Name))
	}
}

// dropCheckpointFile deletes a completed run's last checkpoint file —
// the terminal record is journaled, so nothing will ever resume from
// it, and a torn-tail replay that misses the terminal record falls
// back to a scratch restart (same outcome by seed determinism).
func (m *Manager) dropCheckpointFile(r *Run) {
	if !m.durable() {
		return
	}
	r.mu.Lock()
	ref := r.lastRef
	r.lastRef = nil
	r.mu.Unlock()
	if ref != nil {
		_ = os.Remove(filepath.Join(m.checkpointDir(), ref.Name))
	}
}

// checkpointable reports whether the engine resumes from the checkpoint
// its InterruptedError carries — the registry's Resume capability, so an
// engine that declares it is segmented without being named here.
func checkpointable(kind core.Kind) bool {
	caps, _ := core.EngineCaps(kind)
	return caps.Resume
}

// supervisedSolve adds restart-once supervision over the segmented
// solve: an engine panic (already converted to *core.PanicError at the
// SolveCtx boundary) gets one supervised restart, resuming from the
// last durable checkpoint when one exists. A second panic fails the
// run — restart loops on a deterministic panic would burn the slot
// forever.
func (m *Manager) supervisedSolve(ctx context.Context, r *Run, req core.Request) (*core.Outcome, error) {
	out, err := m.checkpointedSolve(ctx, r, req)
	var pe *core.PanicError
	if err == nil || !errors.As(err, &pe) || ctx.Err() != nil {
		return out, err
	}
	r.mu.Lock()
	r.restarts++
	ref := r.lastRef
	r.mu.Unlock()
	m.reg.Counter("runs.restarts_total").Inc()
	reason := err.Error()
	if i := strings.IndexByte(reason, '\n'); i > 0 {
		reason = reason[:i]
	}
	m.journalAppend(journal.Record{Type: journal.TypeRestart, ID: r.id, Reason: reason})
	if ref != nil {
		if data, lerr := ref.Load(m.checkpointDir()); lerr == nil {
			req.Resume = data
		}
	}
	return m.checkpointedSolve(ctx, r, req)
}

// checkpointedSolve runs the solve with periodic durable checkpoints:
// each CheckpointEvery, the segment's context is cancelled, the
// resulting interrupt checkpoint is persisted, and the solve resumes
// from it in place. Bit-identity of resume (PR 3) makes the
// segmentation invisible in the outcome. Without durability, a
// cadence, or a checkpointable engine this is exactly core.SolveCtx.
func (m *Manager) checkpointedSolve(ctx context.Context, r *Run, req core.Request) (*core.Outcome, error) {
	every := m.cfg.CheckpointEvery
	if !m.durable() || every <= 0 || !checkpointable(req.Kind) {
		return core.SolveCtx(ctx, req)
	}
	if every < minCheckpointEvery {
		every = minCheckpointEvery
	}
	prev := req.Resume
	for {
		segCtx, segCancel := context.WithCancel(ctx)
		var fired atomic.Bool
		timer := time.AfterFunc(every, func() {
			fired.Store(true)
			segCancel()
		})
		out, err := core.SolveCtx(segCtx, req)
		timer.Stop()
		segCancel()
		if err == nil || !fired.Load() || ctx.Err() != nil || !errors.Is(err, context.Canceled) {
			// Finished, failed, or interrupted by the caller rather than
			// the checkpoint timer: surface as-is (finish persists an
			// interrupt's checkpoint).
			return out, err
		}
		// Timer-driven segment boundary: persist, then resume in place.
		var intr *core.InterruptedError
		if !errors.As(err, &intr) || len(intr.Checkpoint) == 0 || bytes.Equal(prev, intr.Checkpoint) {
			// The segment made no progress: it handed back no checkpoint,
			// or the one it started from (shorter than one engine epoch).
			// Keep the last good one, resume from it, and widen the
			// cadence so the loop cannot livelock.
			every *= 2
			continue
		}
		m.persistCheckpoint(r, intr.Checkpoint)
		prev = intr.Checkpoint
		req.Resume = intr.Checkpoint
	}
}

// RecoverSummary reports what a journal replay reconstructed.
type RecoverSummary struct {
	// Tombstones are terminal runs restored with their recorded
	// summaries (checkpoints, for interrupts, stay downloadable).
	Tombstones int
	// Resumed runs were mid-flight at the crash and re-admitted from
	// their last durable checkpoint.
	Resumed int
	// Restarted runs were mid-flight with no usable checkpoint and
	// re-admitted from scratch (seed determinism preserves outcomes).
	Restarted int
	// Unrecoverable runs could not be reconstructed (no spec, an
	// unbuildable spec, or an expired deadline); they resurface as
	// failed tombstones so their IDs are not silently forgotten.
	Unrecoverable int
}

// replayState is one run's journal records folded in order.
type replayState struct {
	spec       json.RawMessage
	priority   int
	deadlineNS int64
	submitNS   int64
	ref        *checkpoint.Ref
	terminal   *journal.Record
	restarts   int
}

// Recover reconstructs the run table from journal records — the replay
// pass the daemon runs (gate closed) before accepting traffic.
// Terminal runs come back as queryable tombstones; mid-flight runs are
// re-admitted under their original IDs through the normal admission
// path (so a restart storm still respects MaxActive) and resume from
// their last durable checkpoint. Records an older daemon wrote under
// journal.ScopeCluster are skipped: they are not runs of this table.
func (m *Manager) Recover(recs []journal.Record) RecoverSummary {
	var order []string
	states := map[string]*replayState{}
	maxSeq := 0
	for i := range recs {
		rec := &recs[i]
		if rec.Scope == journal.ScopeCluster {
			continue
		}
		s := states[rec.ID]
		if s == nil {
			s = &replayState{}
			states[rec.ID] = s
			order = append(order, rec.ID)
			if n, ok := runSeq(rec.ID); ok && n > maxSeq {
				maxSeq = n
			}
		}
		switch rec.Type {
		case journal.TypeSubmit:
			s.spec = rec.Spec
			s.priority = rec.Priority
			s.deadlineNS = rec.DeadlineWallNS
			s.submitNS = rec.WallNS
		case journal.TypeCheckpoint:
			s.ref = rec.Checkpoint
		case journal.TypeRestart:
			s.restarts++
		case journal.TypeTerminal:
			s.terminal = rec
		}
	}
	m.mu.Lock()
	if maxSeq > m.seq {
		m.seq = maxSeq
	}
	m.mu.Unlock()

	var sum RecoverSummary
	for _, id := range order {
		s := states[id]
		if s.terminal != nil {
			m.restoreTombstone(id, s)
			sum.Tombstones++
			continue
		}
		switch m.resumeCrashed(id, s) {
		case resumedFromCheckpoint:
			sum.Resumed++
		case restartedFromScratch:
			sum.Restarted++
		default:
			sum.Unrecoverable++
		}
	}
	return sum
}

// runSeq parses "run-N" IDs so replay can restore the ID counter.
func runSeq(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "run-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

type resumeResult int

const (
	unrecoverable resumeResult = iota
	resumedFromCheckpoint
	restartedFromScratch
)

// resumeCrashed re-admits a run that was mid-flight at the crash.
func (m *Manager) resumeCrashed(id string, s *replayState) resumeResult {
	fail := func(msg string) resumeResult {
		m.tombstone(id, s, StateFailed, msg, nil)
		return unrecoverable
	}
	if len(s.spec) == 0 {
		return fail("runs: crashed run recorded no spec; not replayable")
	}
	var sr SubmitRequest
	if err := json.Unmarshal(s.spec, &sr); err != nil {
		return fail(fmt.Sprintf("runs: crashed run spec unreadable: %v", err))
	}
	req, err := m.buildRequest(&sr)
	if err != nil {
		return fail(fmt.Sprintf("runs: crashed run spec no longer builds: %v", err))
	}
	var deadline time.Time
	if s.deadlineNS > 0 {
		deadline = time.Unix(0, s.deadlineNS)
		if !time.Now().Before(deadline) {
			m.reg.Counter("runs.shed_total").Inc()
			return fail("runs: deadline expired during daemon restart")
		}
	}
	result := restartedFromScratch
	if s.ref != nil {
		if data, lerr := s.ref.Load(m.checkpointDir()); lerr == nil {
			req.Resume = data
			result = resumedFromCheckpoint
		} else {
			// Fall back to scratch: seed determinism still lands on the
			// same outcome, the work is just redone.
			m.reg.Counter("journal.checkpoint_load_errors_total").Inc()
		}
	}
	m.journalAppend(journal.Record{Type: journal.TypeRestart, ID: id, Reason: "replay"})
	opts := SubmitOptions{Priority: s.priority, Deadline: deadline, Spec: s.spec, restarts: s.restarts + 1}
	if _, err := m.admit(nil, id, req, opts, true); err != nil {
		return fail(fmt.Sprintf("runs: replay admission: %v", err))
	}
	return result
}

// restoreTombstone registers a terminal run recovered from the
// journal: status, error and summary are queryable again, and an
// interrupt's checkpoint is downloadable if its file survived.
func (m *Manager) restoreTombstone(id string, s *replayState) {
	state := State(s.terminal.State)
	switch state {
	case StateCompleted, StateInterrupted, StateFailed:
	default:
		state = StateFailed
	}
	var sum *OutcomeSummary
	if len(s.terminal.Summary) > 0 {
		var o OutcomeSummary
		if err := json.Unmarshal(s.terminal.Summary, &o); err == nil {
			sum = &o
		}
	}
	errMsg := s.terminal.Error
	var ck []byte
	if state == StateInterrupted && s.ref != nil {
		if data, err := s.ref.Load(m.checkpointDir()); err == nil {
			ck = data
		}
	}
	r := m.tombstone(id, s, state, errMsg, sum)
	if r != nil && ck != nil {
		r.mu.Lock()
		r.checkpoint = ck
		r.mu.Unlock()
	}
}

// tombstone registers a dead run: terminal from birth (its live tail
// ends at once), engine name recovered from the spec when present.
// Returns nil if the ID is somehow already registered.
func (m *Manager) tombstone(id string, s *replayState, state State, errMsg string, sum *OutcomeSummary) *Run {
	_, cancel := context.WithCancel(context.Background())
	cancel()
	// A tombstone never emits: a one-slot ring keeps /trace, /events and
	// Status answering without RingSize slots per replayed run.
	r := &Run{
		id:       id,
		mgr:      m,
		ring:     obs.NewRing(1),
		done:     make(chan struct{}),
		cancel:   cancel,
		state:    state,
		restarts: s.restarts,
		summary:  sum,
	}
	if len(s.spec) > 0 {
		// Two fields, not the whole request: a tombstone has no use for
		// the edge list.
		var head struct {
			Engine string `json:"engine"`
			Seed   uint64 `json:"seed"`
		}
		if err := json.Unmarshal(s.spec, &head); err == nil {
			r.req.Kind = core.Kind(head.Engine)
			r.req.Seed = head.Seed
		}
	}
	r.diag = diag.New(diag.Config{})
	r.recovered = true
	if errMsg != "" {
		r.err = errors.New(errMsg)
	}
	if s.submitNS > 0 {
		r.created = time.Unix(0, s.submitNS)
	} else {
		r.created = time.Now()
	}
	if s.terminal != nil && s.terminal.WallNS > 0 {
		r.ended = time.Unix(0, s.terminal.WallNS)
	} else {
		r.ended = time.Now()
	}
	close(r.done)
	m.mu.Lock()
	if _, exists := m.runs[id]; exists {
		m.mu.Unlock()
		return nil
	}
	m.runs[id] = r
	m.order = append(m.order, id)
	m.mu.Unlock()
	m.reg.CounterWith("runs.finished", obs.Labels{
		"engine": string(r.req.Kind), "state": string(state)}).Inc()
	return r
}
