// Package portfolio implements the heterogeneous portfolio engine
// (HETRI-style): it races several registered engines on the same model
// under a shared context, cancels the losers the moment one entrant
// reaches the target energy (or when the race budget expires), merges
// the entrants' ledgers, and optionally hands the race's best state to
// a second-stage engine as a warm start through the checkpoint layer.
//
// The engine registers itself as "portfolio" in the core registry, so
// it is selected like any other solver — `-solver portfolio` on the
// CLI, `"engine": "portfolio"` on POST /runs — and composes the
// repository's existing machinery rather than duplicating it: entrant
// cancellation is core's context plumbing, hand-off is a
// checkpoint.Warm envelope, and the structure dispatcher reads the
// lattice backend's row statistics.
//
// Linking: this package must be imported (usually blank) for the
// engine to exist. The facade, the daemon and the CLI all do; plain
// core-only test binaries deliberately do not, which keeps the
// trajectory-neutrality golden scoped to the primitive engines.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"mbrim/internal/checkpoint"
	"mbrim/internal/core"
	"mbrim/internal/obs"
)

// MaxEntrants is the hard cap on race width: each entrant is a full
// solver on its own goroutine, so an unbounded field is a resource
// hazard, not a capability.
const MaxEntrants = 8

// DefaultDispatchEntrants is how many entrants the structure
// dispatcher fields when the spec does not say.
const DefaultDispatchEntrants = 3

type engine struct{}

func init() { core.Register(engine{}) }

func (engine) Kind() core.Kind { return core.Portfolio }

func (engine) Capabilities() core.Capabilities {
	return core.Capabilities{
		// Traced/ModelTime are pass-through: the winner's trace and model
		// time (when its engine produces them) become the portfolio's.
		Traced:      true,
		ModelTime:   true,
		Description: "heterogeneous race: N engines on one model, losers cancelled at first-to-target, optional warm-start hand-off",
	}
}

// raceState is the shared first-to-target latch. The first entrant
// whose energy stream crosses the target wins and cancels the race;
// everyone else sees a cancelled context at their next boundary.
type raceState struct {
	mu        sync.Mutex
	hasTarget bool
	target    float64
	crossed   int // winning entrant index, -1 until someone crosses
	cancel    context.CancelFunc
}

func (st *raceState) cross(idx int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.crossed >= 0 {
		return
	}
	st.crossed = idx
	st.cancel()
}

func (st *raceState) winner() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.crossed
}

// entrantTracer watches one entrant's event stream for a target
// crossing and forwards everything to the entrant's stamped sink. It
// is the race's only observation point: engines that emit EnergySample
// (sa per sweep, sbm on its sample cadence, brim/multichip at
// SampleEveryNS, dnc per pass) lose mid-run; engines that emit nothing
// until RunEnd (tabu, pt) are judged at completion.
type entrantTracer struct {
	st    *raceState
	idx   int
	inner obs.Tracer // stamped sink; may be nil
}

func (t *entrantTracer) Emit(e obs.Event) {
	if t.inner != nil {
		t.inner.Emit(e)
	}
	if !t.st.hasTarget {
		return
	}
	if (e.Kind == obs.EnergySample || e.Kind == obs.RunEnd) && e.Value <= t.st.target {
		t.st.cross(t.idx)
	}
}

// entrantResult is one entrant's side of the race after its goroutine
// returns.
type entrantResult struct {
	kind        string
	best        *core.Outcome // completed outcome or interrupt's best-so-far; nil if nothing usable
	err         error         // non-interrupt failure
	interrupted bool
	wall        time.Duration
}

func (engine) Solve(ctx context.Context, r *core.Request) (*core.Outcome, error) {
	spec := r.Portfolio
	report := &core.PortfolioReport{Winner: -1}
	entrants := spec.Entrants
	if len(entrants) == 0 {
		stats := Analyze(r.Model)
		entrants = Dispatch(stats, spec.MaxEntrants)
		report.Dispatched = true
		report.Structure = &stats
	}
	if err := validateEntrants(entrants, spec.HandOff); err != nil {
		return nil, err
	}

	out := r.NewOutcome()
	start := time.Now()

	raceCtx, cancel := context.WithCancel(ctx)
	if spec.BudgetMS > 0 {
		raceCtx, cancel = context.WithTimeout(ctx, time.Duration(spec.BudgetMS*float64(time.Millisecond)))
	}
	defer cancel()
	st := &raceState{crossed: -1, cancel: cancel}
	if spec.TargetEnergy != nil {
		st.hasTarget, st.target = true, *spec.TargetEnergy
	}

	results := make([]entrantResult, len(entrants))
	var wg sync.WaitGroup
	for i, ent := range entrants {
		ereq := entrantRequest(r, ent, i, st)
		if r.Tracer != nil {
			r.Tracer.Emit(obs.Event{Kind: obs.EntrantStart, Label: ent.Kind,
				Chip: i, Seed: ereq.Seed})
		}
		wg.Add(1)
		go func(i int, ereq core.Request) {
			defer wg.Done()
			t0 := time.Now()
			eout, eerr := core.SolveCtx(raceCtx, ereq)
			res := entrantResult{kind: string(ereq.Kind), wall: time.Since(t0)}
			var ie *core.InterruptedError
			switch {
			case eerr == nil:
				res.best = eout
				// An entrant can finish under target without ever
				// emitting a sample (tabu, pt): judge it here.
				if st.hasTarget && eout.Energy <= st.target {
					st.cross(i)
				}
			case errors.As(eerr, &ie):
				res.interrupted = true
				if ie.Outcome != nil && ie.Outcome.Spins != nil {
					res.best = ie.Outcome
				}
			default:
				res.err = eerr
			}
			results[i] = res
			if r.Tracer != nil {
				var interrupted int64
				if res.interrupted {
					interrupted = 1
				}
				var energy float64
				if res.best != nil {
					energy = res.best.Energy
				}
				r.Tracer.Emit(obs.Event{Kind: obs.EntrantEnd, Label: res.kind,
					Chip: i, Value: energy, Count: interrupted,
					WallDurNS: res.wall.Nanoseconds()})
			}
		}(i, ereq)
	}
	wg.Wait()

	// Winner: the first entrant to cross the target if anyone did,
	// otherwise the best final energy (ties to the lowest index).
	winner := st.winner()
	if winner >= 0 && results[winner].best == nil {
		winner = -1 // crossed per the stream but died before reporting state
	}
	if winner >= 0 {
		report.HitTarget = true
	} else {
		bestE := math.Inf(1)
		for i := range results {
			if results[i].best != nil && results[i].best.Energy < bestE {
				bestE, winner = results[i].best.Energy, i
			}
		}
	}
	if winner < 0 {
		for i := range results {
			if results[i].err != nil {
				return nil, fmt.Errorf("portfolio: every entrant failed; first error (%s): %w",
					results[i].kind, results[i].err)
			}
		}
		return nil, fmt.Errorf("portfolio: no entrant produced a state")
	}

	// Merge the ledgers: per-stat sums across entrants (each entrant's
	// Stats keys are engine-scoped counters, so summing is the honest
	// aggregate), winner's trace/model time as the portfolio's own.
	var interruptedCount float64
	for i := range results {
		res := &results[i]
		rep := core.EntrantReport{Index: i, Kind: res.kind,
			WallNS: res.wall.Nanoseconds(), Interrupted: res.interrupted}
		if res.interrupted {
			interruptedCount++
		}
		if res.err != nil {
			rep.Err = res.err.Error()
			rep.Energy = math.Inf(1)
		}
		if res.best != nil {
			rep.Energy = res.best.Energy
			rep.Cut = res.best.Cut
			rep.ModelNS = res.best.ModelNS
			if st.hasTarget && res.best.Energy <= st.target {
				rep.HitTarget = true
			}
			for k, v := range res.best.Stats {
				out.Stats[k] += v
			}
		}
		report.Entrants = append(report.Entrants, rep)
	}
	win := results[winner].best
	report.Winner = winner
	report.WinnerKind = results[winner].kind
	out.Spins = append([]int8(nil), win.Spins...)
	out.Energy = win.Energy
	out.ModelNS = win.ModelNS
	out.Trace = win.Trace
	out.Stats["entrants"] = float64(len(entrants))
	out.Stats["entrantsInterrupted"] = interruptedCount
	out.Stats["winner"] = float64(winner)
	out.Portfolio = report

	if r.Tracer != nil {
		var hit int64
		if report.HitTarget {
			hit = 1
		}
		r.Tracer.Emit(obs.Event{Kind: obs.PortfolioWin, Label: report.WinnerKind,
			Chip: winner, Value: out.Energy, Count: hit})
	}

	// A cancelled *parent* context means the caller interrupted the
	// whole portfolio: honor the SolveCtx contract. A race-internal
	// cancellation (target crossing, budget expiry) is a normal finish.
	if ctx.Err() != nil {
		return r.Interrupted(out, start, ctx.Err(), nil)
	}

	if spec.HandOff != nil {
		if err := runHandOff(ctx, r, spec, report, out, st); err != nil {
			return nil, err
		}
	}

	r.Finish(out, start)
	return out, nil
}

// runHandOff converts the race's best state into a warm-start envelope
// through the checkpoint layer and runs the second-stage entrant from
// it, adopting the polish when it improves (a correct polisher never
// regresses, but a crashed one must not eat the race result).
func runHandOff(ctx context.Context, r *core.Request, spec core.PortfolioSpec,
	report *core.PortfolioReport, out *core.Outcome, st *raceState) error {
	warm, err := checkpoint.EncodeWarm(report.WinnerKind, r.Seed, r.Model, out.Spins, out.Energy)
	if err != nil {
		return fmt.Errorf("portfolio: hand-off encode: %w", err)
	}
	idx := len(report.Entrants)
	hreq := entrantRequest(r, *spec.HandOff, idx, nil)
	hreq.Resume = warm
	if r.Tracer != nil {
		hreq.Tracer = obs.StampTracer(r.Tracer, 0, fmt.Sprintf("e%d", idx))
		r.Tracer.Emit(obs.Event{Kind: obs.EntrantStart, Label: spec.HandOff.Kind,
			Chip: idx, Seed: hreq.Seed})
	}
	t0 := time.Now()
	hout, herr := core.SolveCtx(ctx, hreq)
	rep := core.EntrantReport{Index: idx, Kind: spec.HandOff.Kind,
		WallNS: time.Since(t0).Nanoseconds()}
	var ie *core.InterruptedError
	switch {
	case herr == nil:
		rep.Energy, rep.Cut, rep.ModelNS = hout.Energy, hout.Cut, hout.ModelNS
	case errors.As(herr, &ie) && ie.Outcome != nil && ie.Outcome.Spins != nil:
		rep.Interrupted = true
		hout = ie.Outcome
		rep.Energy, rep.Cut, rep.ModelNS = hout.Energy, hout.Cut, hout.ModelNS
	default:
		rep.Err = herr.Error()
		rep.Energy = math.Inf(1)
		hout = nil
	}
	if st.hasTarget && hout != nil && hout.Energy <= st.target {
		rep.HitTarget = true
	}
	report.HandOff = &rep
	if hout != nil && hout.Energy <= out.Energy {
		out.Spins = append([]int8(nil), hout.Spins...)
		out.Energy = hout.Energy
		out.ModelNS += hout.ModelNS
		out.Stats["handoffImproved"] = 1
		for k, v := range hout.Stats {
			out.Stats[k] += v
		}
	}
	if r.Tracer != nil {
		var interrupted int64
		if rep.Interrupted {
			interrupted = 1
		}
		r.Tracer.Emit(obs.Event{Kind: obs.EntrantEnd, Label: rep.Kind,
			Chip: idx, Value: rep.Energy, Count: interrupted,
			WallDurNS: rep.WallNS})
	}
	return nil
}

// entrantRequest derives one entrant's request from the portfolio's:
// same model, same observability sinks (stamped with the entrant's
// origin), with the entrant's overrides applied.
// st == nil builds a hand-off request (no race watcher).
func entrantRequest(r *core.Request, ent core.PortfolioEntrant, idx int, st *raceState) core.Request {
	req := *r
	req.Kind = core.Kind(ent.Kind)
	req.Seed = r.Seed + ent.SeedOffset
	req.Portfolio = core.PortfolioSpec{}
	req.Resume = nil
	if ent.Runs > 0 {
		req.Runs = ent.Runs
	}
	if ent.Sweeps > 0 {
		req.Sweeps = ent.Sweeps
	}
	if ent.Steps > 0 {
		req.Steps = ent.Steps
	}
	if ent.DurationNS > 0 {
		req.DurationNS = ent.DurationNS
	}
	if ent.Chips > 0 {
		req.Chips = ent.Chips
	}
	if st != nil {
		// Every entrant gets the watcher even with no user tracer — it
		// is the first-to-target observation point. Origin-stamping
		// ("e0", "e1", …) keeps the entrants' inner streams separable
		// downstream (diag's Progress and Snapshot, SSE).
		req.Tracer = &entrantTracer{st: st, idx: idx,
			inner: obs.StampTracer(r.Tracer, 0, fmt.Sprintf("e%d", idx))}
	}
	return req
}

// Validate is the engine's submit-time check (core.Validate): the race
// field, vetted as Solve would.
func (engine) Validate(r *core.Request) error { return ValidateSpec(r.Portfolio) }

// ValidateSpec checks a portfolio spec the way Solve will, so a
// malformed race is rejected up front instead of as a failed run. An
// empty entrant list is valid here — it means auto-dispatch — so only
// named entrants and the hand-off stage are checked.
func ValidateSpec(spec core.PortfolioSpec) error {
	if len(spec.Entrants) > 0 {
		return validateEntrants(spec.Entrants, spec.HandOff)
	}
	return validateHandOff(spec.HandOff)
}

// validateEntrants rejects malformed race fields before any goroutine
// launches: unknown engine kinds (with the registry's did-you-mean
// error), nested portfolios, oversized fields, and hand-off targets
// that cannot accept a warm start.
func validateEntrants(entrants []core.PortfolioEntrant, handOff *core.PortfolioEntrant) error {
	if len(entrants) == 0 {
		return fmt.Errorf("portfolio: no entrants")
	}
	if len(entrants) > MaxEntrants {
		return fmt.Errorf("portfolio: %d entrants exceeds the cap of %d", len(entrants), MaxEntrants)
	}
	for i, ent := range entrants {
		k, err := core.ParseKind(ent.Kind)
		if err != nil {
			return fmt.Errorf("portfolio: entrant %d: %w", i, err)
		}
		if k == core.Portfolio {
			return fmt.Errorf("portfolio: entrant %d: portfolios do not nest", i)
		}
	}
	return validateHandOff(handOff)
}

// validateHandOff checks the optional second-stage entrant: it must be
// a registered engine with the WarmStart capability, since the hand-off
// arrives as a checkpoint.Warm envelope in Request.Resume.
func validateHandOff(handOff *core.PortfolioEntrant) error {
	if handOff == nil {
		return nil
	}
	k, err := core.ParseKind(handOff.Kind)
	if err != nil {
		return fmt.Errorf("portfolio: hand-off: %w", err)
	}
	caps, _ := core.EngineCaps(k)
	if !caps.WarmStart {
		return fmt.Errorf("portfolio: hand-off engine %s cannot accept a warm start (have %s)",
			k, warmStartKinds())
	}
	return nil
}

// warmStartKinds lists the registered engines with the WarmStart
// capability, for error messages.
func warmStartKinds() string {
	s := ""
	for _, info := range core.Engines() {
		if !info.Capabilities.WarmStart {
			continue
		}
		if s != "" {
			s += ", "
		}
		s += string(info.Kind)
	}
	return s
}
