package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// This file is the engine registry — the dispatch spine of the
// orchestration layer. Every solver engine registers an adapter
// (engine_*.go in this package; external engines such as
// internal/portfolio register from their own init), and everything
// that used to be a hard-coded engine list — Kinds, ParseKind, the
// resume-support check, SolveCtx's dispatch switch, the daemon's
// GET /engines — derives from the registered set instead.

// Engine is one registered solver: the adapter between the uniform
// Request/Outcome surface and an engine package's own Solve loop.
// Solve receives the request after withDefaults and validate have run
// (zero knobs are filled) and must honor the
// SolveCtx contract: context cancellation returns *InterruptedError
// carrying the best-so-far Outcome, and the uniform tail (wall time,
// cut value, RunEnd, registry counters) is stamped via Request.finish.
// An engine with submit-time checks of its own also implements
// Validate(*Request) error (see the package's Validate).
type Engine interface {
	// Kind is the engine's registry name (what ParseKind accepts).
	Kind() Kind
	// Capabilities declares what the engine supports; the registry
	// derives validation and service behavior from it.
	Capabilities() Capabilities
	// Solve runs one solve. The request is prepared (defaults filled,
	// validated) and owned by the caller; implementations must not
	// retain it past the call.
	Solve(ctx context.Context, r *Request) (*Outcome, error)
}

// Capabilities declares an engine's optional behaviors. The registry
// is the single source of truth: request validation (resume and
// warm-start envelopes), the daemon's default-sampling policy and the
// GET /engines surface all read these flags instead of matching on
// engine names.
type Capabilities struct {
	// Resume reports that Request.Resume accepts a full-state
	// checkpoint envelope for bit-identical continuation (the
	// multichip engines).
	Resume bool `json:"resume"`
	// WarmStart reports that the engine can start from caller-supplied
	// spins: Request.Initial, or a warm-start checkpoint envelope
	// (checkpoint.Warm) in Request.Resume — the portfolio hand-off
	// format.
	WarmStart bool `json:"warmStart"`
	// Spans reports that the engine emits hierarchical span events
	// under Request.SpanTrace.
	Spans bool `json:"spans"`
	// Traced reports that the engine records (time, energy) samples
	// into Outcome.Trace when Request.SampleEveryNS is set.
	Traced bool `json:"traced"`
	// ModelTime reports that the engine accounts deterministic model
	// time (Outcome.ModelNS) rather than only wall time.
	ModelTime bool `json:"modelTime"`
	// Description is a one-line summary for UIs: GET /engines and the
	// README engine table render it verbatim.
	Description string `json:"description"`
}

// EngineInfo is one registry entry as the introspection surfaces
// (GET /engines, the README table generator) report it.
type EngineInfo struct {
	Kind         Kind         `json:"kind"`
	Capabilities Capabilities `json:"capabilities"`
}

var (
	registryMu sync.RWMutex
	registry   = map[Kind]Engine{}
)

// Register adds an engine to the registry. It panics on a duplicate
// kind or an empty name — registration happens in init functions, and
// a clashing engine is a build defect, not a runtime condition.
func Register(e Engine) {
	if e == nil {
		panic("core: Register(nil engine)")
	}
	k := e.Kind()
	if strings.TrimSpace(string(k)) == "" {
		panic("core: Register: engine has empty kind")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[k]; dup {
		panic(fmt.Sprintf("core: Register: duplicate engine %q", k))
	}
	registry[k] = e
}

// lookupEngine resolves a kind against the registry.
func lookupEngine(k Kind) (Engine, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	e, ok := registry[k]
	return e, ok
}

// Kinds returns every registered engine name, sorted.
func Kinds() []string {
	registryMu.RLock()
	ks := make([]string, 0, len(registry))
	for k := range registry {
		ks = append(ks, string(k))
	}
	registryMu.RUnlock()
	sort.Strings(ks)
	return ks
}

// Engines returns every registry entry, sorted by kind — the feed for
// GET /engines and the README engine table.
func Engines() []EngineInfo {
	registryMu.RLock()
	infos := make([]EngineInfo, 0, len(registry))
	for k, e := range registry {
		infos = append(infos, EngineInfo{Kind: k, Capabilities: e.Capabilities()})
	}
	registryMu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Kind < infos[j].Kind })
	return infos
}

// EngineCaps reports a registered engine's capabilities.
func EngineCaps(k Kind) (Capabilities, bool) {
	e, ok := lookupEngine(k)
	if !ok {
		return Capabilities{}, false
	}
	return e.Capabilities(), true
}

// Validate is the dry run a service makes before it admits a request:
// what the engine itself would refuse before solving — a malformed
// race, a chip geometry or worker list the fabric rejects — is refused
// here, with nothing started and nothing contacted. An engine opts in
// by implementing Validate(*Request) error, and sees the request with
// its defaults filled, as Solve would. A cluster spec on any other
// engine is refused too: it would be silently ignored.
func Validate(req *Request) error {
	eng, ok := lookupEngine(req.Kind)
	if !ok {
		return unknownKindError(string(req.Kind))
	}
	if req.Kind != Cluster && req.Cluster.set() {
		return fmt.Errorf("core: workers and the other cluster fields require engine %q, not %q", Cluster, req.Kind)
	}
	v, ok := eng.(interface{ Validate(*Request) error })
	if !ok {
		return nil
	}
	r, err := req.withDefaults()
	if err != nil {
		return err
	}
	return v.Validate(&r)
}

// ParseKind validates a solver name against the registry. An unknown
// name's error lists the registered engines and, when the name is a
// near-miss (edit distance ≤ 2, or ≤ 1 for very short names), suggests
// the closest one.
func ParseKind(s string) (Kind, error) {
	k := Kind(strings.ToLower(strings.TrimSpace(s)))
	if _, ok := lookupEngine(k); ok {
		return k, nil
	}
	return "", unknownKindError(s)
}

// unknownKindError builds the unknown-engine error (shared between
// ParseKind and SolveCtx's registry lookup).
func unknownKindError(s string) error {
	norm := strings.ToLower(strings.TrimSpace(s))
	if hint := closestKind(norm); hint != "" {
		return fmt.Errorf("core: unknown solver %q — did you mean %q? (have %s)",
			s, hint, strings.Join(Kinds(), ", "))
	}
	return fmt.Errorf("core: unknown solver %q (have %s)", s, strings.Join(Kinds(), ", "))
}

// closestKind returns the registered engine name nearest to s by edit
// distance, or "" when nothing is close enough to be a plausible typo.
// The threshold scales with the input: one edit for names up to four
// characters (so "as" suggests "sa" but "xy" suggests nothing), two
// beyond that.
func closestKind(s string) string {
	if s == "" {
		return ""
	}
	limit := 2
	if len(s) <= 4 {
		limit = 1
	}
	best, bestDist := "", limit+1
	for _, k := range Kinds() {
		d := editDistance(s, k)
		if d < bestDist || (d == bestDist && best != "" && k < best) {
			best, bestDist = k, d
		}
	}
	if bestDist > limit {
		return ""
	}
	return best
}

// editDistance is the Damerau–Levenshtein distance (insert, delete,
// substitute, adjacent transpose) — transpositions matter because
// "mbirm" for "mbrim" is the likeliest class of typo here.
func editDistance(a, b string) int {
	la, lb := len(a), len(b)
	prev2 := make([]int, lb+1) // row i-2
	prev := make([]int, lb+1)  // row i-1
	cur := make([]int, lb+1)   // row i
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := min(prev[j]+1, cur[j-1]+1) // delete, insert
			m = min(m, prev[j-1]+cost)      // substitute
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				m = min(m, prev2[j-2]+1) // transpose
			}
			cur[j] = m
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[lb]
}
