// Package diag reduces a solve's live event stream into convergence
// and partition-quality diagnostics: energy-trajectory analytics
// (improvement rate, plateau detection, best-so-far staleness),
// per-chip and chip-pair shadow-spin disagreement derived from the
// PairStat events the multichip runtime emits, per-epoch traffic and
// stall attribution, and a live time-to-solution estimate with Wilson
// confidence bounds built on internal/metrics.
//
// A Reducer is an obs.Tracer: compose it into a run's fan-out (the run
// manager does this for every run) and read it at any time. It is the
// one fold of a run's stream, with two views: Snapshot, the analytic
// report above, and Progress (progress.go), the cheap live position a
// status poll reads. Reduction is pure folding over the stream — the
// Reducer never touches solver state, so attaching it cannot perturb a
// seeded trajectory.
//
// The chip-pair disagreement measure follows the partitioned-solver
// analyses of Burns & Huang (multi-FPGA Ising partitioning) and the
// source paper's Sec 5.4 ignorance discussion: for ordered pair
// (observer a, owner b), the fraction of b's owned spins that a's
// shadow registers hold wrong. Sampled before boundary sync it is the
// ignorance a annealed against during the epoch; its complement is the
// pair's coherence rate.
package diag

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"mbrim/internal/metrics"
	"mbrim/internal/obs"
)

// The trajectory's fixed analytics. The energy is plateaued when it
// failed to improve by plateauEpsilon (relative) over the last
// plateauWindowNS of model time; the live TTS estimate chunks
// consecutive samples into trials of trialSamples.
const (
	plateauWindowNS = 1000
	plateauEpsilon  = 1e-3
	trialSamples    = 8
)

// Config parameterizes a Reducer. It has no fields: a Reducer writes
// nowhere, and its Snapshot and Progress are all it tells.
type Config struct{}

// sample is one (model time, energy) trajectory point.
type sample struct {
	t, e float64
}

// pairKey identifies a directed (observer, owner) chip pair.
type pairKey struct{ observer, owner int }

// pairAcc accumulates one pair's disagreement series.
type pairAcc struct {
	latest    float64
	latestN   int64
	sum, max  float64
	samples   int
	lastEpoch int
}

// Reducer folds an event stream into a diagnostics view. Safe for
// concurrent Emit and Snapshot.
type Reducer struct {
	mu sync.Mutex

	engine  string
	seed    uint64
	epoch   int
	chips   int
	modelNS float64

	samples   []sample
	hasEnergy bool
	best      float64
	bestAtNS  float64
	last      float64

	pairs map[pairKey]*pairAcc

	trafficBytes    float64
	stallNS         float64
	recoveryStallNS float64
	syncBitChanges  int64
	fabricEpochs    int
	queueWaitNS     int64

	entrants       map[int]*entrantAcc
	raceWinner     int
	raceWinnerKind string
	raceHitTarget  bool

	// fleet folds a federated cluster run's coordinator and worker
	// spans; nil until one arrives (fleet.go).
	fleet *fleet

	// progress holds Progress' running scalars: everything but the
	// entrant map, which Progress() builds from entrants (progress.go).
	progress Progress
}

// entrantAcc accumulates one portfolio entrant's view: identity from
// the race events (EntrantStart/EntrantEnd), energy envelope from the
// entrant's origin-stamped inner stream.
type entrantAcc struct {
	kind      string
	seed      uint64
	phase     string
	events    int
	hasEnergy bool
	best      float64
	last      float64
	won       bool
	wallNS    int64
}

// New returns an empty Reducer.
func New(Config) *Reducer {
	return &Reducer{pairs: map[pairKey]*pairAcc{}}
}

// Emit folds one event. Implements obs.Tracer.
func (r *Reducer) Emit(e obs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.progress.observe(e)
	// A portfolio race's inner streams arrive origin-stamped ("e0",
	// "e1", …). They fold into the per-entrant view, not the top-level
	// one — entrant engines run on their own model clocks, so merging
	// their trajectories would corrupt the plateau and TTS analytics.
	// Any other origin is a federated cluster run's coordinator ("co")
	// or one of its workers ("w0", …): their spans fold into the fleet
	// view, and the event goes on into the top-level one — the
	// coordinator's stream is the run's.
	if idx, ok := entrantOrigin(e.Origin); ok {
		r.observeEntrantStream(idx, e)
		return
	}
	if e.Origin != "" {
		r.observeFleet(e)
	}
	switch e.Kind {
	case obs.EntrantStart, obs.EntrantEnd, obs.PortfolioWin:
		r.observeRace(e)
		return
	}
	if e.Epoch > r.epoch {
		r.epoch = e.Epoch
	}
	if e.Chip+1 > r.chips {
		r.chips = e.Chip + 1
	}
	if e.ModelNS > r.modelNS {
		r.modelNS = e.ModelNS
	}
	switch e.Kind {
	case obs.RunStart:
		r.engine = e.Label
		r.seed = e.Seed
		r.progress.Engine, r.progress.Phase = e.Label, "annealing"
	case obs.EnergySample, obs.RunEnd:
		r.observeEnergy(e.ModelNS, e.Value)
		r.progress.observeEnergy(e.Value)
		if e.Kind == obs.RunEnd {
			r.progress.Phase = "done"
		}
	case obs.ChipStep:
		r.progress.Flips += e.Count
	case obs.Fault:
		r.progress.Faults++
	case obs.Numerical:
		if e.Label == "step-retry" {
			r.progress.StepRetries += e.Count
		}
	case obs.PairStat:
		r.observePair(e)
	case obs.EpochSync:
		r.syncBitChanges += e.Count
		r.progress.BitChanges += e.Count
	case obs.FabricTransfer:
		r.trafficBytes += e.Value
		r.stallNS += e.StallNS
		r.fabricEpochs++
	case obs.Recovery:
		r.recoveryStallNS += e.StallNS
		r.progress.Recoveries++
	case obs.SpanEnd:
		if e.Label == "queue_wait" && e.WallDurNS > r.queueWaitNS {
			r.queueWaitNS = e.WallDurNS
		}
	}
}

// entrantAccFor lazily allocates one entrant's accumulator. Caller
// holds r.mu.
func (r *Reducer) entrantAccFor(idx int) *entrantAcc {
	if r.entrants == nil {
		r.entrants = map[int]*entrantAcc{}
		r.raceWinner = -1
	}
	acc := r.entrants[idx]
	if acc == nil {
		acc = &entrantAcc{phase: "racing"}
		r.entrants[idx] = acc
	}
	return acc
}

// observeEntrantStream folds one origin-stamped event from an entrant's
// inner solve into that entrant's envelope. Caller holds r.mu.
func (r *Reducer) observeEntrantStream(idx int, e obs.Event) {
	acc := r.entrantAccFor(idx)
	acc.events++
	switch e.Kind {
	case obs.RunStart:
		if acc.kind == "" {
			acc.kind = e.Label
		}
		if acc.seed == 0 {
			acc.seed = e.Seed
		}
	case obs.EnergySample, obs.RunEnd:
		acc.last = e.Value
		if !acc.hasEnergy || e.Value < acc.best {
			acc.best = e.Value
		}
		acc.hasEnergy = true
		// The entrants' envelope is a race's live energy view.
		r.progress.observeEnergy(e.Value)
	}
}

// observeRace folds the portfolio engine's own race events (emitted
// unstamped on the top-level stream). Caller holds r.mu.
func (r *Reducer) observeRace(e obs.Event) {
	acc := r.entrantAccFor(e.Chip)
	switch e.Kind {
	case obs.EntrantStart:
		acc.kind = e.Label
		acc.seed = e.Seed
		acc.phase = "racing"
	case obs.EntrantEnd:
		if acc.kind == "" {
			acc.kind = e.Label
		}
		acc.wallNS = e.WallDurNS
		if e.Count != 0 {
			acc.phase = "cancelled"
		} else {
			acc.phase = "done"
		}
		acc.last = e.Value
		if !acc.hasEnergy || e.Value < acc.best {
			acc.best = e.Value
		}
		acc.hasEnergy = true
	case obs.PortfolioWin:
		acc.won = true
		r.raceWinner = e.Chip
		r.raceWinnerKind = e.Label
		r.raceHitTarget = e.Count > 0
	}
}

func (r *Reducer) observeEnergy(t, e float64) {
	r.samples = append(r.samples, sample{t, e})
	r.last = e
	if !r.hasEnergy || e < r.best {
		r.best = e
		r.bestAtNS = t
		r.hasEnergy = true
	}
}

func (r *Reducer) observePair(e obs.Event) {
	if e.Peer <= 0 {
		return
	}
	k := pairKey{observer: e.Chip, owner: e.Peer - 1}
	acc := r.pairs[k]
	if acc == nil {
		acc = &pairAcc{}
		r.pairs[k] = acc
	}
	acc.latest = e.Value
	acc.latestN = e.Count
	acc.sum += e.Value
	if e.Value > acc.max {
		acc.max = e.Value
	}
	acc.samples++
	acc.lastEpoch = e.Epoch
}

// plateauedLocked reports whether the trajectory failed to improve by
// plateauEpsilon (relative) over the last plateauWindowNS: the baseline
// is the lowest energy at or before the window's start, and a run with
// no sample there is never plateaued.
func (r *Reducer) plateauedLocked() bool {
	n := len(r.samples)
	if n < 2 {
		return false
	}
	winStart := r.samples[n-1].t - plateauWindowNS
	baseline, covered := math.Inf(1), false
	for _, s := range r.samples {
		if s.t <= winStart {
			covered = true
			if s.e < baseline {
				baseline = s.e
			}
		}
	}
	if !covered {
		return false
	}
	// Improvement inside the window, relative to the baseline scale.
	improvement := baseline - r.best
	scale := math.Abs(baseline)
	if scale < 1e-12 {
		scale = 1e-12
	}
	return improvement/scale < plateauEpsilon
}

// improvementRateLocked is the mean energy decrease per model ns over
// the plateau window (positive while improving), 0 when undefined.
func (r *Reducer) improvementRateLocked() float64 {
	n := len(r.samples)
	if n < 2 {
		return 0
	}
	last := r.samples[n-1]
	winStart := last.t - plateauWindowNS
	ref := r.samples[0]
	for _, s := range r.samples {
		if s.t <= winStart {
			ref = s
		} else {
			break
		}
	}
	if last.t <= ref.t {
		return 0
	}
	return (ref.e - last.e) / (last.t - ref.t)
}

// Snapshot returns the current diagnostics view.
func (r *Reducer) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Engine:  r.engine,
		Seed:    r.seed,
		Epoch:   r.epoch,
		Chips:   r.chips,
		ModelNS: r.modelNS,
		Samples: len(r.samples),
	}
	if r.hasEnergy {
		s.HasEnergy = true
		s.BestEnergy = r.best
		s.LastEnergy = r.last
		s.BestStalenessNS = r.samples[len(r.samples)-1].t - r.bestAtNS
		s.ImprovementRate = r.improvementRateLocked()
		s.Plateaued = r.plateauedLocked()
	}
	s.Pairs = r.pairSnapshotsLocked()
	s.ChipCoherence = chipViews(s.Pairs, r.chips)
	s.Traffic = TrafficDiag{
		TotalBytes:      r.trafficBytes,
		StallNS:         r.stallNS,
		RecoveryStallNS: r.recoveryStallNS,
		SyncBitChanges:  r.syncBitChanges,
		Epochs:          r.fabricEpochs,
	}
	if r.fabricEpochs > 0 {
		s.Traffic.BytesPerEpoch = r.trafficBytes / float64(r.fabricEpochs)
	}
	if total := r.modelNS + r.stallNS; total > 0 {
		s.Traffic.StallFraction = r.stallNS / total
	}
	s.TTS = r.ttsLocked()
	s.QueueWaitNS = r.queueWaitNS
	s.Portfolio = r.portfolioSnapshotLocked()
	if r.fleet != nil {
		fs := r.fleet.snapshot()
		s.Fleet = &fs
		s.TraceID = fmt.Sprintf("%016x", r.fleet.traceID)
	}
	return s
}

// portfolioSnapshotLocked materializes the race view, nil unless any
// entrant event has been seen. Caller holds r.mu.
func (r *Reducer) portfolioSnapshotLocked() *PortfolioDiag {
	if r.entrants == nil {
		return nil
	}
	pd := &PortfolioDiag{
		Winner:     r.raceWinner,
		WinnerKind: r.raceWinnerKind,
		HitTarget:  r.raceHitTarget,
	}
	idxs := make([]int, 0, len(r.entrants))
	for i := range r.entrants {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		acc := r.entrants[i]
		pd.Entrants = append(pd.Entrants, EntrantDiag{
			Index: i, Kind: acc.kind, Seed: acc.seed, Phase: acc.phase,
			Events: acc.events, HasEnergy: acc.hasEnergy,
			BestEnergy: acc.best, LastEnergy: acc.last,
			Won: acc.won, WallNS: acc.wallNS,
		})
	}
	return pd
}

func (r *Reducer) pairSnapshotsLocked() []PairDiag {
	if len(r.pairs) == 0 {
		return nil
	}
	out := make([]PairDiag, 0, len(r.pairs))
	for k, acc := range r.pairs {
		out = append(out, PairDiag{
			Observer:         k.observer,
			Owner:            k.owner,
			Disagreement:     acc.latest,
			StaleSpins:       acc.latestN,
			MeanDisagreement: acc.sum / float64(acc.samples),
			MaxDisagreement:  acc.max,
			Samples:          acc.samples,
			LastEpoch:        acc.lastEpoch,
		})
	}
	// Deterministic order: by observer, then owner.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if a.Observer < b.Observer || (a.Observer == b.Observer && a.Owner < b.Owner) {
				break
			}
			out[j-1], out[j] = b, a
		}
	}
	return out
}

// chipViews aggregates directed pair stats into per-chip coherence:
// Ignorance is the mean latest disagreement where the chip observes
// others, Visibility the mean where others observe it, Coherence the
// complement of Ignorance.
func chipViews(pairs []PairDiag, chips int) []ChipDiag {
	if len(pairs) == 0 {
		return nil
	}
	type agg struct {
		asObs, asOwn float64
		nObs, nOwn   int
	}
	accs := make([]agg, chips)
	for _, p := range pairs {
		if p.Observer < chips {
			accs[p.Observer].asObs += p.Disagreement
			accs[p.Observer].nObs++
		}
		if p.Owner < chips {
			accs[p.Owner].asOwn += p.Disagreement
			accs[p.Owner].nOwn++
		}
	}
	out := make([]ChipDiag, 0, chips)
	for ci, a := range accs {
		if a.nObs == 0 && a.nOwn == 0 {
			continue
		}
		d := ChipDiag{Chip: ci, Coherence: 1}
		if a.nObs > 0 {
			d.Ignorance = a.asObs / float64(a.nObs)
			d.Coherence = 1 - d.Ignorance
		}
		if a.nOwn > 0 {
			d.Visibility = a.asOwn / float64(a.nOwn)
		}
		out = append(out, d)
	}
	return out
}

// ttsConfidence is the confidence level q of the live TTS estimate.
const ttsConfidence = 0.99

// ttsLocked computes the live TTS estimate: consecutive trajectory
// samples are chunked into trials of trialSamples each, a trial
// succeeds when its best sample comes within 1% of |best| of the
// best-so-far energy, and the success probability carries a Wilson
// interval that inverts into TTS bounds. The estimate thus reads "time
// to re-reach the best known solution", the self-referential TTS a
// live run can always compute. Nil until at least one full trial
// window exists.
func (r *Reducer) ttsLocked() *TTSEstimate {
	const w = trialSamples
	if len(r.samples) < w {
		return nil
	}
	target, tol := r.best, 0.01*math.Abs(r.best)
	trials := len(r.samples) / w
	mins := make([]float64, 0, trials)
	var spanSum float64
	for i := 0; i < trials; i++ {
		win := r.samples[i*w : (i+1)*w]
		best := win[0].e
		for _, s := range win[1:] {
			if s.e < best {
				best = s.e
			}
		}
		mins = append(mins, best)
		spanSum += win[len(win)-1].t - win[0].t
	}
	trialNS := spanSum / float64(trials)
	if trialNS <= 0 {
		return nil
	}
	p, lo, hi := metrics.SuccessProbabilityCI(mins, target, tol, 0)
	est := &TTSEstimate{
		TargetEnergy: target,
		Tol:          tol,
		Confidence:   ttsConfidence,
		TrialNS:      trialNS,
		Trials:       trials,
		SuccessP:     p,
		PLow:         lo,
		PHigh:        hi,
	}
	// Higher success probability means lower TTS, so the interval flips.
	est.TTSNS = sanitizeTTS(metrics.TTS(trialNS, p, ttsConfidence))
	est.TTSLowNS = sanitizeTTS(metrics.TTS(trialNS, hi, ttsConfidence))
	est.TTSHighNS = sanitizeTTS(metrics.TTS(trialNS, lo, ttsConfidence))
	return est
}

// sanitizeTTS maps +Inf (zero successes) to the JSON-safe sentinel -1.
func sanitizeTTS(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return -1
	}
	return v
}

// Snapshot is the JSON view GET /runs/{id}/diag serves.
type Snapshot struct {
	Engine  string  `json:"engine,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
	Epoch   int     `json:"epoch"`
	Chips   int     `json:"chips"`
	ModelNS float64 `json:"modelNS"`
	Samples int     `json:"samples"`

	HasEnergy  bool    `json:"hasEnergy"`
	BestEnergy float64 `json:"bestEnergy,omitempty"`
	LastEnergy float64 `json:"lastEnergy,omitempty"`
	// ImprovementRate is the mean energy decrease per model ns over the
	// plateau window; positive while the solve is still improving.
	ImprovementRate float64 `json:"improvementRate,omitempty"`
	// Plateaued reports that the trajectory improved less than 1e-3
	// (relative) over the last 1000 model ns.
	Plateaued bool `json:"plateaued"`
	// BestStalenessNS is the model time since best-so-far last improved.
	BestStalenessNS float64 `json:"bestStalenessNS,omitempty"`

	Pairs         []PairDiag  `json:"pairs,omitempty"`
	ChipCoherence []ChipDiag  `json:"chipCoherence,omitempty"`
	Traffic       TrafficDiag `json:"traffic"`
	// TTS is nil until enough trajectory samples accumulated for one
	// trial window.
	TTS *TTSEstimate `json:"tts,omitempty"`
	// QueueWaitNS is wall time the run spent in the admission queue
	// before a worker slot freed up; zero for runs dispatched immediately.
	QueueWaitNS int64 `json:"queueWaitNS,omitempty"`
	// Portfolio is the race view of a portfolio run — one entry per
	// entrant, the winner once the race settles. Nil for every other
	// engine.
	Portfolio *PortfolioDiag `json:"portfolio,omitempty"`
	// Fleet is the per-worker view of a federated cluster run —
	// straggler attribution and the sync-vs-compute split — and TraceID
	// the trace its coordinator and worker spans share. Absent for every
	// other run.
	Fleet   *FleetSnapshot `json:"fleet,omitempty"`
	TraceID string         `json:"traceID,omitempty"`
}

// PortfolioDiag is a portfolio run's race as the event stream reports
// it live: identity and phase from the EntrantStart/EntrantEnd events,
// energy envelopes from the entrants' origin-stamped inner streams,
// the winner from PortfolioWin.
type PortfolioDiag struct {
	Entrants []EntrantDiag `json:"entrants"`
	// Winner is the winning entrant index, -1 while the race is live.
	Winner     int    `json:"winner"`
	WinnerKind string `json:"winnerKind,omitempty"`
	// HitTarget reports the race ended first-to-target (vs best-at-end).
	HitTarget bool `json:"hitTarget,omitempty"`
}

// EntrantDiag is one entrant's live view.
type EntrantDiag struct {
	Index int    `json:"index"`
	Kind  string `json:"kind,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
	// Phase is "racing" until the entrant's EntrantEnd lands, then
	// "done" (ran to completion) or "cancelled" (lost the race).
	Phase      string  `json:"phase"`
	Events     int     `json:"events"`
	HasEnergy  bool    `json:"hasEnergy"`
	BestEnergy float64 `json:"bestEnergy,omitempty"`
	LastEnergy float64 `json:"lastEnergy,omitempty"`
	Won        bool    `json:"won,omitempty"`
	WallNS     int64   `json:"wallNS,omitempty"`
}

// PairDiag is one directed chip pair's disagreement summary.
type PairDiag struct {
	Observer int `json:"observer"`
	Owner    int `json:"owner"`
	// Disagreement is the latest stale fraction of the owner's slice in
	// the observer's shadow registers; StaleSpins the absolute count.
	Disagreement     float64 `json:"disagreement"`
	StaleSpins       int64   `json:"staleSpins"`
	MeanDisagreement float64 `json:"meanDisagreement"`
	MaxDisagreement  float64 `json:"maxDisagreement"`
	Samples          int     `json:"samples"`
	LastEpoch        int     `json:"lastEpoch"`
}

// ChipDiag aggregates a chip's pair stats: Ignorance is the mean
// disagreement of its shadows about others, Visibility the mean
// disagreement others hold about it, Coherence = 1 − Ignorance.
type ChipDiag struct {
	Chip       int     `json:"chip"`
	Ignorance  float64 `json:"ignorance"`
	Visibility float64 `json:"visibility"`
	Coherence  float64 `json:"coherence"`
}

// TrafficDiag attributes fabric traffic and stall over the run.
type TrafficDiag struct {
	TotalBytes      float64 `json:"totalBytes"`
	BytesPerEpoch   float64 `json:"bytesPerEpoch,omitempty"`
	StallNS         float64 `json:"stallNS"`
	RecoveryStallNS float64 `json:"recoveryStallNS,omitempty"`
	// StallFraction is fabric stall over total elapsed (model + stall).
	StallFraction  float64 `json:"stallFraction,omitempty"`
	SyncBitChanges int64   `json:"syncBitChanges"`
	Epochs         int     `json:"epochs"`
}

// TTSEstimate is the live time-to-solution estimate: trials of TrialNS
// model ns succeed with probability SuccessP (Wilson bounds [PLow,
// PHigh]), inverting into TTS bounds at confidence 0.99.
// A TTS of -1 encodes +Inf (no trial succeeded yet).
type TTSEstimate struct {
	TargetEnergy float64 `json:"targetEnergy"`
	Tol          float64 `json:"tol"`
	Confidence   float64 `json:"confidence"`
	TrialNS      float64 `json:"trialNS"`
	Trials       int     `json:"trials"`
	SuccessP     float64 `json:"successP"`
	PLow         float64 `json:"pLow"`
	PHigh        float64 `json:"pHigh"`
	TTSNS        float64 `json:"ttsNS"`
	TTSLowNS     float64 `json:"ttsLowNS"`
	TTSHighNS    float64 `json:"ttsHighNS"`
}
