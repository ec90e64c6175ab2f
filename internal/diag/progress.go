package diag

import (
	"strconv"

	"mbrim/internal/obs"
)

// Progress is the Reducer's cheap live view of a solve — what a run
// manager shows as a run's "progress" on every status poll. It reads
// running scalars only: none of Snapshot's O(samples) plateau and TTS
// work. All counters are cumulative over the run.
//
// Where it and Snapshot read the same stream differently, each keeps its
// own meaning: Snapshot's epoch, chips, model time and energy envelope
// describe the run's own stream (a portfolio's entrants run on their own
// clocks and would corrupt its trajectory analytics), Progress's cover
// every event, entrant streams included — a race's live position is its
// entrants'.
type Progress struct {
	// Engine is the solver kind from the RunStart event.
	Engine string `json:"engine"`
	// Phase is the coarse position: "" (nothing yet) → "annealing"
	// (RunStart) → "done" (RunEnd). A run manager fills in what the
	// stream cannot say: queued, submitted, interrupted, failed.
	Phase string `json:"phase"`
	// Epoch is the highest epoch (multichip) or sample ordinal seen.
	Epoch int `json:"epoch"`
	// Chips is the highest chip index seen plus one (0 for
	// single-chip/software engines).
	Chips int `json:"chips"`
	// Events counts every trace event observed.
	Events int64 `json:"events"`
	// Flips and BitChanges accumulate ChipStep / EpochSync counts.
	Flips      int64 `json:"flips"`
	BitChanges int64 `json:"bitChanges"`
	// BestEnergy is the lowest energy seen in EnergySample/RunEnd
	// events; HasEnergy reports whether any was observed yet.
	BestEnergy float64 `json:"bestEnergy"`
	LastEnergy float64 `json:"lastEnergy"`
	HasEnergy  bool    `json:"hasEnergy"`
	// ModelNS is the latest model-time stamp seen.
	ModelNS float64 `json:"modelNS"`
	// Faults, Recoveries and StepRetries count fault-layer and
	// numerical-guardrail activity.
	Faults      int64 `json:"faults"`
	Recoveries  int64 `json:"recoveries"`
	StepRetries int64 `json:"stepRetries"`
	// UpdatedWallNS is the wall stamp of the last stamped event.
	UpdatedWallNS int64 `json:"updatedWallNS"`
	// Entrants is the per-entrant live view when the run is a
	// portfolio race, keyed by entrant origin ("e0", "e1", …; the
	// hand-off stage appears as the next index). Nil for ordinary runs.
	Entrants map[string]EntrantProgress `json:"entrants,omitempty"`
	// Winner is the winning entrant's origin key once the race's
	// portfolio_win event lands ("" until then); WinnerKind repeats the
	// winning engine's name.
	Winner     string `json:"winnerEntrant,omitempty"`
	WinnerKind string `json:"winnerKind,omitempty"`
}

// EntrantProgress is one portfolio entrant's slice of the live view,
// assembled from its origin-stamped inner stream plus the portfolio's
// entrant bracket events.
type EntrantProgress struct {
	// Engine is the entrant's solver kind.
	Engine string `json:"engine"`
	// Phase: "racing" → "done" (completed) or "cancelled" (lost the
	// race / hit the budget).
	Phase string `json:"phase"`
	// Events counts the entrant's own trace events.
	Events int64 `json:"events"`
	// BestEnergy/LastEnergy track the entrant's energy stream.
	BestEnergy float64 `json:"bestEnergy"`
	LastEnergy float64 `json:"lastEnergy"`
	HasEnergy  bool    `json:"hasEnergy"`
	// Won marks the race's win attribution.
	Won bool `json:"won,omitempty"`
}

// observe folds what every event carries, whatever its origin.
func (p *Progress) observe(e obs.Event) {
	p.Events++
	if e.WallNS != 0 {
		p.UpdatedWallNS = e.WallNS
	}
	p.Epoch = max(p.Epoch, e.Epoch)
	p.Chips = max(p.Chips, e.Chip+1)
	if e.ModelNS > p.ModelNS {
		p.ModelNS = e.ModelNS
	}
}

func (p *Progress) observeEnergy(e float64) {
	p.LastEnergy = e
	if !p.HasEnergy || e < p.BestEnergy {
		p.BestEnergy = e
	}
	p.HasEnergy = true
}

// Progress returns the live view: the running scalars Emit keeps, and one
// small map entry per portfolio entrant — a status poll can afford it
// every time.
func (r *Reducer) Progress() Progress {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.progress
	if r.entrants != nil {
		p.Entrants = make(map[string]EntrantProgress, len(r.entrants))
		for idx, acc := range r.entrants {
			p.Entrants[entrantKey(idx)] = EntrantProgress{
				Engine: acc.kind, Phase: acc.phase, Events: int64(acc.events),
				BestEnergy: acc.best, LastEnergy: acc.last, HasEnergy: acc.hasEnergy,
				Won: acc.won,
			}
		}
		if r.raceWinner >= 0 {
			p.Winner, p.WinnerKind = entrantKey(r.raceWinner), r.raceWinnerKind
		}
	}
	return p
}

// entrantKey is entrant idx's origin stamp ("e0", "e1", …).
func entrantKey(idx int) string { return "e" + strconv.Itoa(idx) }
