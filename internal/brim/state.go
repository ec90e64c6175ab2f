package brim

import (
	"errors"
	"fmt"
	"math"
)

// State is a complete snapshot of a Machine's mutable state at a
// consistent point (between steps): voltages, readout, external bias
// currents, timekeeping, kick-hold registers, counters, and the exact
// PRNG stream position. Everything else a Machine holds — the scaled
// couplings, scratch buffers — is either immutable or derived
// deterministically from the model and the construction seed, so a machine rebuilt with New over the same model
// and configuration and then Restored continues bit-identically to one
// that was never snapshotted.
type State struct {
	// Seed is the construction seed (Config.Seed). A resuming driver
	// must rebuild the machine with this seed: the initial-voltage
	// draws derive from it.
	Seed uint64 `json:"seed"`
	// V are the node voltages; Ext the external bias currents (shadow
	// contributions in a multiprocessor).
	V   []float64 `json:"v"`
	Ext []float64 `json:"ext"`
	// Spins is the hysteresis readout.
	Spins []int8 `json:"spins"`
	// Timekeeping: model time, schedule horizon, next induced-flip
	// draw.
	T        float64 `json:"t"`
	Horizon  float64 `json:"horizon"`
	NextFlip float64 `json:"nextFlip"`
	// Counters.
	Flips       int64 `json:"flips"`
	Induced     int64 `json:"induced"`
	Steps       int64 `json:"steps"`
	StepRetries int64 `json:"stepRetries,omitempty"`
	// Kick-hold registers: nodes the annealing control is still
	// driving.
	HoldUntil  []float64 `json:"holdUntil"`
	HoldTarget []int8    `json:"holdTarget"`
	// RNG is the main stream's exact position.
	RNG [4]uint64 `json:"rng"`
}

// Snapshot captures the machine's mutable state. Call it only between
// Run calls (or at a flip-interval boundary a cancelled RunCtx left the
// machine at) — never mid-step.
func (ma *Machine) Snapshot() *State {
	return &State{
		Seed:        ma.cfg.Seed,
		V:           append([]float64(nil), ma.v...),
		Ext:         append([]float64(nil), ma.latch.Ext...),
		Spins:       append([]int8(nil), ma.spins...),
		T:           ma.t,
		Horizon:     ma.horizon,
		NextFlip:    ma.nextFlip,
		Flips:       ma.flips,
		Induced:     ma.induced,
		Steps:       ma.steps,
		StepRetries: ma.stepRetries,
		HoldUntil:   append([]float64(nil), ma.holdUntil...),
		HoldTarget:  append([]int8(nil), ma.holdTarget...),
		RNG:         ma.r.State(),
	}
}

// Restore loads a snapshot onto a machine freshly constructed over the
// same model with the same configuration (including State.Seed).
// Snapshots may come from untrusted checkpoint bytes, so Restore
// validates dimensions and value ranges and reports an error rather
// than panicking or loading a state the dynamics cannot have produced.
func (ma *Machine) Restore(st *State) error {
	if st == nil {
		return errors.New("brim: nil state")
	}
	if len(st.V) != ma.n || len(st.Ext) != ma.n || len(st.Spins) != ma.n ||
		len(st.HoldUntil) != ma.n || len(st.HoldTarget) != ma.n {
		return fmt.Errorf("brim: state dimensions do not match a %d-node machine", ma.n)
	}
	if st.Seed != ma.cfg.Seed {
		return fmt.Errorf("brim: state seed %d does not match machine seed %d", st.Seed, ma.cfg.Seed)
	}
	for i, v := range st.V {
		if math.IsNaN(v) || v < -1 || v > 1 {
			return fmt.Errorf("brim: state voltage[%d]=%v outside the rails", i, v)
		}
	}
	for i, b := range st.Ext {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("brim: state ext[%d]=%v is not finite", i, b)
		}
	}
	for i, s := range st.Spins {
		if s < -1 || s > 1 {
			return fmt.Errorf("brim: state spin[%d]=%d", i, s)
		}
	}
	for i, h := range st.HoldUntil {
		if math.IsNaN(h) || math.IsInf(h, 0) {
			return fmt.Errorf("brim: state holdUntil[%d]=%v is not finite", i, h)
		}
	}
	for i, s := range st.HoldTarget {
		if s < -1 || s > 1 {
			return fmt.Errorf("brim: state holdTarget[%d]=%d", i, s)
		}
	}
	if math.IsNaN(st.T) || math.IsInf(st.T, 0) || st.T < 0 ||
		math.IsNaN(st.Horizon) || math.IsInf(st.Horizon, 0) || st.Horizon < 0 ||
		math.IsNaN(st.NextFlip) || math.IsInf(st.NextFlip, 0) || st.NextFlip < 0 {
		return fmt.Errorf("brim: state times t=%v horizon=%v nextFlip=%v", st.T, st.Horizon, st.NextFlip)
	}
	// The advance loop walks t forward by dt and nextFlip forward by the
	// flip interval until they pass each other: a t too large for dt to
	// resolve against, or a nextFlip far behind t, would spin it
	// (practically) forever. A real machine's draw is always ahead of
	// its clock.
	if st.T > ma.dt*(1<<40) || st.NextFlip < st.T-1e-9 {
		return fmt.Errorf("brim: state clock t=%v nextFlip=%v cannot be advanced with dt=%v", st.T, st.NextFlip, ma.dt)
	}
	if st.Flips < 0 || st.Induced < 0 || st.Steps < 0 || st.StepRetries < 0 {
		return errors.New("brim: negative state counters")
	}
	copy(ma.v, st.V)
	copy(ma.latch.Ext, st.Ext)
	copy(ma.spins, st.Spins)
	copy(ma.holdUntil, st.HoldUntil)
	copy(ma.holdTarget, st.HoldTarget)
	ma.t = st.T
	ma.horizon = st.Horizon
	ma.nextFlip = st.NextFlip
	ma.flips = st.Flips
	ma.induced = st.Induced
	ma.steps = st.Steps
	ma.stepRetries = st.StepRetries
	ma.epochRetries = 0
	ma.r.SetState(st.RNG)
	return nil
}
