// Package interconnect models the digital fabric of the multiprocessor
// Ising machine (Sec 5.3): per-chip dedicated channels with finite
// bandwidth, broadcast update traffic, and the congestion-induced
// stalling that forces the machine's physics to slow down when demand
// exceeds supply.
//
// The model is epoch-oriented, matching how the architecture operates:
// chips accumulate egress traffic during an epoch of model time; at
// the epoch boundary the fabric computes how much longer than the
// epoch the slowest chip needs to drain its traffic. That excess is
// the stall — wall-clock (model) time during which the dynamical
// system is held, exactly the "slow down the machine to match the
// fabric" coping strategy of Sec 5.3. A fabric with zero rate is
// unlimited (the 3D-integration case, mBRIM_3D).
package interconnect

import (
	"fmt"
	"math"
	"math/bits"

	"mbrim/internal/obs"
)

// Fabric tracks traffic and stalls for a k-chip system.
type Fabric struct {
	numChips   int
	channels   int
	bytesPerNS float64 // per channel; 0 = unlimited

	topology   Topology
	epochBytes []float64 // egress accumulated this epoch, per chip
	totalBytes float64
	byKind     map[string]float64
	// epochByKind splits the open epoch's traffic by kind; EndEpoch
	// snapshots it into lastEpochByKind and clears it, so injected
	// retransmit/resync traffic stays distinguishable per epoch.
	epochByKind     map[string]float64
	lastEpochByKind map[string]float64
	stallNS         float64
	epochs          int
	peakDemand      float64 // max per-chip bytes/ns demand seen in any epoch
}

// New builds a fabric for numChips chips, each with `channels`
// dedicated egress channels of bytesPerNS bytes per nanosecond
// (1 GB/s = 1 byte/ns). bytesPerNS = 0 models unlimited bandwidth.
// Invalid arguments are reported as an error — this is the public
// configuration boundary.
func New(numChips, channels int, bytesPerNS float64) (*Fabric, error) {
	if numChips < 1 {
		return nil, fmt.Errorf("interconnect: numChips=%d, want >= 1", numChips)
	}
	if channels < 1 {
		return nil, fmt.Errorf("interconnect: channels=%d, want >= 1", channels)
	}
	if bytesPerNS < 0 || math.IsNaN(bytesPerNS) {
		return nil, fmt.Errorf("interconnect: bytesPerNS=%v, want >= 0", bytesPerNS)
	}
	return &Fabric{
		numChips:        numChips,
		channels:        channels,
		bytesPerNS:      bytesPerNS,
		epochBytes:      make([]float64, numChips),
		byKind:          make(map[string]float64),
		epochByKind:     make(map[string]float64),
		lastEpochByKind: make(map[string]float64),
	}, nil
}

// Unlimited reports whether the fabric has no bandwidth constraint.
func (f *Fabric) Unlimited() bool { return f.bytesPerNS == 0 }

// EgressRate returns a chip's total egress bandwidth in bytes/ns, or
// +Inf for an unlimited fabric.
func (f *Fabric) EgressRate() float64 {
	if f.Unlimited() {
		return math.Inf(1)
	}
	return f.bytesPerNS * float64(f.channels)
}

// Record charges `bytes` of egress traffic to chip for the current
// epoch, tagged with a kind for the traffic breakdown ("flip",
// "sync", "induced", ...).
func (f *Fabric) Record(chip int, bytes float64, kind string) {
	if chip < 0 || chip >= f.numChips {
		panic(fmt.Sprintf("interconnect: chip %d of %d", chip, f.numChips))
	}
	if bytes < 0 || math.IsNaN(bytes) {
		panic(fmt.Sprintf("interconnect: bytes=%v", bytes))
	}
	f.epochBytes[chip] += bytes
	f.totalBytes += bytes
	f.byKind[kind] += bytes
	f.epochByKind[kind] += bytes
}

// EndEpoch closes an epoch of epochNS model time: it returns the stall
// the system must take so every chip can drain its egress, accumulates
// statistics, and clears the per-epoch buckets. The returned stall is
// max over chips of (bytes/rate − epochNS), floored at zero.
func (f *Fabric) EndEpoch(epochNS float64) float64 {
	if epochNS <= 0 {
		panic(fmt.Sprintf("interconnect: epochNS=%v", epochNS))
	}
	f.epochs++
	for chip := range f.epochBytes {
		if demand := f.epochBytes[chip] / epochNS; demand > f.peakDemand {
			f.peakDemand = demand
		}
	}
	stall := f.epochStall(epochNS)
	for chip := range f.epochBytes {
		f.epochBytes[chip] = 0
	}
	f.epochByKind, f.lastEpochByKind = f.lastEpochByKind, f.epochByKind
	clear(f.epochByKind)
	f.stallNS += stall
	return stall
}

// EndEpochSpanned is EndEpoch with the settlement recorded for span
// tracing: when the epoch stalls (demand exceeded supply), the stall
// becomes a "fabric_settle" interval of its own length, anchored at
// atNS on the trace timeline and nested under parent. A nil spanner —
// or a congestion-free epoch — reduces to EndEpoch exactly.
func (f *Fabric) EndEpochSpanned(epochNS float64, sp *obs.Spanner, parent obs.Span, atNS float64) float64 {
	stall := f.EndEpoch(epochNS)
	if sp != nil && stall > 0 {
		sp.Complete("fabric_settle", parent, -1, atNS, stall, 0,
			&obs.Event{StallNS: stall})
	}
	return stall
}

// TotalBytes returns all traffic recorded so far.
func (f *Fabric) TotalBytes() float64 { return f.totalBytes }

// BytesByKind returns the cumulative traffic recorded under the given
// tag across the whole run.
func (f *Fabric) BytesByKind(kind string) float64 { return f.byKind[kind] }

// EpochBytesByKind returns the traffic recorded under the given tag
// during the most recently closed epoch. The bucket resets at every
// EndEpoch, so per-epoch breakdowns (sync vs retransmit vs resync)
// stay distinguishable from the cumulative totals.
func (f *Fabric) EpochBytesByKind(kind string) float64 { return f.lastEpochByKind[kind] }

// Kinds returns the traffic tags seen so far, in no particular order.
func (f *Fabric) Kinds() []string {
	out := make([]string, 0, len(f.byKind))
	for k := range f.byKind {
		out = append(out, k)
	}
	return out
}

// StallNS returns the cumulative congestion stall.
func (f *Fabric) StallNS() float64 { return f.stallNS }

// AddStall charges extra hold time directly — the honest accounting
// path for recovery costs (retransmit backoff, repartition
// reprogramming) that stall the machine without being congestion.
func (f *Fabric) AddStall(ns float64) {
	if ns < 0 || math.IsNaN(ns) {
		panic(fmt.Sprintf("interconnect: AddStall(%v)", ns))
	}
	f.stallNS += ns
}

// Epochs returns how many epochs have been closed.
func (f *Fabric) Epochs() int { return f.epochs }

// PeakDemand returns the highest per-chip bytes/ns demand observed in
// any single epoch — the peak-bandwidth number of Sec 6.5.
func (f *Fabric) PeakDemand() float64 { return f.peakDemand }

// --- Checkpointing ----------------------------------------------------

// State is a snapshot of the fabric's cumulative accounting, for
// checkpoint/resume. It must be captured at an epoch boundary — after
// EndEpoch — when the open-epoch buckets are empty; the snapshot
// therefore carries only closed-epoch totals.
type State struct {
	TotalBytes float64            `json:"totalBytes"`
	StallNS    float64            `json:"stallNS"`
	PeakDemand float64            `json:"peakDemand"`
	Epochs     int                `json:"epochs"`
	ByKind     map[string]float64 `json:"byKind,omitempty"`
	// LastEpochByKind is the most recently closed epoch's per-kind
	// breakdown, kept so EpochBytesByKind stays truthful across a
	// resume.
	LastEpochByKind map[string]float64 `json:"lastEpochByKind,omitempty"`
}

// Snapshot captures the fabric's accounting at an epoch boundary.
func (f *Fabric) Snapshot() *State {
	st := &State{
		TotalBytes:      f.totalBytes,
		StallNS:         f.stallNS,
		PeakDemand:      f.peakDemand,
		Epochs:          f.epochs,
		ByKind:          make(map[string]float64, len(f.byKind)),
		LastEpochByKind: make(map[string]float64, len(f.lastEpochByKind)),
	}
	for k, v := range f.byKind {
		st.ByKind[k] = v
	}
	for k, v := range f.lastEpochByKind {
		st.LastEpochByKind[k] = v
	}
	return st
}

// Restore loads a snapshot onto a fabric built with the same
// configuration, clearing the open-epoch buckets. Snapshots may come
// from untrusted checkpoint bytes, so invalid accounting is reported
// as an error rather than loaded.
func (f *Fabric) Restore(st *State) error {
	if st == nil {
		return fmt.Errorf("interconnect: nil fabric state")
	}
	if st.TotalBytes < 0 || math.IsNaN(st.TotalBytes) || math.IsInf(st.TotalBytes, 0) ||
		st.StallNS < 0 || math.IsNaN(st.StallNS) || math.IsInf(st.StallNS, 0) ||
		st.PeakDemand < 0 || math.IsNaN(st.PeakDemand) || math.IsInf(st.PeakDemand, 0) ||
		st.Epochs < 0 {
		return fmt.Errorf("interconnect: invalid fabric state: total=%v stall=%v peak=%v epochs=%d",
			st.TotalBytes, st.StallNS, st.PeakDemand, st.Epochs)
	}
	for k, v := range st.ByKind {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("interconnect: invalid fabric state: byKind[%q]=%v", k, v)
		}
	}
	for k, v := range st.LastEpochByKind {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("interconnect: invalid fabric state: lastEpochByKind[%q]=%v", k, v)
		}
	}
	f.totalBytes = st.TotalBytes
	f.stallNS = st.StallNS
	f.peakDemand = st.PeakDemand
	f.epochs = st.Epochs
	f.byKind = make(map[string]float64, len(st.ByKind))
	for k, v := range st.ByKind {
		f.byKind[k] = v
	}
	f.lastEpochByKind = make(map[string]float64, len(st.LastEpochByKind))
	for k, v := range st.LastEpochByKind {
		f.lastEpochByKind[k] = v
	}
	clear(f.epochByKind)
	for chip := range f.epochBytes {
		f.epochBytes[chip] = 0
	}
	return nil
}

// --- Message sizing ---------------------------------------------------

// SpinIndexBits returns the bits needed to name one of n spins —
// ceil(log2(n)), minimum 1. A flip update is one spin index; the new
// value is implied because updates are toggles.
func SpinIndexBits(n int) int {
	if n < 1 {
		panic(fmt.Sprintf("interconnect: SpinIndexBits(%d)", n))
	}
	if n == 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// FlipUpdateBytes returns the broadcast cost of one spin-flip update
// in a system of n total spins reaching fanout destination chips: the
// paper's f_s·N·log(N) demand comes from charging log2(N) bits per
// flip per destination.
func FlipUpdateBytes(n, fanout int) float64 {
	if fanout < 0 {
		panic(fmt.Sprintf("interconnect: fanout=%d", fanout))
	}
	return float64(SpinIndexBits(n)) / 8 * float64(fanout)
}

// DeltaSyncBytes returns the epoch-boundary cost of communicating
// `changes` bit changes out of `local` owned spins to fanout chips.
// The encoder picks the cheaper of an index list (changes·log2(local))
// and a full bitmap (local bits) — the batch-mode saving of Sec 5.5
// comes from changes being far fewer than flips.
func DeltaSyncBytes(changes, local, fanout int) float64 {
	if changes < 0 || changes > local {
		panic(fmt.Sprintf("interconnect: changes=%d local=%d", changes, local))
	}
	if fanout < 0 {
		panic(fmt.Sprintf("interconnect: fanout=%d", fanout))
	}
	indexList := float64(changes * SpinIndexBits(local))
	bitmap := float64(local)
	bits := math.Min(indexList, bitmap)
	return bits / 8 * float64(fanout)
}
