// Package multichip implements the paper's contribution: the
// multiprocessor Ising machine of Sec 5. A problem of N spins is
// sliced over k chips. Each chip holds:
//
//   - its owned spins, annealed by a full BRIM dynamical system over
//     the owned×owned block of the coupling matrix;
//   - shadow copies of every remote spin — registers holding a
//     delayed ±1 view of the rest of the system — whose influence
//     enters the local dynamics as an external bias current through
//     the owned×remote cross-couplings (exactly g = μh + J_× σ of
//     Eq. 3, realized in hardware rather than by glue software), stored
//     compressed by remote column, so a delivered bit costs the
//     couplings it touches and a sparse problem's chip holds O(nnz);
//   - a slice of the digital fabric that carries spin updates.
//
// What one chip does — integrate its slice, kick on the shared PRNG
// schedule (the coordinated induced-flip optimization of Sec 5.4.2),
// broadcast only the bits that changed at the epoch barrier — is
// implemented once, in Slice (slice.go). System schedules k slices in
// one process in three operating modes: concurrent (Sec 5.4) in
// system.go, sequential (the Sec 5.4.1 baseline) in sequential.go and
// batch (Sec 5.5) in batch.go — each only the body of an epoch, run
// inside the one epoch frame of frame.go; internal/cluster schedules one
// slice per worker process over a network. reconfig.go models the macrochip
// and the reconfigurable module array of Secs 4.2/5.2. surprise.go
// reproduces the energy-surprise probe of Fig 9.
package multichip

import (
	"fmt"

	"mbrim/internal/brim"
	"mbrim/internal/ising"
	"mbrim/internal/sched"
)

// chip is one processor of the multiprocessor: a BRIM machine over its
// owned spins, shadow registers for everything else, and the
// owned×remote couplings through which a shadow drives the machine.
type chip struct {
	id    int
	owned []int // global indices owned by this chip, ascending
	// local[g] is the local index of global spin g, −1 for a remote one.
	local []int32

	machine *brim.Machine
	// shadow is this chip's belief about every global spin. Entries
	// for owned spins mirror the machine readout; entries for remote
	// spins update only when the fabric delivers news.
	shadow []int8
	// The owned×remote couplings, compressed by remote column: entries
	// [colStart[g], colStart[g+1]) of crossLi / crossJ are the owned
	// spins (local index, ascending) coupled to global spin g and their
	// scaled couplings Ĵ = J/scale. Owned columns, and entries whose Ĵ
	// is zero, are absent. A shadow flip of g turns into external-bias
	// increments along column g.
	colStart []int32
	crossLi  []int32
	crossJ   []float64

	// lastFlipInduced tracks, per owned local spin, whether its most
	// recent readout change was an induced kick — the attribution used
	// to credit communication savings to coordination.
	lastFlipInduced []bool

	// Per-epoch counters, reset by the runtime at epoch boundaries.
	// epochKicks counts the induced-kick draws applied to owned spins
	// (the InducedKick trace event payload).
	epochFlips        int64
	epochInducedFlips int64
	epochKicks        int64
	// epochWallNS is the measured host wall time of this chip's last
	// epoch integration — recorded inside the worker when span tracing
	// is on, read at the barrier. Purely observational.
	epochWallNS int64

	// extScratch and spinScratch (one entry per owned spin) stage the
	// rebuilt bias vector and a warm-start slice for the machine, which
	// copies both; batch mode reloads them at every job switch.
	extScratch  []float64
	spinScratch []int8
}

// init builds chip id of the layout in place (its flip listener holds
// c, so a chip must not be copied afterwards), owning the given global
// indices of the problem, its machine seeded with seed and warm-started
// from the global state initial. Extraction scans the layout's coupling
// view twice per owned row (count, then fill), so sparse problems pay
// O(degree) instead of O(N) per spin, in time and in memory; the global
// coupling normalization is shared by all chips.
func (c *chip) init(l *layout, id int, owned []int, seed uint64, initial []int8) {
	if len(owned) == 0 {
		panic(fmt.Sprintf("multichip: chip %d owns no spins", id))
	}
	m, lat, scale := l.model, l.lat, l.scale
	n := l.n
	*c = chip{
		id:              id,
		owned:           append([]int(nil), owned...),
		local:           make([]int32, n),
		shadow:          make([]int8, n),
		colStart:        make([]int32, n+1),
		lastFlipInduced: make([]bool, len(owned)),
		extScratch:      make([]float64, len(owned)),
		spinScratch:     make([]int8, len(owned)),
	}
	for g := range c.local {
		c.local[g] = -1
	}
	for li, g := range c.owned {
		c.local[g] = int32(li)
	}

	// The first scan of each owned row splits it into the owned×owned
	// sub-model (biases come along so the machine applies μh itself)
	// and a count of each remote column's cross entries, pre-scaled like
	// the machine's own couplings; a scaled value that underflows to
	// zero is no entry.
	sb := ising.NewBuilder(len(owned))
	sb.SetMu(m.Mu())
	count := c.colStart[1:]
	for a, ga := range c.owned {
		sb.SetBias(a, m.Bias(ga))
		lat.Scan(ga, func(j int, v float64) {
			if lj := int(c.local[j]); lj >= 0 {
				if lj > a {
					sb.SetCoupling(a, lj, v)
				}
			} else if v/scale != 0 {
				count[j]++
			}
		})
	}
	sub, err := sb.Build()
	if err != nil { // every value came out of a Model
		panic(fmt.Sprintf("multichip: chip %d: %v", id, err))
	}
	for g := 0; g < n; g++ {
		c.colStart[g+1] += c.colStart[g]
	}
	// The second scan fills the columns. Rows come in ascending owned
	// order, so every column lists its owned spins ascending — the order
	// the bias accumulations below are pinned to.
	c.crossLi = make([]int32, c.colStart[n])
	c.crossJ = make([]float64, c.colStart[n])
	next := append([]int32(nil), c.colStart[:n]...)
	for a, ga := range c.owned {
		lat.Scan(ga, func(j int, v float64) {
			if c.local[j] >= 0 {
				return
			}
			if v /= scale; v != 0 {
				c.crossLi[next[j]], c.crossJ[next[j]] = int32(a), v
				next[j]++
			}
		})
	}

	// The machine runs in the layout of the model the system was handed,
	// not the one this block's own density would resolve to.
	c.machine = brim.New(sub.As(lat.Kind()), l.machineConfig(seed))
	c.machine.OnFlip(func(node int, newSpin int8, induced bool) {
		c.shadow[c.owned[node]] = newSpin
		c.lastFlipInduced[node] = induced
		c.epochFlips++
		if induced {
			c.epochInducedFlips++
		}
	})
	c.loadJobState(initial)
}

// machineConfig is the brim config of a chip's machine: seeded with
// seed, on the shared normalization, its own induced flips off (the
// runtime coordinates kicks itself), and kicked nodes latched long
// enough that a coordinated kick rarely reverts before the next fabric
// synchronization (the persistence Sec 5.4.2's free-of-communication
// claim needs), but never so long that long epochs freeze the dynamics:
// an epoch, at most two time constants.
func (l *layout) machineConfig(seed uint64) brim.Config {
	return brim.Config{Seed: seed, Scale: l.scale, InducedFlip: sched.Constant(0),
		KickHoldNS: min(l.cfg.EpochNS, 2)}
}

// recomputeExternalBias rebuilds the machine's external bias from the
// shadow registers in O(N + cross nnz). Used at construction and at
// batch job switches; incremental updates handle the common path. Each
// ext[li] starts at +0 and takes its Ĵ·σ_g products in ascending g —
// the sum a walk of owned spin li's cross row makes, with the bits
// checkpoints and goldens hold.
func (c *chip) recomputeExternalBias() {
	ext := c.extScratch
	clear(ext)
	for g, sg := range c.shadow {
		for k := c.colStart[g]; k < c.colStart[g+1]; k++ {
			ext[c.crossLi[k]] += float64(c.crossJ[k] * float64(sg))
		}
	}
	c.machine.SetExternalBias(ext)
}

// applyShadowUpdate records that remote global spin g now holds value
// s, updating the shadow register and the machine's bias currents
// incrementally. A no-op if the shadow already agrees.
func (c *chip) applyShadowUpdate(g int, s int8) {
	if c.local[g] >= 0 {
		panic(fmt.Sprintf("multichip: chip %d got shadow update for owned spin %d", c.id, g))
	}
	old := c.shadow[g]
	if old == s {
		return
	}
	c.shadow[g] = s
	lo, hi := c.colStart[g], c.colStart[g+1]
	c.machine.AddColumnBias(c.crossLi[lo:hi], c.crossJ[lo:hi], float64(s-old)) // ±2
}

// applyShadowToggle flips the shadow register of remote global spin g
// — the coordinated induced-flip path, where every chip reproduces the
// same kick decision locally instead of receiving it over the fabric.
func (c *chip) applyShadowToggle(g int) {
	old := c.shadow[g]
	if old == 0 {
		old = -1
	}
	c.applyShadowUpdate(g, -old)
}

// ownedSpins copies the current readout of the owned spins in owned
// order.
func (c *chip) ownedSpins() []int8 {
	return ising.CopySpins(c.machine.Spins())
}

// loadJobState context-switches the chip onto a job: shadows take the
// job's full global state, the machine warm-starts at the job's owned
// slice, and the bias currents are rebuilt. This is batch mode's state
// load, O(N + cross nnz) (versus the O(bN²) reprogram a context switch
// would cost if a whole job moved between machines, Sec 5.5).
func (c *chip) loadJobState(global []int8) {
	copy(c.shadow, global)
	local := c.spinScratch
	for li, g := range c.owned {
		local[li] = global[g]
	}
	c.machine.SetSpins(local)
	c.recomputeExternalBias()
}

// resetEpochCounters clears the per-epoch flip counters.
func (c *chip) resetEpochCounters() {
	c.epochFlips = 0
	c.epochInducedFlips = 0
	c.epochKicks = 0
}
