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
//     Eq. 3, realized in hardware rather than by glue software);
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
)

// chip is one processor of the multiprocessor: a BRIM machine over its
// owned spins plus shadow registers for everything else.
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
	// cross[i][j] is the scaled coupling Ĵ between owned spin i
	// (local index) and global spin j, zero for owned j. Shadow flips
	// turn into external-bias increments through these rows.
	cross [][]float64

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
// view once per owned row, so sparse problems pay O(degree) instead of
// O(N) per spin; the global coupling normalization is shared by all
// chips. The layout's Brim config drives the local dynamics (its
// InducedFlip schedule is overridden to zero — the runtime coordinates
// kicks itself).
func (c *chip) init(l *layout, id int, owned []int, seed uint64, initial []int8) {
	if len(owned) == 0 {
		panic(fmt.Sprintf("multichip: chip %d owns no spins", id))
	}
	m, lat, scale, epochNS := l.model, l.lat, l.scale, l.cfg.EpochNS
	n := l.n
	*c = chip{
		id:              id,
		owned:           append([]int(nil), owned...),
		local:           make([]int32, n),
		shadow:          make([]int8, n),
		cross:           make([][]float64, len(owned)),
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

	// One scan of each owned row splits it into the owned×owned
	// sub-model (biases come along so the machine applies μh itself)
	// and the owned×remote cross row, pre-scaled like the machine's own
	// couplings.
	sub := ising.NewModel(len(owned))
	sub.SetMu(m.Mu())
	for a, ga := range c.owned {
		sub.SetBias(a, m.Bias(ga))
		row := make([]float64, n)
		lat.Scan(ga, func(j int, v float64) {
			if lj := int(c.local[j]); lj >= 0 {
				if lj > a {
					sub.SetCoupling(a, lj, v)
				}
			} else {
				row[j] = v / scale
			}
		})
		c.cross[a] = row
	}

	mcfg := l.cfg.Brim
	mcfg.Seed = seed
	mcfg.Scale = scale
	mcfg.InducedFlip = zeroSchedule{}
	if mcfg.KickHoldNS == 0 {
		// Latch kicked nodes long enough that a coordinated kick rarely
		// reverts before the next fabric synchronization (the
		// persistence Sec 5.4.2's free-of-communication claim needs),
		// but never so long that long epochs freeze the dynamics.
		tau := mcfg.Tau
		if tau == 0 {
			tau = 1
		}
		mcfg.KickHoldNS = epochNS
		if cap := 2 * tau; mcfg.KickHoldNS > cap {
			mcfg.KickHoldNS = cap
		}
	}
	c.machine = brim.New(sub, mcfg)
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

// zeroSchedule disables the machine's internal induced flips.
type zeroSchedule struct{}

func (zeroSchedule) At(float64) float64 { return 0 }

// recomputeExternalBias rebuilds the machine's external bias from the
// shadow registers in O(owned × N). Used at construction and at batch
// job switches; incremental updates handle the common path.
func (c *chip) recomputeExternalBias() {
	ext := c.extScratch
	for li := range c.owned {
		row := c.cross[li]
		acc := 0.0
		for j, v := range row {
			if v != 0 {
				acc += v * float64(c.shadow[j])
			}
		}
		ext[li] = acc
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
	delta := float64(s - old) // ±2
	for li := range c.owned {
		if v := c.cross[li][g]; v != 0 {
			c.machine.AddExternalBias(li, v*delta)
		}
	}
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

// loadOwnedSpins warm-starts the machine at the given owned-order
// spins and mirrors them into the shadow view.
func (c *chip) loadOwnedSpins(s []int8) {
	c.machine.SetSpins(s)
	for li, g := range c.owned {
		c.shadow[g] = s[li]
	}
}

// loadJobState context-switches the chip onto a job: shadows take the
// job's full global state, the machine warm-starts at the job's owned
// slice, and the bias currents are rebuilt. This is batch mode's O(N)
// state load (versus the O(bN²) reprogram a context switch would cost
// if a whole job moved between machines, Sec 5.5).
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
