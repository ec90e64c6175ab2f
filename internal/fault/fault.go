// Package fault is the deterministic fault-injection layer for the
// multiprocessor's digital fabric and chips. The paper's multi-chip
// gains rest on every epoch-boundary synchronization arriving intact;
// follow-up analyses (see PAPERS.md: "Limitations in Parallel Ising
// Machine Networks") show that stale or lost inter-chip updates are
// exactly where parallel Ising networks break down. This package lets
// the simulator model — and, with the recovery policies, survive — an
// imperfect fabric instead of an ideal one.
//
// # Fault model
//
// Four injectable fault classes, all seed-driven and independent of
// host scheduling:
//
//   - message drop: a chip's epoch-boundary broadcast is lost; the
//     sender believes it delivered, so receiver shadows silently go
//     stale (belief divergence).
//   - message corruption: the broadcast arrives with one update's
//     value inverted; receivers apply garbage.
//   - message delay: the broadcast arrives one epoch late.
//   - chip stall: a chip's analog integration freezes for one epoch
//     (its digital logic — PRNG, kick latch, fabric port — keeps
//     clocking, so coordinated-kick streams stay aligned).
//   - chip loss: one chip dies permanently at a configured epoch; its
//     slice freezes unless the repartition recovery is enabled.
//
// # Determinism
//
// Every decision is derived by stateless splitmix64 hashing of
// (seed, domain, epoch, chip, attempt) — no shared stream is consumed
// — so the schedule is bit-identical whether the chips are simulated
// sequentially or on host goroutines, and identical across runs for
// the same seed. This is what makes resilience sweeps reproducible.
//
// # Recovery policies
//
// Each policy is charged honestly in the cost model (fabric bytes plus
// stall ns, the recovery share of each counted in Stats), never applied
// for free:
//
//   - Detect: CRC-style detection with bounded retransmit-and-backoff.
//     A faulted message is detected and retransmitted up to
//     MaxRetransmits times; every attempt re-charges the message bytes
//     (RetransmitBytes) and adds RetransmitBackoffNS of stall. If
//     every attempt faults, the sender knows delivery failed and keeps
//     its belief ledger stale, so the changes resend naturally at the
//     next boundary.
//   - WatchdogThreshold: a shadow-staleness watchdog. When the
//     fraction of a chip's owned spins whose receiver shadows diverge
//     from its true readout exceeds the threshold, the chip broadcasts
//     a full bitmap of its slice (ResyncBytes), repairing all
//     shadows at full-bitmap cost.
//   - Repartition: graceful degradation on chip loss. The dead chip's
//     spins are redistributed round-robin onto the survivors, which
//     are reprogrammed (interconnect.ReprogramNSPerSpin stall per moved
//     spin plus a state broadcast, ResyncBytes) and the run continues at
//     reduced capacity.
package fault

import (
	"fmt"
	"math"

	"mbrim/internal/rng"
)

// Recovery configures the recovery policies. The zero value disables
// all of them: faults land and nothing fights back.
type Recovery struct {
	// Detect enables CRC-style fault detection with bounded
	// retransmission of faulted boundary messages.
	Detect bool
	// MaxRetransmits bounds the retries per message. Default 3 when
	// Detect is set.
	MaxRetransmits int
	// RetransmitBackoffNS is the stall charged per retransmit attempt
	// (detection latency + turnaround). Default 0.5 ns when Detect is
	// set.
	RetransmitBackoffNS float64
	// WatchdogThreshold, if > 0, enables the shadow-staleness watchdog:
	// when a chip's receiver-shadow divergence fraction exceeds the
	// threshold at an epoch boundary, a full-bitmap resync is forced.
	WatchdogThreshold float64
	// Repartition enables graceful degradation on chip loss: the dead
	// chip's slice is repartitioned onto the survivors, which stall
	// interconnect.ReprogramNSPerSpin per moved spin, and the run
	// continues.
	Repartition bool
}

// Config parameterizes the injector. The zero value injects nothing;
// see Enabled.
type Config struct {
	// Seed drives every fault decision. Independent of the system
	// seed so fault schedules can be varied against a fixed problem.
	Seed uint64
	// DropRate is the per-message probability that an epoch-boundary
	// broadcast is lost.
	DropRate float64
	// CorruptRate is the per-message probability that a broadcast
	// arrives with one update inverted.
	CorruptRate float64
	// DelayRate is the per-message probability that a broadcast is
	// delivered one epoch late.
	DelayRate float64
	// StallRate is the per-chip per-epoch probability of a transient
	// integration stall.
	StallRate float64
	// ChipLossEpoch, if > 0, kills one chip permanently at the start
	// of that (1-based) epoch.
	ChipLossEpoch int
	// ChipLossChip selects the victim; -1 picks one from the seed.
	ChipLossChip int
	// Recovery selects the recovery policies.
	Recovery Recovery
}

// Enabled reports whether the configuration injects any fault at all.
// A disabled config must leave simulations bit-identical to runs with
// no fault layer.
func (c Config) Enabled() bool {
	return c.DropRate > 0 || c.CorruptRate > 0 || c.DelayRate > 0 ||
		c.StallRate > 0 || c.ChipLossEpoch > 0
}

// Validate checks the configuration against a system of `chips` chips.
func (c Config) Validate(chips int) error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"DropRate", c.DropRate},
		{"CorruptRate", c.CorruptRate},
		{"DelayRate", c.DelayRate},
		{"StallRate", c.StallRate},
	} {
		if math.IsNaN(r.v) || r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s=%v outside [0,1]", r.name, r.v)
		}
	}
	if c.ChipLossEpoch < 0 {
		return fmt.Errorf("fault: ChipLossEpoch=%d", c.ChipLossEpoch)
	}
	if c.ChipLossChip < -1 || c.ChipLossChip >= chips {
		return fmt.Errorf("fault: ChipLossChip=%d for %d chips", c.ChipLossChip, chips)
	}
	r := c.Recovery
	if r.MaxRetransmits < 0 {
		return fmt.Errorf("fault: MaxRetransmits=%d", r.MaxRetransmits)
	}
	if math.IsNaN(r.RetransmitBackoffNS) || r.RetransmitBackoffNS < 0 {
		return fmt.Errorf("fault: RetransmitBackoffNS=%v", r.RetransmitBackoffNS)
	}
	if math.IsNaN(r.WatchdogThreshold) || r.WatchdogThreshold < 0 || r.WatchdogThreshold > 1 {
		return fmt.Errorf("fault: WatchdogThreshold=%v outside [0,1]", r.WatchdogThreshold)
	}
	return nil
}

// withDefaults fills the recovery defaults.
func (c Config) withDefaults() Config {
	out := c
	if out.Recovery.Detect {
		if out.Recovery.MaxRetransmits == 0 {
			out.Recovery.MaxRetransmits = 3
		}
		if out.Recovery.RetransmitBackoffNS == 0 {
			out.Recovery.RetransmitBackoffNS = 0.5
		}
	}
	return out
}

// MessagePlan is the injector's verdict on one boundary broadcast
// attempt. Drop wins over Corrupt; Delay composes with a clean
// delivery. Salt picks which update a corruption mangles.
type MessagePlan struct {
	Drop    bool
	Corrupt bool
	Delay   bool
	Salt    uint64
}

// Faulted reports whether the attempt is damaged (dropped or
// corrupted) — the condition CRC-style detection catches.
func (p MessagePlan) Faulted() bool { return p.Drop || p.Corrupt }

// Injector hands out deterministic fault decisions. It is stateless
// after construction and therefore safe for concurrent use from chip
// goroutines.
type Injector struct {
	cfg      Config
	chips    int
	lossChip int
}

// NewInjector validates cfg for a system of `chips` chips and builds
// the injector, applying recovery defaults.
func NewInjector(cfg Config, chips int) (*Injector, error) {
	if chips < 1 {
		return nil, fmt.Errorf("fault: chips=%d", chips)
	}
	if err := cfg.Validate(chips); err != nil {
		return nil, err
	}
	in := &Injector{cfg: cfg.withDefaults(), chips: chips, lossChip: cfg.ChipLossChip}
	if cfg.ChipLossEpoch > 0 && cfg.ChipLossChip == -1 {
		in.lossChip = rng.New(cfg.Seed).Fork(0x1055).Intn(chips)
	}
	return in, nil
}

// Config returns the (defaulted) configuration in effect.
func (in *Injector) Config() Config { return in.cfg }

// Hash domains: distinct streams per decision class so adding one
// fault class never perturbs another's schedule.
const (
	domainStall   = 0x57A11
	domainMessage = 0x4D5A6
)

// stream derives a fresh deterministic source for one decision site.
func (in *Injector) stream(domain, epoch, chip, attempt uint64) *rng.Source {
	s := in.cfg.Seed
	for _, v := range [...]uint64{domain, epoch, chip, attempt} {
		s = rng.Mix64(s + 0x9e3779b97f4a7c15*v)
	}
	return rng.New(s)
}

// ChipStalled reports whether chip's integration freezes for the given
// (1-based) epoch.
func (in *Injector) ChipStalled(epoch, chip int) bool {
	if in.cfg.StallRate <= 0 {
		return false
	}
	return in.stream(domainStall, uint64(epoch), uint64(chip), 0).Bool(in.cfg.StallRate)
}

// Message returns the fault plan for chip's boundary broadcast at the
// given (1-based) epoch. attempt 0 is the original send; attempts
// 1..MaxRetransmits are CRC-triggered retries, each redrawing its fate
// independently.
func (in *Injector) Message(epoch, chip, attempt int) MessagePlan {
	var p MessagePlan
	if in.cfg.DropRate <= 0 && in.cfg.CorruptRate <= 0 && in.cfg.DelayRate <= 0 {
		return p
	}
	r := in.stream(domainMessage, uint64(epoch), uint64(chip), uint64(attempt))
	p.Drop = r.Bool(in.cfg.DropRate)
	p.Corrupt = r.Bool(in.cfg.CorruptRate)
	p.Delay = r.Bool(in.cfg.DelayRate)
	p.Salt = r.Uint64()
	if p.Drop {
		p.Corrupt = false
	}
	return p
}

// LostChip reports which chip (if any) dies at the start of the given
// (1-based) epoch.
func (in *Injector) LostChip(epoch int) (chip int, lost bool) {
	if in.cfg.ChipLossEpoch == 0 || epoch != in.cfg.ChipLossEpoch {
		return -1, false
	}
	return in.lossChip, true
}

// Stats is the per-run ledger of injected faults and recovery work,
// reported alongside a run's result so resilience sweeps need no
// external registry.
type Stats struct {
	// Injected fault counts.
	Drops, Corruptions, Delays, Stalls, ChipLosses int64
	// Recovery activity: retransmit attempts, watchdog resyncs, and
	// repartitions performed.
	Retransmits, Resyncs, Repartitions int64
	// Recovery traffic: the bytes retransmits and resyncs charged to
	// the fabric, which counts them in its total beside the syncs.
	RetransmitBytes, ResyncBytes float64
	// RecoveryStallNS is the stall charged by recovery (retransmit
	// backoff + repartition reprogramming); included in the run's
	// total StallNS.
	RecoveryStallNS float64
}

// Any reports whether anything at all was injected or recovered.
func (s Stats) Any() bool {
	return s.Drops != 0 || s.Corruptions != 0 || s.Delays != 0 || s.Stalls != 0 ||
		s.ChipLosses != 0 || s.Retransmits != 0 || s.Resyncs != 0 || s.Repartitions != 0
}
