package multichip

import (
	"testing"

	"mbrim/internal/fault"
	"mbrim/internal/obs"
)

// faultyCfg is a base system config with every message/chip fault
// class active, against a finite fabric.
func faultyCfg(seed uint64) Config {
	return Config{
		Chips: 4, Seed: 1, EpochNS: 5,
		Faults: fault.Config{
			Seed:        seed,
			DropRate:    0.2,
			CorruptRate: 0.15,
			DelayRate:   0.15,
			StallRate:   0.1,
		},
	}
}

func TestImpotentFaultLayerBitIdentical(t *testing.T) {
	// Acceptance pin: with every fault rate zero, each run mode must be
	// bit-identical to the fault-free simulation. The fault layer here
	// is *armed* (a chip loss scheduled far past the horizon) so the
	// faultSend/beginFaultEpoch plumbing runs, yet injects nothing.
	m := kgraph(64, 1)
	armed := fault.Config{ChipLossEpoch: 1 << 20}
	base := Config{Chips: 4, Seed: 2, EpochNS: 5}
	withF := base
	withF.Faults = armed

	type run func(c Config) *Result
	for name, r := range map[string]run{
		"concurrent": func(c Config) *Result { return MustSystem(m, c).RunConcurrent(40) },
		"sequential": func(c Config) *Result { return MustSystem(m, c).RunSequential(40) },
	} {
		a, b := r(base), r(withF)
		if a.Energy != b.Energy || a.StallNS != b.StallNS ||
			a.TrafficBytes != b.TrafficBytes || a.BitChanges != b.BitChanges ||
			a.Flips != b.Flips || a.ElapsedNS != b.ElapsedNS {
			t.Fatalf("%s: armed-but-impotent fault layer changed the run:\n%+v\nvs\n%+v",
				name, summarize(a), summarize(b))
		}
		for i := range a.Spins {
			if a.Spins[i] != b.Spins[i] {
				t.Fatalf("%s: spin %d differs", name, i)
			}
		}
	}
	ba := MustSystem(m, base).RunBatch(4, 40)
	bb := MustSystem(m, withF).RunBatch(4, 40)
	if ba.BestEnergy != bb.BestEnergy || ba.TrafficBytes != bb.TrafficBytes ||
		ba.StallNS != bb.StallNS || ba.BitChanges != bb.BitChanges {
		t.Fatal("batch: armed-but-impotent fault layer changed the run")
	}
}

func summarize(r *Result) map[string]float64 {
	return map[string]float64{
		"energy": r.Energy, "stall": r.StallNS, "traffic": r.TrafficBytes,
		"changes": float64(r.BitChanges), "flips": float64(r.Flips), "elapsed": r.ElapsedNS,
	}
}

func TestFaultsEmitTypedEvents(t *testing.T) {
	m := kgraph(64, 3)
	cfg := faultyCfg(11)
	ring := obs.NewRing(4096)
	cfg.Tracer = ring
	res := MustSystem(m, cfg).RunConcurrent(60)
	byLabel := map[string]int{}
	for _, e := range ring.Events() {
		if e.Kind == obs.Fault {
			byLabel[e.Label]++
		}
	}
	if int64(byLabel["drop"]) != res.FaultStats.Drops ||
		int64(byLabel["corrupt"]) != res.FaultStats.Corruptions ||
		int64(byLabel["delay"]) != res.FaultStats.Delays ||
		int64(byLabel["stall"]) != res.FaultStats.Stalls {
		t.Fatalf("event counts %v disagree with ledger %+v", byLabel, res.FaultStats)
	}
}

func TestChipLossWithoutRecoveryDegrades(t *testing.T) {
	m := kgraph(64, 5)
	cfg := Config{Chips: 4, Seed: 4, EpochNS: 5,
		Faults: fault.Config{ChipLossEpoch: 3, ChipLossChip: 1}}
	res := MustSystem(m, cfg).RunConcurrent(60)
	if res.LiveChips != 3 {
		t.Fatalf("LiveChips = %d, want 3", res.LiveChips)
	}
	if res.FaultStats.ChipLosses != 1 {
		t.Fatalf("ChipLosses = %d", res.FaultStats.ChipLosses)
	}
	if len(res.Spins) != 64 {
		t.Fatal("run did not produce a full state")
	}
}

func TestChipLossRepartitionCompletes(t *testing.T) {
	// Acceptance pin: a chip-loss run with graceful degradation enabled
	// completes via repartition, at reduced capacity, with the recovery
	// charged in bytes and stall.
	m := kgraph(64, 5)
	cfg := Config{Chips: 4, Seed: 4, EpochNS: 5,
		Faults: fault.Config{ChipLossEpoch: 3, ChipLossChip: 1,
			Recovery: fault.Recovery{Repartition: true}}}
	sys := MustSystem(m, cfg)
	res := sys.RunConcurrent(60)
	if res.LiveChips != 3 {
		t.Fatalf("LiveChips = %d, want 3 survivors", res.LiveChips)
	}
	if res.FaultStats.Repartitions != 1 {
		t.Fatalf("Repartitions = %d", res.FaultStats.Repartitions)
	}
	if res.FaultStats.ResyncBytes <= 0 {
		t.Fatal("repartition resync traffic not charged")
	}
	if res.FaultStats.RecoveryStallNS <= 0 {
		t.Fatal("repartition reprogramming stall not charged")
	}
	recoveryInTotals(t, res)
	if len(res.Spins) != 64 {
		t.Fatal("repartitioned run did not produce a full state")
	}
	if res.Energy >= 0 {
		t.Fatalf("no annealing progress after repartition: %v", res.Energy)
	}
	// The survivors jointly own every spin exactly once.
	seen := make([]bool, 64)
	for _, c := range chipsOf(sys) {
		for _, g := range c.owned {
			if seen[g] {
				t.Fatalf("spin %d owned twice after repartition", g)
			}
			seen[g] = true
		}
	}
	for g, ok := range seen {
		if !ok {
			t.Fatalf("spin %d orphaned after repartition", g)
		}
	}
}

func TestDetectRetransmitAccounting(t *testing.T) {
	m := kgraph(64, 7)
	cfg := Config{Chips: 4, Seed: 6, EpochNS: 5,
		Faults: fault.Config{Seed: 1, DropRate: 0.3,
			Recovery: fault.Recovery{Detect: true}}}
	sys := MustSystem(m, cfg)
	res := sys.RunConcurrent(80)
	if res.FaultStats.Drops == 0 {
		t.Fatal("no drops injected — accounting test is vacuous")
	}
	if res.FaultStats.Retransmits == 0 {
		t.Fatal("detection enabled but no retransmits")
	}
	if res.FaultStats.RetransmitBytes <= 0 {
		t.Fatal("retransmit traffic not charged")
	}
	if res.FaultStats.RecoveryStallNS <= 0 {
		t.Fatal("retransmit backoff stall not charged")
	}
	recoveryInTotals(t, res)
}

// recoveryInTotals: the recovery bytes and stall of res.FaultStats are
// counted in the run's fabric traffic and stall.
func recoveryInTotals(t *testing.T, res *Result) {
	t.Helper()
	fs := res.FaultStats
	if res.TrafficBytes < fs.RetransmitBytes+fs.ResyncBytes {
		t.Fatalf("TrafficBytes %v below recovery bytes %v + %v", res.TrafficBytes, fs.RetransmitBytes, fs.ResyncBytes)
	}
	if res.StallNS < fs.RecoveryStallNS-1e-9 {
		t.Fatalf("StallNS %v missing recovery stall %v", res.StallNS, fs.RecoveryStallNS)
	}
}

func TestDetectRecoversQuality(t *testing.T) {
	// Under heavy silent drops the final believed/true states drift;
	// detection + retransmit must keep the run's shadow coherence far
	// better. Compare end-state divergence between the two policies.
	m := kgraph(96, 9)
	divergence := func(detect bool) float64 {
		cfg := Config{Chips: 4, Seed: 8, EpochNS: 5,
			Faults: fault.Config{Seed: 2, DropRate: 0.5,
				Recovery: fault.Recovery{Detect: detect}}}
		sys := MustSystem(m, cfg)
		sys.RunConcurrent(60)
		truth := sys.GlobalSpins()
		stale := 0
		remote := 0
		for _, c := range chipsOf(sys) {
			for g := 0; g < len(truth); g++ {
				if c.local[g] >= 0 {
					continue
				}
				remote++
				if c.shadow[g] != truth[g] {
					stale++
				}
			}
		}
		return float64(stale) / float64(remote)
	}
	bare := divergence(false)
	detected := divergence(true)
	if bare == 0 {
		t.Fatal("heavy drops caused no divergence — test is vacuous")
	}
	if detected >= bare {
		t.Fatalf("detection did not reduce divergence: bare %v vs detected %v", bare, detected)
	}
}

func TestWatchdogResync(t *testing.T) {
	m := kgraph(64, 11)
	cfg := Config{Chips: 4, Seed: 10, EpochNS: 5,
		Faults: fault.Config{Seed: 3, DropRate: 0.6,
			Recovery: fault.Recovery{WatchdogThreshold: 0.05}}}
	sys := MustSystem(m, cfg)
	res := sys.RunConcurrent(80)
	if res.FaultStats.Resyncs == 0 {
		t.Fatal("watchdog never fired under heavy drops")
	}
	if res.FaultStats.ResyncBytes <= 0 {
		t.Fatal("watchdog resync traffic not charged")
	}
	recoveryInTotals(t, res)
}

func TestFaultySequentialAndBatchComplete(t *testing.T) {
	m := kgraph(64, 13)
	seqCfg := faultyCfg(21)
	seqCfg.Faults.ChipLossEpoch = 5
	seqCfg.Faults.ChipLossChip = -1
	seqCfg.Faults.Recovery = fault.Recovery{Detect: true, Repartition: true}
	res := MustSystem(m, seqCfg).RunSequential(40)
	if res.LiveChips != 3 || res.FaultStats.Repartitions != 1 {
		t.Fatalf("sequential loss+repartition: live=%d stats=%+v", res.LiveChips, res.FaultStats)
	}
	if len(res.Spins) != 64 {
		t.Fatal("sequential faulty run incomplete")
	}

	batchCfg := faultyCfg(22)
	batchCfg.Faults.ChipLossEpoch = 4
	batchCfg.Faults.ChipLossChip = 2
	batchCfg.Faults.Recovery = fault.Recovery{Detect: true, Repartition: true}
	bres := MustSystem(m, batchCfg).RunBatch(6, 40)
	if bres.LiveChips != 3 || bres.FaultStats.Repartitions != 1 {
		t.Fatalf("batch loss+repartition: live=%d stats=%+v", bres.LiveChips, bres.FaultStats)
	}
	if bres.Best < 0 || len(bres.Jobs[bres.Best]) != 64 {
		t.Fatal("batch faulty run incomplete")
	}
}
