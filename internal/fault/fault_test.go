package fault

import (
	"math"
	"testing"
)

func TestZeroConfigDisabled(t *testing.T) {
	var c Config
	if c.Enabled() {
		t.Fatal("zero config must be disabled")
	}
	if err := c.Validate(4); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	if (Stats{}).Any() {
		t.Fatal("zero stats must report nothing")
	}
}

func TestValidateRejects(t *testing.T) {
	for name, cfg := range map[string]Config{
		"drop > 1":        {DropRate: 1.5},
		"neg corrupt":     {CorruptRate: -0.1},
		"nan delay":       {DelayRate: math.NaN()},
		"stall > 1":       {StallRate: 2},
		"neg loss epoch":  {ChipLossEpoch: -1},
		"loss chip range": {ChipLossEpoch: 1, ChipLossChip: 4},
		"loss chip low":   {ChipLossEpoch: 1, ChipLossChip: -2},
		"neg retries":     {Recovery: Recovery{MaxRetransmits: -1}},
		"neg backoff":     {Recovery: Recovery{RetransmitBackoffNS: -1}},
		"watchdog > 1":    {Recovery: Recovery{WatchdogThreshold: 1.5}},
	} {
		if err := cfg.Validate(4); err == nil {
			t.Fatalf("%s passed validation", name)
		}
		if _, err := NewInjector(cfg, 4); err == nil {
			t.Fatalf("%s passed NewInjector", name)
		}
	}
}

func TestRecoveryDefaults(t *testing.T) {
	in, err := NewInjector(Config{DropRate: 0.1,
		Recovery: Recovery{Detect: true, Repartition: true}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := in.Config().Recovery
	if r.MaxRetransmits != 3 || r.RetransmitBackoffNS != 0.5 {
		t.Fatalf("defaults not applied: %+v", r)
	}
}

func TestMessageDeterminism(t *testing.T) {
	// Identical (seed, epoch, chip, attempt) → identical plan, however
	// many times and in whatever order the injector is consulted. This
	// is the property that makes fault schedules independent of host
	// scheduling (Parallel on/off).
	a, _ := NewInjector(Config{Seed: 7, DropRate: 0.3, CorruptRate: 0.2, DelayRate: 0.2}, 4)
	b, _ := NewInjector(Config{Seed: 7, DropRate: 0.3, CorruptRate: 0.2, DelayRate: 0.2}, 4)
	for epoch := 1; epoch <= 50; epoch++ {
		for chip := 0; chip < 4; chip++ {
			for attempt := 0; attempt < 3; attempt++ {
				pa := a.Message(epoch, chip, attempt)
				// Consult b in a scrambled, repeated pattern.
				_ = b.Message(epoch+1, chip, attempt)
				pb := b.Message(epoch, chip, attempt)
				if pa != pb {
					t.Fatalf("plan diverged at e=%d c=%d a=%d: %+v vs %+v",
						epoch, chip, attempt, pa, pb)
				}
				if pb != b.Message(epoch, chip, attempt) {
					t.Fatal("repeated consultation changed the plan")
				}
			}
			if a.ChipStalled(epoch, chip) != b.ChipStalled(epoch, chip) {
				t.Fatalf("stall schedule diverged at e=%d c=%d", epoch, chip)
			}
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	a, _ := NewInjector(Config{Seed: 1, DropRate: 0.5}, 2)
	b, _ := NewInjector(Config{Seed: 2, DropRate: 0.5}, 2)
	same := 0
	total := 0
	for epoch := 1; epoch <= 200; epoch++ {
		for chip := 0; chip < 2; chip++ {
			total++
			if a.Message(epoch, chip, 0).Drop == b.Message(epoch, chip, 0).Drop {
				same++
			}
		}
	}
	if same == total {
		t.Fatal("different seeds produced identical drop schedules")
	}
}

func TestMessageRatesRoughlyHonored(t *testing.T) {
	in, _ := NewInjector(Config{Seed: 3, DropRate: 0.25}, 1)
	drops := 0
	const n = 4000
	for epoch := 1; epoch <= n; epoch++ {
		if in.Message(epoch, 0, 0).Drop {
			drops++
		}
	}
	frac := float64(drops) / n
	if frac < 0.20 || frac > 0.30 {
		t.Fatalf("drop fraction %v far from 0.25", frac)
	}
}

func TestDropWinsOverCorrupt(t *testing.T) {
	in, _ := NewInjector(Config{Seed: 5, DropRate: 1, CorruptRate: 1}, 1)
	p := in.Message(1, 0, 0)
	if !p.Drop || p.Corrupt {
		t.Fatalf("want pure drop, got %+v", p)
	}
	if !p.Faulted() {
		t.Fatal("dropped plan not Faulted")
	}
}

func TestLostChip(t *testing.T) {
	in, _ := NewInjector(Config{Seed: 9, ChipLossEpoch: 5, ChipLossChip: 2}, 4)
	if _, lost := in.LostChip(4); lost {
		t.Fatal("loss fired early")
	}
	chip, lost := in.LostChip(5)
	if !lost || chip != 2 {
		t.Fatalf("LostChip(5) = %d, %v", chip, lost)
	}
	if _, lost := in.LostChip(6); lost {
		t.Fatal("loss fired twice")
	}
	// -1 picks a victim from the seed, deterministically and in range.
	a, _ := NewInjector(Config{Seed: 9, ChipLossEpoch: 1, ChipLossChip: -1}, 4)
	b, _ := NewInjector(Config{Seed: 9, ChipLossEpoch: 1, ChipLossChip: -1}, 4)
	ca, _ := a.LostChip(1)
	cb, _ := b.LostChip(1)
	if ca != cb || ca < 0 || ca >= 4 {
		t.Fatalf("seeded victim: %d vs %d", ca, cb)
	}
}
