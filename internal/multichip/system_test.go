package multichip

import (
	"math"
	"testing"
	"testing/quick"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/rng"
	"mbrim/internal/sched"
)

func ferromagnet(n int) *ising.Model {
	mb := ising.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mb.SetCoupling(i, j, 1)
		}
	}
	return mustBuild(mb)
}

func kgraph(n int, seed uint64) *ising.Model {
	return graph.Complete(n, rng.New(seed)).ToIsing()
}

// chipsOf lists the system's chips for white-box assertions.
func chipsOf(s *System) []*chip {
	out := make([]*chip, len(s.slices))
	for i, sl := range s.slices {
		out[i] = &sl.chip
	}
	return out
}

func TestConcurrentFindsFerromagnetGround(t *testing.T) {
	n := 32
	m := ferromagnet(n)
	s := MustSystem(m, Config{Chips: 4, Seed: 1})
	res := s.RunConcurrent(60)
	want := -float64(n*(n-1)) / 2
	if res.Energy != want {
		t.Fatalf("energy %v, want ground %v", res.Energy, want)
	}
}

func TestConcurrentEnergyMatchesSpins(t *testing.T) {
	m := kgraph(48, 2)
	s := MustSystem(m, Config{Chips: 4, Seed: 3})
	res := s.RunConcurrent(40)
	if d := math.Abs(res.Energy - m.Energy(res.Spins)); d > 1e-9 {
		t.Fatalf("energy off by %v", d)
	}
	if !ising.ValidSpins(res.Spins) {
		t.Fatal("invalid spins")
	}
}

func TestConcurrentDeterministic(t *testing.T) {
	m := kgraph(40, 4)
	a := MustSystem(m, Config{Chips: 4, Seed: 5}).RunConcurrent(30)
	b := MustSystem(m, Config{Chips: 4, Seed: 5}).RunConcurrent(30)
	if a.Energy != b.Energy || ising.HammingDistance(a.Spins, b.Spins) != 0 {
		t.Fatal("same seed produced different runs")
	}
	if a.Flips != b.Flips || a.BitChanges != b.BitChanges || a.TrafficBytes != b.TrafficBytes {
		t.Fatal("same seed produced different counters")
	}
}

func TestShadowConsistencyAfterSync(t *testing.T) {
	// DESIGN.md invariant: after the final epoch boundary, every
	// chip's shadow view equals the true global state.
	m := kgraph(40, 6)
	s := MustSystem(m, Config{Chips: 4, Seed: 7})
	s.RunConcurrent(33) // exactly 10 epochs of 3.3
	truth := s.GlobalSpins()
	for ci, c := range chipsOf(s) {
		for g := 0; g < s.n; g++ {
			if c.shadow[g] != truth[g] {
				t.Fatalf("chip %d shadow of spin %d is stale after final sync", ci, g)
			}
		}
	}
}

func TestExternalBiasMatchesShadows(t *testing.T) {
	// The incremental bias updates must agree with a full recompute.
	m := kgraph(32, 8)
	s := MustSystem(m, Config{Chips: 4, Seed: 9})
	s.RunConcurrent(20)
	for ci, c := range chipsOf(s) {
		got := c.machine.Snapshot().Ext
		c.recomputeExternalBias()
		want := c.machine.Snapshot().Ext
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-6 {
				t.Fatalf("chip %d bias %d drifted: %v vs %v", ci, i, got[i], want[i])
			}
		}
	}
}

func TestBitChangesNeverExceedFlips(t *testing.T) {
	m := kgraph(48, 10)
	res := MustSystem(m, Config{Chips: 4, Seed: 11}).RunConcurrent(40)
	if res.BitChanges > res.Flips {
		t.Fatalf("bit changes %d > flips %d", res.BitChanges, res.Flips)
	}
	if res.InducedFlips > res.Flips {
		t.Fatal("induced flips exceed total flips")
	}
	if res.InducedBitChanges > res.BitChanges {
		t.Fatal("induced bit changes exceed bit changes")
	}
}

func TestLongerEpochsImproveFlipToChangeRatio(t *testing.T) {
	// Fig 13-right: the flips/bit-changes ratio grows with epoch size.
	m := kgraph(64, 12)
	short := MustSystem(m, Config{Chips: 4, Seed: 13, EpochNS: 1}).RunConcurrent(60)
	long := MustSystem(m, Config{Chips: 4, Seed: 13, EpochNS: 15}).RunConcurrent(60)
	ratio := func(r *Result) float64 {
		if r.BitChanges == 0 {
			return math.Inf(1)
		}
		return float64(r.Flips) / float64(r.BitChanges)
	}
	if ratio(long) < ratio(short) {
		t.Fatalf("ratio did not grow with epoch: short %v, long %v", ratio(short), ratio(long))
	}
}

func TestUnlimitedFabricNoStall(t *testing.T) {
	m := kgraph(32, 14)
	res := MustSystem(m, Config{Chips: 4, Seed: 15}).RunConcurrent(30)
	if res.StallNS != 0 {
		t.Fatalf("unlimited fabric stalled %v ns", res.StallNS)
	}
	if math.Abs(res.ElapsedNS-res.ModelNS) > 1e-6 {
		t.Fatal("elapsed != model time without stalls")
	}
}

func TestLimitedFabricStalls(t *testing.T) {
	// A starved fabric must stall and stretch elapsed time.
	m := kgraph(64, 16)
	res := MustSystem(m, Config{
		Chips: 4, Seed: 17, Channels: 1, ChannelBytesPerNS: 0.001,
	}).RunConcurrent(30)
	if res.StallNS <= 0 {
		t.Fatal("starved fabric did not stall")
	}
	if res.ElapsedNS <= res.ModelNS {
		t.Fatal("stalls did not stretch elapsed time")
	}
}

func TestCoordinatedSavesTraffic(t *testing.T) {
	// Fig 15's effect in its purest form: with zero couplings the only
	// spin changes are induced kicks. Uncoordinated, every kick must
	// ride the fabric; coordinated, receivers reproduce kicks locally
	// and traffic is exactly zero.
	m := mustBuild(ising.NewBuilder(64)) // no couplings, no dynamics-driven flips
	heavyKicks := sched.Constant(0.05)
	plain := MustSystem(m, Config{
		Chips: 4, Seed: 19, InducedFlip: heavyKicks,
	}).RunConcurrent(40)
	coord := MustSystem(m, Config{
		Chips: 4, Seed: 19, InducedFlip: heavyKicks, Coordinated: true,
	}).RunConcurrent(40)
	if plain.TrafficBytes == 0 {
		t.Fatal("uncoordinated kicks generated no traffic")
	}
	if coord.TrafficBytes != 0 {
		t.Fatalf("coordinated kicks still cost %v bytes", coord.TrafficBytes)
	}
	if coord.InducedFlips == 0 {
		t.Fatal("coordinated run induced no flips at all")
	}
}

func TestCoordinatedShadowsStayConsistent(t *testing.T) {
	// Coordinated kicks toggle shadows without traffic; after a sync
	// boundary everything must still agree.
	m := kgraph(40, 20)
	s := MustSystem(m, Config{Chips: 4, Seed: 21, Coordinated: true,
		InducedFlip: sched.Constant(0.05)})
	s.RunConcurrent(33)
	truth := s.GlobalSpins()
	for ci, c := range chipsOf(s) {
		for g := 0; g < s.n; g++ {
			if c.shadow[g] != truth[g] {
				t.Fatalf("chip %d shadow of %d inconsistent in coordinated mode", ci, g)
			}
		}
	}
}

func TestSingleChipDegeneratesToMonolith(t *testing.T) {
	// One chip has no remote spins: no traffic, no bit changes, but
	// real annealing.
	m := kgraph(32, 22)
	res := MustSystem(m, Config{Chips: 1, Seed: 23}).RunConcurrent(40)
	if res.TrafficBytes != 0 || res.BitChanges != 0 {
		t.Fatalf("single chip generated traffic: %v bytes, %d changes",
			res.TrafficBytes, res.BitChanges)
	}
	if res.Flips == 0 {
		t.Fatal("single chip never flipped")
	}
	if res.Energy >= 0 {
		t.Fatalf("no optimization progress: %v", res.Energy)
	}
}

func TestTraceSamples(t *testing.T) {
	m := kgraph(32, 24)
	res := MustSystem(m, Config{Chips: 4, Seed: 25, SampleEveryNS: 10}).RunConcurrent(40)
	if len(res.Trace) == 0 {
		t.Fatal("no trace samples")
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].X <= res.Trace[i-1].X {
			t.Fatal("trace not increasing in time")
		}
	}
}

func TestEpochStatsRecorded(t *testing.T) {
	m := kgraph(32, 26)
	res := MustSystem(m, Config{Chips: 4, Seed: 27, RecordEpochStats: true}).RunConcurrent(33)
	if len(res.EpochStats) != res.Epochs {
		t.Fatalf("%d stats for %d epochs", len(res.EpochStats), res.Epochs)
	}
	var flips, changes int64
	for _, st := range res.EpochStats {
		flips += st.Flips
		changes += st.BitChanges
	}
	if flips != res.Flips || changes != res.BitChanges {
		t.Fatal("epoch stats do not sum to totals")
	}
}

func TestProbesEmitSamples(t *testing.T) {
	m := kgraph(32, 28)
	res := MustSystem(m, Config{Chips: 4, Seed: 29, Probes: true}).RunConcurrent(20)
	if len(res.Surprises) == 0 {
		t.Fatal("no surprise samples with Probes on")
	}
	for _, sample := range res.Surprises {
		if sample.Ignorance < 0 || sample.Ignorance > 1 {
			t.Fatalf("ignorance %v outside [0,1]", sample.Ignorance)
		}
	}
}

func TestQualityComparableToMonolith(t *testing.T) {
	// Sec 5.4.1's punchline: with short epochs, concurrent operation
	// matches monolithic quality. Compare 4-chip vs 1-chip averages.
	m := kgraph(48, 30)
	var mono, multi float64
	runs := 4
	for i := 0; i < runs; i++ {
		mono += MustSystem(m, Config{Chips: 1, Seed: uint64(100 + i)}).RunConcurrent(50).Energy
		multi += MustSystem(m, Config{Chips: 4, Seed: uint64(100 + i), EpochNS: 1}).RunConcurrent(50).Energy
	}
	mono /= float64(runs)
	multi /= float64(runs)
	// Allow 15% slack — these are stochastic dynamics on a small graph.
	if multi > mono+0.15*math.Abs(mono) {
		t.Fatalf("4-chip quality (%v) far from monolithic (%v)", multi, mono)
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	m := ferromagnet(8)
	for name, f := range map[string]func(){
		"too many chips": func() { MustSystem(m, Config{Chips: 9}) },
		"neg epoch":      func() { MustSystem(m, Config{Chips: 2, EpochNS: -1}) },
		"zero duration":  func() { MustSystem(m, Config{Chips: 2}).RunConcurrent(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestChipModelsReconstructGlobalEnergy(t *testing.T) {
	// Structural invariant: the chips' local sub-models plus the
	// cross-coupling rows partition the global Hamiltonian exactly.
	// For any state σ: Σ_c E_local_c(σ_c) + E_cross(σ) = E_global(σ),
	// where E_cross = −Σ_{(i,j) across chips} J_ij σ_i σ_j (each pair
	// once).
	m := kgraph(40, 50)
	s := MustSystem(m, Config{Chips: 4, Seed: 51})
	spins := ising.RandomSpins(40, rng.New(52))

	sumLocal := 0.0
	for _, c := range chipsOf(s) {
		local := make([]int8, len(c.owned))
		for li, g := range c.owned {
			local[li] = spins[g]
		}
		sumLocal += c.machine.Model().Energy(local)
	}
	cross := 0.0
	owner := make([]int, 40)
	for ci, c := range chipsOf(s) {
		for _, g := range c.owned {
			owner[g] = ci
		}
	}
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			if owner[i] != owner[j] {
				cross -= m.Coupling(i, j) * float64(spins[i]) * float64(spins[j])
			}
		}
	}
	if d := math.Abs(sumLocal + cross - m.Energy(spins)); d > 1e-9 {
		t.Fatalf("local+cross misses global energy by %v", d)
	}
}

func TestCrossRowsMatchGlobalModel(t *testing.T) {
	// Expanded back into rows, the cross columns must hold the global
	// coupling divided by the shared scale for every owned×remote pair
	// and nothing for same-chip pairs; each column lists its owned spins
	// ascending, and no stored entry is zero.
	m := kgraph(24, 53)
	s := MustSystem(m, Config{Chips: 3, Seed: 54})
	for _, c := range chipsOf(s) {
		got := make([][]float64, len(c.owned))
		for li := range got {
			got[li] = make([]float64, 24)
		}
		for g := 0; g < 24; g++ {
			prev := int32(-1)
			for k := c.colStart[g]; k < c.colStart[g+1]; k++ {
				li, v := c.crossLi[k], c.crossJ[k]
				if li <= prev || v == 0 {
					t.Fatalf("chip %d column %d: entry (%d, %v) after owned spin %d", c.id, g, li, v, prev)
				}
				got[li][g], prev = v, li
			}
		}
		if int(c.colStart[24]) != len(c.crossLi) || len(c.crossLi) != len(c.crossJ) {
			t.Fatalf("chip %d: colStart ends at %d over %d/%d entries", c.id, c.colStart[24], len(c.crossLi), len(c.crossJ))
		}
		for li, g := range c.owned {
			for j := 0; j < 24; j++ {
				want := 0.0
				if c.local[j] < 0 {
					want = m.Coupling(g, j) / s.scale
				}
				if got[li][j] != want {
					t.Fatalf("chip %d cross[%d][%d] = %v, want %v", c.id, li, j, got[li][j], want)
				}
			}
		}
	}
}

func TestSystemInvariantsProperty(t *testing.T) {
	// Randomized integration property: for arbitrary small systems and
	// settings, every accounting and consistency invariant must hold.
	f := func(seed uint32, chipsRaw, epochRaw uint8, coordinated bool) bool {
		r := rng.New(uint64(seed))
		n := 16 + r.Intn(32)
		chips := int(chipsRaw)%4 + 1
		epoch := 0.5 + float64(epochRaw%8)
		m := kgraph(n, uint64(seed))
		s := MustSystem(m, Config{
			Chips: chips, Seed: uint64(seed), EpochNS: epoch,
			Coordinated: coordinated,
		})
		res := s.RunConcurrent(10)

		if res.BitChanges > res.Flips || res.InducedFlips > res.Flips ||
			res.InducedBitChanges > res.BitChanges {
			return false
		}
		if math.Abs(res.Energy-m.Energy(res.Spins)) > 1e-6 {
			return false
		}
		if res.ElapsedNS < res.ModelNS-1e-9 {
			return false
		}
		if math.Abs((res.ElapsedNS-res.ModelNS)-res.StallNS) > 1e-6 {
			return false
		}
		truth := s.GlobalSpins()
		for _, c := range chipsOf(s) {
			for g := 0; g < s.n; g++ {
				if c.shadow[g] != truth[g] {
					return false
				}
			}
		}
		return ising.ValidSpins(res.Spins)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
