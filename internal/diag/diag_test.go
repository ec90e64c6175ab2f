package diag_test

import (
	"math"
	"testing"

	"mbrim/internal/core"
	"mbrim/internal/diag"
	"mbrim/internal/ising"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
)

// feedEnergy pushes a simple trajectory: t, e pairs.
func feedEnergy(r *diag.Reducer, pts ...[2]float64) {
	for _, p := range pts {
		r.Emit(obs.Event{Kind: obs.EnergySample, ModelNS: p[0], Value: p[1]})
	}
}

// trials feeds one sample every 10 ns, each trial's energies repeated
// to fill its 8-sample window.
func trials(r *diag.Reducer, es ...[]float64) {
	t := 0.0
	for _, trial := range es {
		for k := 0; k < 8; k++ {
			feedEnergy(r, [2]float64{t, trial[k%len(trial)]})
			t += 10
		}
	}
}

// TestPlateauDetection: the trajectory is plateaued when it improved
// less than 1e-3 (relative) over the last 1 000 model ns.
func TestPlateauDetection(t *testing.T) {
	r := diag.New(diag.Config{})
	// Improving steadily: not plateaued.
	feedEnergy(r, [2]float64{0, 0}, [2]float64{500, -10}, [2]float64{1000, -20}, [2]float64{1500, -30})
	s := r.Snapshot()
	if s.Plateaued {
		t.Fatalf("improving trajectory reported plateaued: %+v", s)
	}
	if s.ImprovementRate <= 0 {
		t.Fatalf("improvement rate = %v, want > 0", s.ImprovementRate)
	}
	if s.BestStalenessNS != 0 {
		t.Fatalf("best staleness = %v at a fresh best", s.BestStalenessNS)
	}
	// Then flat for longer than the window: plateaued, best stale.
	feedEnergy(r, [2]float64{2000, -30}, [2]float64{3000, -30}, [2]float64{4000, -29.999})
	s = r.Snapshot()
	if !s.Plateaued {
		t.Fatalf("flat trajectory not reported plateaued: %+v", s)
	}
	if s.BestStalenessNS != 2500 {
		t.Fatalf("best staleness = %v, want 2500", s.BestStalenessNS)
	}
	if s.BestEnergy != -30 || s.LastEnergy != -29.999 {
		t.Fatalf("best/last = %v/%v", s.BestEnergy, s.LastEnergy)
	}
}

func TestShortRunNeverPlateaued(t *testing.T) {
	r := diag.New(diag.Config{})
	feedEnergy(r, [2]float64{0, -5}, [2]float64{10, -5})
	if s := r.Snapshot(); s.Plateaued {
		t.Fatalf("run shorter than the window reported plateaued")
	}
}

func TestPairAndChipAggregation(t *testing.T) {
	r := diag.New(diag.Config{})
	emit := func(epoch, chip, owner int, stale int64, frac float64) {
		r.Emit(obs.Event{Kind: obs.PairStat, Epoch: epoch, Chip: chip, Peer: owner + 1,
			Count: stale, Value: frac, ModelNS: float64(epoch)})
	}
	emit(1, 0, 1, 2, 0.2)
	emit(1, 1, 0, 1, 0.1)
	emit(2, 0, 1, 4, 0.4)
	emit(2, 1, 0, 0, 0.0)
	s := r.Snapshot()
	if len(s.Pairs) != 2 {
		t.Fatalf("pairs = %d, want 2: %+v", len(s.Pairs), s.Pairs)
	}
	p01 := s.Pairs[0]
	if p01.Observer != 0 || p01.Owner != 1 {
		t.Fatalf("pair order not deterministic: %+v", s.Pairs)
	}
	if p01.Disagreement != 0.4 || p01.StaleSpins != 4 || p01.Samples != 2 || p01.LastEpoch != 2 {
		t.Fatalf("pair 0→1 = %+v", p01)
	}
	if math.Abs(p01.MeanDisagreement-0.3) > 1e-12 || p01.MaxDisagreement != 0.4 {
		t.Fatalf("pair 0→1 mean/max = %v/%v", p01.MeanDisagreement, p01.MaxDisagreement)
	}
	if len(s.ChipCoherence) != 2 {
		t.Fatalf("chip views = %+v", s.ChipCoherence)
	}
	c0 := s.ChipCoherence[0]
	// Chip 0 observes 0.4 ignorance; others see it at 0.0 visibility.
	if c0.Ignorance != 0.4 || c0.Visibility != 0.0 || math.Abs(c0.Coherence-0.6) > 1e-12 {
		t.Fatalf("chip 0 view = %+v", c0)
	}
}

func TestTrafficAttribution(t *testing.T) {
	r := diag.New(diag.Config{})
	r.Emit(obs.Event{Kind: obs.FabricTransfer, Epoch: 1, ModelNS: 10, Value: 100, StallNS: 5})
	r.Emit(obs.Event{Kind: obs.FabricTransfer, Epoch: 2, ModelNS: 20, Value: 300, StallNS: 0})
	r.Emit(obs.Event{Kind: obs.EpochSync, Epoch: 1, Count: 7})
	r.Emit(obs.Event{Kind: obs.Recovery, Label: "retransmit", Epoch: 2, StallNS: 3})
	s := r.Snapshot()
	tr := s.Traffic
	if tr.TotalBytes != 400 || tr.Epochs != 2 || tr.BytesPerEpoch != 200 {
		t.Fatalf("traffic = %+v", tr)
	}
	if tr.StallNS != 5 || tr.RecoveryStallNS != 3 || tr.SyncBitChanges != 7 {
		t.Fatalf("stall/sync = %+v", tr)
	}
	if want := 5.0 / 25.0; math.Abs(tr.StallFraction-want) > 1e-12 {
		t.Fatalf("stall fraction = %v, want %v", tr.StallFraction, want)
	}
}

func TestTTSEstimate(t *testing.T) {
	r := diag.New(diag.Config{})
	// 4 trials of 8 samples each. The best is -10, so the target is
	// -10 within 0.1: trials 2 and 4 reach it.
	trials(r, []float64{-5, -6}, []float64{-8, -10}, []float64{-7, -9}, []float64{-9.95, -9.5})
	s := r.Snapshot()
	if s.TTS == nil {
		t.Fatalf("no TTS estimate with %d samples", s.Samples)
	}
	est := s.TTS
	if est.TargetEnergy != -10 || est.Tol != 0.1 || est.Confidence != 0.99 {
		t.Fatalf("target/tol/q = %v/%v/%v, want -10/0.1/0.99", est.TargetEnergy, est.Tol, est.Confidence)
	}
	if est.Trials != 4 || est.SuccessP != 0.5 {
		t.Fatalf("trials/p = %d/%v, want 4/0.5", est.Trials, est.SuccessP)
	}
	if est.TrialNS != 70 {
		t.Fatalf("trialNS = %v, want 70", est.TrialNS)
	}
	if !(est.PLow > 0 && est.PLow < 0.5 && est.PHigh > 0.5 && est.PHigh < 1) {
		t.Fatalf("Wilson band = [%v, %v]", est.PLow, est.PHigh)
	}
	if est.TTSNS <= 0 {
		t.Fatalf("TTS = %v, want finite positive", est.TTSNS)
	}
	// Interval inverts: more success probability, less time.
	if !(est.TTSLowNS <= est.TTSNS && est.TTSNS <= est.TTSHighNS) {
		t.Fatalf("TTS interval not ordered: [%v, %v, %v]", est.TTSLowNS, est.TTSNS, est.TTSHighNS)
	}
}

func TestTTSNeverSucceededIsSentinel(t *testing.T) {
	r := diag.New(diag.Config{})
	// The best sample sits in the unfinished trailing window, so no
	// full trial comes within 1 of it.
	trials(r, []float64{-5, -6}, []float64{-7, -8})
	feedEnergy(r, [2]float64{160, -100})
	est := r.Snapshot().TTS
	if est == nil {
		t.Fatalf("no estimate")
	}
	if est.SuccessP != 0 || est.TTSNS != -1 {
		t.Fatalf("zero-success estimate = %+v, want -1 sentinel", est)
	}
	// pLow = 0 makes the pessimistic bound +Inf → sentinel too, but the
	// Wilson upper bound stays above zero, so the optimistic bound is a
	// finite "could be as fast as" figure.
	if est.TTSHighNS != -1 {
		t.Fatalf("TTSHighNS = %v, want -1 (pLow = 0)", est.TTSHighNS)
	}
	if est.TTSLowNS <= 0 {
		t.Fatalf("TTSLowNS = %v, want finite positive (Wilson pHigh > 0)", est.TTSLowNS)
	}
}

func TestTTSDefaultsToSelfTarget(t *testing.T) {
	r := diag.New(diag.Config{})
	trials(r, []float64{-5, -20}, []float64{-19.9, -18})
	est := r.Snapshot().TTS
	if est == nil {
		t.Fatalf("no estimate")
	}
	if est.TargetEnergy != -20 {
		t.Fatalf("self target = %v, want best -20", est.TargetEnergy)
	}
	if est.Tol != 0.2 {
		t.Fatalf("default tol = %v, want 1%% of |best| = 0.2", est.Tol)
	}
	// Trial 1 hits -20 exactly; trial 2's best -19.9 is within tol.
	if est.SuccessP != 1 {
		t.Fatalf("p = %v, want 1", est.SuccessP)
	}
}

// kgraph builds a dense random ±1-coupled model.
func kgraph(n int, seed uint64) *ising.Model {
	mb := ising.NewBuilder(n)
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 1.0
			if r.Bool(0.5) {
				v = -1
			}
			mb.SetCoupling(i, j, v)
		}
	}
	return mustBuild(mb)
}

// TestEndToEndThreeChips is the acceptance path: a seeded 3-chip
// concurrent run with span tracing and diagnostics on must produce a
// diag snapshot with all six directed chip-pair measurements, a
// plateau verdict, and a TTS estimate with CI bounds.
func TestEndToEndThreeChips(t *testing.T) {
	ring := obs.NewRing(1 << 14)
	red := diag.New(diag.Config{})
	_, err := core.Solve(core.Request{
		Kind:          core.MBRIMConcurrent,
		Model:         kgraph(24, 11),
		Seed:          11,
		DurationNS:    400,
		EpochNS:       10,
		Chips:         3,
		SampleEveryNS: 10,
		Tracer:        obs.Fanout(ring, red),
		SpanTrace:     true,
		Diag:          true,
	})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	s := red.Snapshot()
	if len(s.Pairs) != 6 {
		t.Fatalf("pairs = %d, want 6 (3 chips, directed): %+v", len(s.Pairs), s.Pairs)
	}
	if len(s.ChipCoherence) != 3 {
		t.Fatalf("chip views = %d, want 3", len(s.ChipCoherence))
	}
	if !s.HasEnergy || s.Samples == 0 {
		t.Fatalf("no trajectory folded: %+v", s)
	}
	if s.TTS == nil {
		t.Fatalf("no TTS estimate after %d samples", s.Samples)
	}
	if s.TTS.PLow > s.TTS.SuccessP || s.TTS.PHigh < s.TTS.SuccessP {
		t.Fatalf("CI does not bracket p: %+v", s.TTS)
	}
	if s.Traffic.TotalBytes <= 0 || s.Traffic.Epochs == 0 {
		t.Fatalf("no traffic attribution: %+v", s.Traffic)
	}
	// The same stream must carry the span hierarchy.
	events, _ := ring.EventsSince(0)
	labels := map[string]bool{}
	for _, e := range events {
		if e.Kind == obs.SpanStart {
			labels[e.Label] = true
		}
	}
	for _, want := range []string{"solve", "epoch", "chip_step", "sync"} {
		if !labels[want] {
			t.Fatalf("span stream missing %q; have %v", want, labels)
		}
	}
}

// mustBuild freezes a test's builder: its couplings are the test's own,
// so an error is a bug in the test.
func mustBuild(b *ising.Builder) *ising.Model {
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}
