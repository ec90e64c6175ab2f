package multichip

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"mbrim/internal/fault"
	"mbrim/internal/interconnect"
	"mbrim/internal/ising"
	"mbrim/internal/rng"
)

// These tests pin what a single per-chip unit makes true: a System and
// k isolated Slices are two hostings of the same machine, so state cut
// from one continues in the other, both constructors reject the same
// inputs, and a run resumes from any barrier, not only the pinned ones.

func newSlices(t testing.TB, m *ising.Model, cfg Config, durationNS float64) []*Slice {
	t.Helper()
	ss := make([]*Slice, cfg.Chips)
	for i := range ss {
		s, err := NewSlice(m, cfg, i, durationNS)
		if err != nil {
			t.Fatalf("NewSlice(%d): %v", i, err)
		}
		ss[i] = s
	}
	return ss
}

// lockstepLedger is what a coordinator accumulates while driving slices.
type lockstepLedger struct {
	bitChanges, inducedBitChanges int64
	elapsedNS                     float64
}

// lockstep drives the slices the way a cluster coordinator does —
// RunEpoch everywhere, then cross-delivery in ascending sender order,
// mirroring each broadcast into fab — for at most maxEpochs epochs or
// to the horizon, accumulating onto the ledger l.
func lockstep(t *testing.T, slices []*Slice, fab *interconnect.Fabric, maxEpochs int, l lockstepLedger) lockstepLedger {
	t.Helper()
	for e := 0; e < maxEpochs && !slices[0].Done(); e++ {
		reps := make([]*EpochReport, len(slices))
		for i, s := range slices {
			rep, err := s.RunEpoch()
			if err != nil {
				t.Fatalf("slice %d epoch: %v", i, err)
			}
			reps[i] = rep
		}
		for ci, rep := range reps {
			if len(rep.Updates) == 0 {
				continue
			}
			l.bitChanges += int64(len(rep.Updates))
			l.inducedBitChanges += inducedCount(rep.Updates)
			fab.Record(ci, interconnect.DeltaSyncBytes(len(rep.Updates), len(slices[ci].Owned()), len(slices)-1))
			for di, d := range slices {
				if di != ci {
					if err := d.ApplySync(rep.Updates); err != nil {
						t.Fatalf("slice %d sync: %v", di, err)
					}
				}
			}
		}
		l.elapsedNS += reps[0].EpochNS + fab.EndEpoch(reps[0].EpochNS)
	}
	return l
}

func runConcurrent(durationNS float64) func(*System, context.Context, *Checkpoint) (*Result, *Checkpoint, error) {
	return func(s *System, ctx context.Context, ck *Checkpoint) (*Result, *Checkpoint, error) {
		return s.RunConcurrentCtx(ctx, durationNS, ck)
	}
}

// collect assembles the Result a coordinator reads off slices it drove
// in lockstep over fab, with the ledger l.
func collect(m *ising.Model, slices []*Slice, fab *interconnect.Fabric, l lockstepLedger) *Result {
	got := &Result{
		Spins:                make([]int8, m.N()),
		ModelNS:              slices[0].ModelNS(),
		StallNS:              fab.StallNS(),
		ElapsedNS:            l.elapsedNS,
		BitChanges:           l.bitChanges,
		InducedBitChanges:    l.inducedBitChanges,
		TrafficBytes:         fab.TotalBytes(),
		PeakDemandBytesPerNS: fab.PeakDemand(),
		Epochs:               slices[0].Epochs(),
		LiveChips:            len(slices),
	}
	for _, s := range slices {
		c := &s.chip
		for li, g := range c.owned {
			got.Spins[g] = c.machine.Spins()[li]
		}
		got.Flips += c.machine.Flips()
		got.InducedFlips += c.machine.InducedFlips()
	}
	got.Energy = m.Energy(got.Spins)
	return got
}

// TestCrossHosting cuts a run at a pseudo-random barrier in one hosting
// and finishes it in another: a System's Checkpoint split into
// SliceStates continues on isolated slices, slice snapshots assembled
// into a Checkpoint continue in a System, and slice snapshots restored
// onto fresh slices continue there. One more cut sits at the final
// barrier, so the slices drive the whole run and the System only
// collects it. Every way, on 2–4 chips, coordinated or not, the result
// equals the uninterrupted System run in every field, the fabric's
// ledger included.
func TestCrossHosting(t *testing.T) {
	m := kgraph(40, 21)
	const duration = 33 // 10 epochs of 3.3
	cuts := rng.New(0xC055)
	// Three chips first, unprefixed: the 3-chip rows' cut draws, and so
	// their subtest names, do not depend on the rows after them.
	for _, chips := range []int{3, 2, 4} {
		for _, coordinated := range []bool{false, true} {
			cfg := Config{Chips: chips, Seed: 8, Coordinated: coordinated, Channels: 1, ChannelBytesPerNS: 0.25}
			want := MustSystem(m, cfg).RunConcurrent(duration)
			if want.StallNS == 0 {
				t.Fatalf("chips=%d: fabric never stalled — the elapsed-time ledger is untested", chips)
			}
			newFabric := func() *interconnect.Fabric {
				fab, err := interconnect.New(cfg.Chips, cfg.Channels, cfg.ChannelBytesPerNS)
				if err != nil {
					t.Fatal(err)
				}
				return fab
			}
			// drive runs fresh slices to barrier cut and snapshots them.
			drive := func(t *testing.T, cut int) ([]*SliceState, *interconnect.Fabric, lockstepLedger) {
				slices := newSlices(t, m, cfg, duration)
				fab := newFabric()
				l := lockstep(t, slices, fab, cut, lockstepLedger{})
				states := make([]*SliceState, len(slices))
				for i, s := range slices {
					states[i] = s.Snapshot()
				}
				return states, fab, l
			}
			// finish restores states onto fresh slices and fab, checks
			// they stand at barrier cut, and drives them to the horizon.
			finish := func(t *testing.T, cut int, states []*SliceState, fab *interconnect.State, l lockstepLedger) {
				slices := newSlices(t, m, cfg, duration)
				for i, s := range slices {
					if err := s.Restore(states[i]); err != nil {
						t.Fatalf("restore %d: %v", i, err)
					}
					if s.Epochs() != cut {
						t.Fatalf("restored slice %d at epoch %d, want %d", i, s.Epochs(), cut)
					}
				}
				f := newFabric()
				if err := f.Restore(fab); err != nil {
					t.Fatal(err)
				}
				l = lockstep(t, slices, f, want.Epochs, l)
				sameResult(t, want, collect(m, slices, f, l))
			}
			slicesToSystem := func(t *testing.T, cut int) {
				states, fab, l := drive(t, cut)
				ck := &Checkpoint{
					Mode: ModeConcurrent, DurationNS: duration,
					Position: Position{EpochsDone: cut, ModelNS: states[0].ModelNS, ElapsedNS: l.elapsedNS,
						BitChanges: l.bitChanges, InducedBitChanges: l.inducedBitChanges},
					Fabric: fab.Snapshot(),
				}
				ck.SetSlices(states)
				got, _, err := MustSystem(m, cfg).RunConcurrentCtx(context.Background(), duration, ck)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, want, got)
			}
			name := fmt.Sprintf("coordinated=%v", coordinated)
			if chips != 3 {
				name = fmt.Sprintf("chips=%d/%s", chips, name)
			}
			for trial := 0; trial < 3; trial++ {
				cut := 1 + cuts.Intn(want.Epochs-1)
				t.Run(fmt.Sprintf("%s/system-to-slices@%d", name, cut), func(t *testing.T) {
					ck := interruptAt(t, m, cfg, cut, runConcurrent(duration))
					states, err := ck.SliceStates()
					if err != nil {
						t.Fatal(err)
					}
					finish(t, cut, states, ck.Fabric,
						lockstepLedger{ck.BitChanges, ck.InducedBitChanges, ck.ElapsedNS})
				})
				t.Run(fmt.Sprintf("%s/slices-to-system@%d", name, cut), func(t *testing.T) {
					slicesToSystem(t, cut)
				})
				t.Run(fmt.Sprintf("%s/slices-to-slices@%d", name, cut), func(t *testing.T) {
					states, fab, l := drive(t, cut)
					finish(t, cut, states, fab.Snapshot(), l)
				})
			}
			t.Run(fmt.Sprintf("%s/slices-to-system@%d", name, want.Epochs), func(t *testing.T) {
				slicesToSystem(t, want.Epochs)
			})
		}
	}
}

// TestRandomCutResume: every mode × Parallel × Coordinated × {clean, a
// noisy fault schedule whose chip loss repartitions mid-run}, on 4 chips
// with batch running more jobs than chips, must run the same with
// Parallel on as off, and, interrupted at pseudo-random barriers (at
// least one of them mid-way through batch's job rotation), leave a
// valid best-so-far state and a checkpoint at that barrier that resumes
// bit-identically.
func TestRandomCutResume(t *testing.T) {
	m := kgraph(36, 31)
	const duration, jobs = 40, 8 // 13 epochs
	noisy := fault.Config{
		Seed: 3, DropRate: 0.15, CorruptRate: 0.1, DelayRate: 0.2, StallRate: 0.05,
		ChipLossEpoch: 5, ChipLossChip: 1,
		Recovery: fault.Recovery{Detect: true, WatchdogThreshold: 0.05, Repartition: true},
	}
	type runFn func(*System, context.Context, *Checkpoint) (any, *Checkpoint, error)
	modes := []struct {
		name string
		run  runFn
	}{
		{ModeConcurrent, func(s *System, ctx context.Context, ck *Checkpoint) (any, *Checkpoint, error) {
			return s.RunConcurrentCtx(ctx, duration, ck)
		}},
		{ModeSequential, func(s *System, ctx context.Context, ck *Checkpoint) (any, *Checkpoint, error) {
			return s.RunSequentialCtx(ctx, duration, ck)
		}},
		{ModeBatch, func(s *System, ctx context.Context, ck *Checkpoint) (any, *Checkpoint, error) {
			return s.RunBatchCtx(ctx, jobs, duration, ck)
		}},
	}
	// best is a run's best-so-far state.
	best := func(res any) []int8 {
		if b, ok := res.(*BatchResult); ok {
			return b.Jobs[b.Best]
		}
		return res.(*Result).Spins
	}
	cuts := rng.New(0xC07)
	serial := map[string]any{} // parallel=false full runs, by their twin's key
	midRotation := false
	schedules := []struct {
		name   string
		faults fault.Config
	}{{"clean", fault.Config{}}, {"faulty", noisy}}
	for _, mode := range modes {
		for _, parallel := range []bool{false, true} {
			for _, coordinated := range []bool{false, true} {
				// Four pseudo-random cuts per configuration, each tried under
				// both schedules, so the subtest names (which carry the cut)
				// are the same on every run.
				var at [4]int
				for i := range at {
					at[i] = 1 + cuts.Intn(12)
				}
				for _, sched := range schedules {
					cfg := Config{Chips: 4, Seed: 13, Parallel: parallel, Coordinated: coordinated,
						ChannelBytesPerNS: 0.5, RecordEpochStats: true, Faults: sched.faults}
					full, _, err := mode.run(MustSystem(m, cfg), context.Background(), nil)
					if err != nil {
						t.Fatal(err)
					}
					if twin := fmt.Sprint(mode.name, coordinated, sched.name); parallel {
						sameResult(t, serial[twin], full)
					} else {
						serial[twin] = full
					}
					for _, cut := range at {
						t.Run(fmt.Sprintf("%s/parallel=%v/coordinated=%v/%s@%d", mode.name, parallel, coordinated, sched.name, cut), func(t *testing.T) {
							ctx, cancel := context.WithCancel(context.Background())
							defer cancel()
							icfg := cfg
							icfg.Tracer = &epochCanceller{epoch: cut, cancel: cancel}
							cutRes, ck, err := mode.run(MustSystem(m, icfg), ctx, nil)
							if !errors.Is(err, context.Canceled) || ck == nil || ck.EpochsDone != cut {
								t.Fatalf("interrupt at %d: err=%v ck=%+v", cut, err, ck)
							}
							if spins := best(cutRes); len(spins) != m.N() || !ising.ValidSpins(spins) {
								t.Fatal("the cut run returned no usable best-so-far state")
							}
							midRotation = midRotation || (mode.name == ModeBatch && cut%jobs != 0)
							resumed, ck2, err := mode.run(MustSystem(m, cfg), context.Background(), ck)
							if err != nil || ck2 != nil {
								t.Fatalf("resume: err=%v checkpoint=%v", err, ck2)
							}
							sameResult(t, full, resumed)
						})
					}
				}
			}
		}
	}
	if !midRotation {
		t.Error("no batch cut fell mid-way through the job rotation")
	}
}

// TestMalformedPartitionsRejectedAlike: both constructors run the one
// validator, so a partition NewSystem refuses with an error NewSlice
// refuses with the same error — for every chip index, and never by
// panicking inside chip construction.
func TestMalformedPartitionsRejectedAlike(t *testing.T) {
	m := kgraph(8, 1)
	for name, parts := range map[string][][]int{
		"out of range":     {{0, 1, 2, 3}, {4, 5, 6, 8}},
		"negative":         {{-1, 1, 2, 3}, {4, 5, 6, 7}},
		"repeated across":  {{0, 1, 2, 3}, {3, 4, 5, 6, 7}},
		"repeated within":  {{0, 1, 1, 2, 3}, {4, 5, 6, 7}},
		"missing":          {{0, 1, 2}, {4, 5, 6, 7}},
		"empty part":       {{0, 1, 2, 3, 4, 5, 6, 7}, {}},
		"wrong part count": {{0, 1, 2, 3, 4, 5, 6, 7}},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Chips: 2, Seed: 1, Partition: parts}
			_, sysErr := NewSystem(m, cfg)
			if sysErr == nil {
				t.Fatal("NewSystem accepted the partition")
			}
			for ci := 0; ci < cfg.Chips; ci++ {
				_, err := NewSlice(m, cfg, ci, 10)
				if err == nil || err.Error() != sysErr.Error() {
					t.Fatalf("NewSlice(%d): %v; NewSystem: %v", ci, err, sysErr)
				}
			}
		})
	}
	// A valid partition need not be contiguous or ordered.
	cfg := Config{Chips: 2, Seed: 1, Partition: [][]int{{7, 0, 5, 2}, {1, 6, 3, 4}}}
	if _, err := NewSystem(m, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSlice(m, cfg, 1, 10); err != nil {
		t.Fatal(err)
	}
}

// FuzzSliceRestore feeds arbitrary JSON through the one restore path
// every hosting uses (cluster hand-off directly, System resume via
// applyCheckpoint): Restore must answer with an error or leave a slice
// that steps, never panic.
func FuzzSliceRestore(f *testing.F) {
	m := kgraph(12, 5)
	cfg := Config{Chips: 2, Seed: 3, Coordinated: true}
	const duration = 20
	src := newSlices(f, m, cfg, duration)
	for e := 0; e < 2; e++ {
		for _, s := range src {
			if _, err := s.RunEpoch(); err != nil {
				f.Fatal(err)
			}
		}
	}
	snapshot, err := json.Marshal(src[0].Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snapshot)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"chip":0,"durationNS":20,"modelNS":6.6,"epochs":2,"state":{"owned":[0,1,2,3,4,5],"machine":null},"belief":[1,1,1,1,1,1]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var st SliceState
		if json.Unmarshal(data, &st) != nil {
			return
		}
		s, err := NewSlice(m, cfg, 0, duration)
		if err != nil {
			t.Fatal(err)
		}
		if s.Restore(&st) != nil || s.Done() {
			return
		}
		// Divergence from a hostile-but-well-formed state is an error too.
		_, _ = s.RunEpoch()
	})
}
