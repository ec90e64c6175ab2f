package multichip

import (
	"math"
	"testing"

	"mbrim/internal/interconnect"
)

// driveSlices runs k slices to their horizon in lockstep (see lockstep)
// over an unlimited fabric and returns the assembled final spins plus
// the summed bit-change / flip counters.
func driveSlices(t *testing.T, slices []*Slice) (spins []int8, bitChanges int64, flips int64) {
	t.Helper()
	fab, err := interconnect.New(len(slices), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := lockstep(t, slices, fab, math.MaxInt, lockstepLedger{})
	global := make([]int8, slices[0].n)
	for _, s := range slices {
		for li, g := range s.chip.owned {
			global[g] = s.chip.machine.Spins()[li]
		}
		flips += s.chip.machine.Flips()
	}
	return global, l.bitChanges, flips
}

// TestSlicesMatchSystem drives k isolated slices in lockstep and
// checks the trajectory is bit-identical to System.RunConcurrent —
// the parity contract the distributed fabric rests on.
func TestSlicesMatchSystem(t *testing.T) {
	for _, tc := range []struct {
		name        string
		chips       int
		coordinated bool
	}{
		{"2chips", 2, false},
		{"3chips-coordinated", 3, true},
		{"4chips", 4, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := kgraph(48, 7)
			cfg := Config{Chips: tc.chips, Coordinated: tc.coordinated, Seed: 99,
				ChannelBytesPerNS: 0.5}
			const duration = 25
			want := MustSystem(m, cfg).RunConcurrent(duration)

			slices := make([]*Slice, tc.chips)
			for i := range slices {
				s, err := NewSlice(m, cfg, i, duration)
				if err != nil {
					t.Fatalf("NewSlice(%d): %v", i, err)
				}
				slices[i] = s
			}
			got, bitChanges, flips := driveSlices(t, slices)

			for i := range got {
				if got[i] != want.Spins[i] {
					t.Fatalf("spin %d: slices=%d system=%d", i, got[i], want.Spins[i])
				}
			}
			if bitChanges != want.BitChanges {
				t.Errorf("bit changes: slices=%d system=%d", bitChanges, want.BitChanges)
			}
			if flips != want.Flips {
				t.Errorf("flips: slices=%d system=%d", flips, want.Flips)
			}
			if e := m.Energy(got); e != want.Energy {
				t.Errorf("energy: slices=%v system=%v", e, want.Energy)
			}
		})
	}
}

// TestSliceSnapshotRestoreContinuesBitIdentically interrupts a
// lockstep drive at a barrier, snapshots every slice, rebuilds fresh
// slices, restores, and finishes — the hand-off path cluster recovery
// uses. The result must equal an uninterrupted drive.
func TestSliceSnapshotRestoreContinuesBitIdentically(t *testing.T) {
	m := kgraph(40, 3)
	cfg := Config{Chips: 3, Coordinated: true, Seed: 5}
	const duration = 30

	build := func() []*Slice {
		ss := make([]*Slice, cfg.Chips)
		for i := range ss {
			s, err := NewSlice(m, cfg, i, duration)
			if err != nil {
				t.Fatalf("NewSlice(%d): %v", i, err)
			}
			ss[i] = s
		}
		return ss
	}

	reference := build()
	wantSpins, _, _ := driveSlices(t, reference)

	// Drive 3 epochs, snapshot at the barrier (post-sync), then restore
	// onto fresh slices and finish.
	first := build()
	for e := 0; e < 3; e++ {
		reps := make([]*EpochReport, len(first))
		for i, s := range first {
			rep, err := s.RunEpoch()
			if err != nil {
				t.Fatalf("epoch: %v", err)
			}
			reps[i] = rep
		}
		for ci, rep := range reps {
			for di, d := range first {
				if di != ci {
					if err := d.ApplySync(rep.Updates); err != nil {
						t.Fatalf("sync: %v", err)
					}
				}
			}
		}
	}
	states := make([]*SliceState, len(first))
	for i, s := range first {
		states[i] = s.Snapshot()
	}

	second := build()
	for i, s := range second {
		if err := s.Restore(states[i]); err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
		if s.Epochs() != 3 {
			t.Fatalf("restored slice %d at epoch %d, want 3", i, s.Epochs())
		}
	}
	gotSpins, _, _ := driveSlices(t, second)
	for i := range gotSpins {
		if gotSpins[i] != wantSpins[i] {
			t.Fatalf("spin %d after restore: %d, want %d", i, gotSpins[i], wantSpins[i])
		}
	}
}

// TestSliceFabricAccountingMatchesSystem replays the coordinator's
// fabric mirroring — Record per non-empty broadcast, EndEpoch per
// barrier — and checks traffic and stall equal the in-process run's.
func TestSliceFabricAccountingMatchesSystem(t *testing.T) {
	m := kgraph(36, 11)
	cfg := Config{Chips: 3, Seed: 17, Channels: 1, ChannelBytesPerNS: 0.25}
	const duration = 20
	want := MustSystem(m, cfg).RunConcurrent(duration)

	slices := make([]*Slice, cfg.Chips)
	for i := range slices {
		s, err := NewSlice(m, cfg, i, duration)
		if err != nil {
			t.Fatalf("NewSlice: %v", err)
		}
		slices[i] = s
	}
	fab, err := interconnect.New(cfg.Chips, cfg.Channels, cfg.ChannelBytesPerNS)
	if err != nil {
		t.Fatal(err)
	}
	for !slices[0].Done() {
		reps := make([]*EpochReport, len(slices))
		for i, s := range slices {
			rep, rerr := s.RunEpoch()
			if rerr != nil {
				t.Fatalf("epoch: %v", rerr)
			}
			reps[i] = rep
		}
		for ci, rep := range reps {
			if len(rep.Updates) > 0 {
				fab.Record(ci, interconnect.DeltaSyncBytes(len(rep.Updates), len(slices[ci].Owned()), cfg.Chips-1))
			}
			for di, d := range slices {
				if di != ci {
					if err := d.ApplySync(rep.Updates); err != nil {
						t.Fatalf("sync: %v", err)
					}
				}
			}
		}
		fab.EndEpoch(reps[0].EpochNS)
	}
	if got := fab.TotalBytes(); got != want.TrafficBytes {
		t.Errorf("traffic: %v, want %v", got, want.TrafficBytes)
	}
	if got := fab.StallNS(); got != want.StallNS {
		t.Errorf("stall: %v, want %v", got, want.StallNS)
	}
	if got := fab.PeakDemand(); math.Abs(got-want.PeakDemandBytesPerNS) > 1e-12 {
		t.Errorf("peak demand: %v, want %v", got, want.PeakDemandBytesPerNS)
	}
}

// TestSliceRejectsModeledFaults pins the boundary between the modeled
// fault layer (in-process simulation) and real cluster faults.
func TestSliceRejectsModeledFaults(t *testing.T) {
	m := kgraph(16, 1)
	cfg := Config{Chips: 2, Seed: 1}
	cfg.Faults.DropRate = 0.5
	cfg.Faults.Seed = 3
	if _, err := NewSlice(m, cfg, 0, 10); err == nil {
		t.Fatal("NewSlice accepted a modeled-fault config")
	}
}
