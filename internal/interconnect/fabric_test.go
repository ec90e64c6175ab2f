package interconnect

import (
	"math"
	"testing"
	"testing/quick"
)

// mustNew builds a fabric from known-good arguments; constructor error
// paths are covered by TestNewErrors.
func mustNew(numChips, channels int, bytesPerNS float64) *Fabric {
	f, err := New(numChips, channels, bytesPerNS)
	if err != nil {
		panic(err)
	}
	return f
}

func TestNewErrors(t *testing.T) {
	for name, fn := range map[string]func() (*Fabric, error){
		"zero chips":    func() (*Fabric, error) { return New(0, 1, 1) },
		"zero channels": func() (*Fabric, error) { return New(1, 0, 1) },
		"neg rate":      func() (*Fabric, error) { return New(1, 1, -1) },
		"nan rate":      func() (*Fabric, error) { return New(1, 1, math.NaN()) },
	} {
		if f, err := fn(); err == nil || f != nil {
			t.Fatalf("%s: want error, got fabric=%v err=%v", name, f, err)
		}
	}
}

func TestUnlimitedFabricNeverStalls(t *testing.T) {
	f := mustNew(4, 3, 0)
	if !f.Unlimited() {
		t.Fatal("zero rate should be unlimited")
	}
	f.Record(0, 1e12)
	if s := f.EndEpoch(1); s != 0 {
		t.Fatalf("unlimited fabric stalled %v", s)
	}
	if !math.IsInf(f.EgressRate(), 1) {
		t.Fatal("unlimited egress rate should be +Inf")
	}
}

func TestStallComputation(t *testing.T) {
	// 2 channels × 5 bytes/ns = 10 bytes/ns. 100 bytes in a 5 ns epoch
	// needs 10 ns to drain → 5 ns stall.
	f := mustNew(2, 2, 5)
	f.Record(0, 100)
	if s := f.EndEpoch(5); math.Abs(s-5) > 1e-9 {
		t.Fatalf("stall = %v, want 5", s)
	}
	if math.Abs(f.StallNS()-5) > 1e-9 {
		t.Fatalf("cumulative stall = %v", f.StallNS())
	}
}

func TestStallTakesWorstChip(t *testing.T) {
	f := mustNew(3, 1, 10) // 10 bytes/ns per chip
	f.Record(0, 50)        // needs 5 ns
	f.Record(1, 200)       // needs 20 ns
	f.Record(2, 10)        // needs 1 ns
	if s := f.EndEpoch(4); math.Abs(s-16) > 1e-9 {
		t.Fatalf("stall = %v, want 16 (worst chip)", s)
	}
}

func TestNoStallWhenWithinBudget(t *testing.T) {
	f := mustNew(2, 1, 100)
	f.Record(0, 50)
	if s := f.EndEpoch(1); s != 0 {
		t.Fatalf("stall %v despite headroom", s)
	}
}

func TestEpochBucketsReset(t *testing.T) {
	f := mustNew(1, 1, 10)
	f.Record(0, 100)
	f.EndEpoch(10) // exactly drains
	// A second epoch with no traffic must not stall.
	if s := f.EndEpoch(10); s != 0 {
		t.Fatalf("stale epoch traffic leaked: stall %v", s)
	}
}

func TestTrafficAccounting(t *testing.T) {
	f := mustNew(2, 1, 0)
	f.Record(0, 10)
	f.Record(1, 20)
	f.Record(0, 5)
	if f.TotalBytes() != 35 {
		t.Fatalf("TotalBytes = %v", f.TotalBytes())
	}
}

func TestAddStall(t *testing.T) {
	f := mustNew(1, 1, 0)
	f.Record(0, 8)
	f.EndEpoch(1)
	f.AddStall(2.5)
	if got := f.StallNS(); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("StallNS = %v, want 2.5", got)
	}
}

func TestPeakDemand(t *testing.T) {
	f := mustNew(1, 1, 0)
	f.Record(0, 100)
	f.EndEpoch(10) // 10 bytes/ns
	f.Record(0, 10)
	f.EndEpoch(10) // 1 byte/ns
	if math.Abs(f.PeakDemand()-10) > 1e-9 {
		t.Fatalf("PeakDemand = %v, want 10", f.PeakDemand())
	}
	if got := f.Snapshot().Epochs; got != 2 {
		t.Fatalf("Epochs = %d", got)
	}
}

func TestDeliveryInvariant(t *testing.T) {
	// DESIGN.md invariant: bytes delivered ≤ bandwidth × (epoch+stall),
	// per chip, for any traffic pattern.
	f2 := func(loads []uint32, epochRaw uint16) bool {
		f := mustNew(4, 2, 3)
		epoch := float64(epochRaw%1000) + 1
		for i, l := range loads {
			f.Record(i%4, float64(l%100000))
		}
		var perChip [4]float64
		for i, l := range loads {
			perChip[i%4] += float64(l % 100000)
		}
		stall := f.EndEpoch(epoch)
		budget := f.EgressRate() * (epoch + stall)
		for _, b := range perChip {
			if b > budget+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f2, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpinIndexBits(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4,
		1024: 10, 1025: 11, 8000: 13, 32000: 15}
	for n, want := range cases {
		if got := SpinIndexBits(n); got != want {
			t.Fatalf("SpinIndexBits(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFlipUpdateBytes(t *testing.T) {
	// 1024 spins → 10 bits → 1.25 bytes per destination; 3 destinations.
	if got := FlipUpdateBytes(1024, 3); math.Abs(got-3.75) > 1e-12 {
		t.Fatalf("FlipUpdateBytes = %v, want 3.75", got)
	}
	if got := FlipUpdateBytes(1024, 0); got != 0 {
		t.Fatalf("zero fanout cost = %v", got)
	}
}

func TestDeltaSyncBytesPicksCheaper(t *testing.T) {
	// 1000 local spins, 10 changes: index list = 10×10 bits = 100 bits
	// beats the 1000-bit bitmap.
	few := DeltaSyncBytes(10, 1000, 1)
	if math.Abs(few-100.0/8) > 1e-12 {
		t.Fatalf("few-changes cost = %v, want 12.5", few)
	}
	// 500 changes: 500×10 = 5000 bits; bitmap 1000 bits wins.
	many := DeltaSyncBytes(500, 1000, 1)
	if math.Abs(many-1000.0/8) > 1e-12 {
		t.Fatalf("many-changes cost = %v, want 125", many)
	}
}

func TestDeltaSyncBytesMonotoneProperty(t *testing.T) {
	// More changes can never cost less.
	f := func(aRaw, bRaw uint16) bool {
		local := 1000
		a := int(aRaw) % (local + 1)
		b := int(bRaw) % (local + 1)
		if a > b {
			a, b = b, a
		}
		return DeltaSyncBytes(a, local, 2) <= DeltaSyncBytes(b, local, 2)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad chip":    func() { mustNew(2, 1, 1).Record(2, 1) },
		"neg bytes":   func() { mustNew(2, 1, 1).Record(0, -1) },
		"zero epoch":  func() { mustNew(2, 1, 1).EndEpoch(0) },
		"neg stall":   func() { mustNew(2, 1, 1).AddStall(-1) },
		"bad changes": func() { DeltaSyncBytes(11, 10, 1) },
		"bad index n": func() { SpinIndexBits(0) },
		"neg fanout":  func() { FlipUpdateBytes(8, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
