package rng

import (
	"math"
	"testing"
	"testing/quick"
)

// TestMix64IsSplitmix64: Mix64 of a splitmix64 state is the
// generator's output, so from state 0 it gives the reference stream's
// first words, and New(0) holds them as its state.
func TestMix64IsSplitmix64(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := Mix64(uint64(i) * gamma); got != w {
			t.Errorf("output %d = %#x, want %#x", i, got, w)
		}
	}
	if st := New(0).State(); st[0] != want[0] || st[1] != want[1] || st[2] != want[2] {
		t.Errorf("New(0) state %#x, want it to start %#x", st, want)
	}
}

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: streams diverged: %d vs %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 agree on %d of 100 outputs", same)
	}
}

func TestCloneTracksOriginal(t *testing.T) {
	a := New(7)
	for i := 0; i < 17; i++ {
		a.Uint64()
	}
	c := a.Clone()
	for i := 0; i < 1000; i++ {
		if a.Uint64() != c.Uint64() {
			t.Fatalf("clone diverged at step %d", i)
		}
	}
}

func TestCloneIsIndependentState(t *testing.T) {
	a := New(7)
	c := a.Clone()
	a.Uint64() // advance only the original
	if a.State() == c.State() {
		t.Fatal("advancing original mutated the clone")
	}
}

func TestForkDoesNotDisturbStream(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Fork(1)
	_ = a.Fork(2)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Fork advanced the parent stream (step %d)", i)
		}
	}
}

func TestForkLabelsIndependent(t *testing.T) {
	a := New(9)
	f1 := a.Fork(1)
	f2 := a.Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if f1.Uint64() == f2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forks with different labels agree on %d of 100 outputs", same)
	}
}

func TestForkSameLabelSameStream(t *testing.T) {
	a := New(9)
	f1 := a.Fork(5)
	f2 := a.Fork(5)
	for i := 0; i < 100; i++ {
		if f1.Uint64() != f2.Uint64() {
			t.Fatal("same-label forks should be identical")
		}
	}
}

func TestReseedResets(t *testing.T) {
	a := New(123)
	first := a.Uint64()
	for i := 0; i < 50; i++ {
		a.Uint64()
	}
	a.Reseed(123)
	if a.Uint64() != first {
		t.Fatal("Reseed did not restore the initial stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

func TestIntnBoundsProperty(t *testing.T) {
	r := New(5)
	f := func(n uint16, steps uint8) bool {
		bound := int(n%1000) + 1
		for i := 0; i < int(steps); i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(6)
	const buckets = 10
	const n = 100000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for b, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("bucket %d has fraction %v, want ~0.1", b, frac)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestSpinValues(t *testing.T) {
	r := New(8)
	plus, minus := 0, 0
	for i := 0; i < 10000; i++ {
		switch r.Spin() {
		case 1:
			plus++
		case -1:
			minus++
		default:
			t.Fatal("Spin returned a value outside {-1,+1}")
		}
	}
	if plus < 4500 || minus < 4500 {
		t.Fatalf("Spin badly unbalanced: +%d -%d", plus, minus)
	}
}

// TestSpinKeepsTheBranchForm pins the arithmetic Spin to the branch it
// replaced, draw for draw: every K-graph instance and every initial
// spin vector in the repository is made of these values.
func TestSpinKeepsTheBranchForm(t *testing.T) {
	branch := func(r *Source) int8 {
		if r.Uint64()&1 == 0 {
			return -1
		}
		return 1
	}
	for _, seed := range []uint64{1, 7, 61} {
		a, b := New(seed), New(seed)
		for i := 0; i < 10000; i++ {
			if got, want := a.Spin(), branch(b); got != want {
				t.Fatalf("seed %d, draw %d: Spin() = %d, the branch form %d", seed, i, got, want)
			}
		}
	}
}

// TestLowBitsIsUint64Calls: LowBits(k) is k calls of Uint64()&1, bit
// t from call t, for every k in 0…64, and leaves the state those calls
// leave — from every state a loop of LowBits calls reaches out of eight
// seeds, so each k starts from hundreds of unrelated states.
func TestLowBitsIsUint64Calls(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		r := New(seed)
		for step := 0; step < 65*16; step++ {
			k := (step + int(seed)) % 65
			ref := r.Clone()
			var want uint64
			for b := 0; b < k; b++ {
				want |= (ref.Uint64() & 1) << b
			}
			if got := r.LowBits(k); got != want {
				t.Fatalf("seed %d step %d: LowBits(%d) = %#x, %d calls of Uint64 give %#x", seed, step, k, got, k, want)
			}
			if r.State() != ref.State() {
				t.Fatalf("seed %d step %d: LowBits(%d) left state %x, %d calls of Uint64 leave %x", seed, step, k, r.State(), k, ref.State())
			}
		}
	}
	for _, k := range []int{-1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("LowBits(%d) did not panic", k)
				}
			}()
			New(1).LowBits(k)
		}()
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(10)
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	if r.Bool(-0.5) {
		t.Fatal("Bool(-0.5) returned true")
	}
	if !r.Bool(1.5) {
		t.Fatal("Bool(1.5) returned false")
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(11)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) hit fraction %v", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	f := func(n uint8) bool {
		size := int(n%64) + 1
		p := r.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSynchronizedReplicasStaySynchronized(t *testing.T) {
	// The coordinated-induced-flip invariant: k clones drawing the same
	// number of values produce identical sequences (DESIGN.md Sec 6).
	master := New(99)
	replicas := make([]*Source, 8)
	for i := range replicas {
		replicas[i] = master.Clone()
	}
	for step := 0; step < 500; step++ {
		want := replicas[0].Uint64()
		for i := 1; i < len(replicas); i++ {
			if got := replicas[i].Uint64(); got != want {
				t.Fatalf("replica %d diverged at step %d", i, step)
			}
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkLowBits(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.LowBits(64)
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000)
	}
	_ = sink
}
