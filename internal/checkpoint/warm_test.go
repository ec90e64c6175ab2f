package checkpoint

import (
	"math"
	"strings"
	"testing"
)

func TestWarmRoundTrip(t *testing.T) {
	m := testModel(12, 1)
	spins := make([]int8, m.N())
	for i := range spins {
		spins[i] = int8(1 - 2*(i%2))
	}
	data, err := EncodeWarm("sa", 7, m, spins, -42.5)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Warm == nil {
		t.Fatal("warm payload lost in round trip")
	}
	if f.Warm.From != "sa" {
		t.Fatalf("From = %q", f.Warm.From)
	}
	if got := math.Float64frombits(f.Warm.EnergyBits); got != -42.5 {
		t.Fatalf("energy = %v, want -42.5 (bit-exact)", got)
	}
	if len(f.Warm.Spins) != m.N() {
		t.Fatalf("spins length %d", len(f.Warm.Spins))
	}
	for i := range spins {
		if f.Warm.Spins[i] != spins[i] {
			t.Fatalf("spin %d changed: %d != %d", i, f.Warm.Spins[i], spins[i])
		}
	}
	if err := f.ValidateWarm(m); err != nil {
		t.Fatal(err)
	}
	// EncodeWarm copies the spins: mutating the caller's slice after
	// encoding must not leak into the envelope.
	spins[0] = -spins[0]
	f2, _ := Decode(data)
	if f2.Warm.Spins[0] == spins[0] {
		t.Fatal("EncodeWarm aliased the caller's spin slice")
	}
}

func TestValidateWarmRejections(t *testing.T) {
	m := testModel(12, 1)
	spins := make([]int8, m.N())
	for i := range spins {
		spins[i] = 1
	}

	// Not a warm envelope at all (a plain resume checkpoint).
	plain := &File{Engine: "mbrim", Seed: 1, N: m.N(), ModelHash: HashModel(m)}
	if err := plain.ValidateWarm(m); err == nil || !strings.Contains(err.Error(), "warm") {
		t.Fatalf("plain envelope accepted as warm: %v", err)
	}

	// Wrong model: same size, different couplings.
	data, err := EncodeWarm("sa", 1, m, spins, -1)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := Decode(data)
	if err := f.ValidateWarm(testModel(12, 2)); err == nil {
		t.Fatal("accepted a warm start against a different model")
	}
	if err := f.ValidateWarm(testModel(16, 1)); err == nil {
		t.Fatal("accepted a warm start against a different size")
	}

	// Corrupt spin values.
	f.Warm.Spins[3] = 0
	if err := f.ValidateWarm(m); err == nil {
		t.Fatal("accepted a zero spin")
	}

	// Cross-engine and cross-seed hand-off is the point: neither is
	// checked by ValidateWarm.
	f2, _ := Decode(data)
	f2.Engine, f2.Seed = "something-else", 999
	if err := f2.ValidateWarm(m); err != nil {
		t.Fatalf("warm validation must not bind engine/seed: %v", err)
	}
}

func TestEncodeWarmRejectsMismatchedSpins(t *testing.T) {
	m := testModel(12, 1)
	if _, err := EncodeWarm("sa", 1, m, make([]int8, 5), -1); err == nil {
		t.Fatal("accepted a mis-sized spin vector")
	}
}
