package checkpoint

import (
	"strings"
	"testing"

	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/multichip"
	"mbrim/internal/rng"
)

func testModel(n int, seed uint64) *ising.Model {
	return graph.Complete(n, rng.New(seed)).ToIsing()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := testModel(16, 1)
	f := &File{
		Engine:    "mbrim",
		Seed:      7,
		N:         m.N(),
		ModelHash: HashModel(m),
		Multichip: &multichip.Checkpoint{Mode: multichip.ModeConcurrent, DurationNS: 40},
	}
	data, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Magic != Magic || got.Version != Version {
		t.Fatalf("envelope not stamped: %+v", got)
	}
	if got.Engine != f.Engine || got.Seed != f.Seed || got.N != f.N || got.ModelHash != f.ModelHash {
		t.Fatalf("round trip changed the envelope: %+v", got)
	}
	if got.Multichip == nil || got.Multichip.Mode != multichip.ModeConcurrent || got.Multichip.DurationNS != 40 {
		t.Fatalf("round trip lost the payload: %+v", got.Multichip)
	}
	if err := got.Validate("mbrim", 7, m); err != nil {
		t.Fatal(err)
	}
}

func TestValidateMismatches(t *testing.T) {
	m := testModel(16, 1)
	f := &File{Engine: "mbrim", Seed: 7, N: m.N(), ModelHash: HashModel(m)}

	if err := f.Validate("mbrim-batch", 7, m); err == nil {
		t.Fatal("accepted wrong engine")
	}
	if err := f.Validate("mbrim", 8, m); err == nil {
		t.Fatal("accepted wrong seed")
	}
	if err := f.Validate("mbrim", 7, testModel(24, 1)); err == nil {
		t.Fatal("accepted wrong size")
	}
	// Same size, different couplings: only the hash can tell.
	if err := f.Validate("mbrim", 7, testModel(16, 2)); err == nil {
		t.Fatal("accepted a different model of the same size")
	}
}

func TestHashModelSensitivity(t *testing.T) {
	a := testModel(16, 1)
	b := testModel(16, 1)
	if HashModel(a) != HashModel(b) {
		t.Fatal("identical models hash differently")
	}
	biased := ising.NewBuilder(16)
	for _, e := range graph.Complete(16, rng.New(1)).Edges() {
		biased.SetCoupling(e.U, e.V, -e.Weight)
	}
	biased.SetBias(3, 0.5)
	if b, err := biased.Build(); err != nil || HashModel(a) == HashModel(b) {
		t.Fatalf("bias change not reflected in hash (%v)", err)
	}
	g := graph.Complete(16, rng.New(1))
	g.AddEdge(0, 1, 42)
	if HashModel(a) == HashModel(g.ToIsing()) {
		t.Fatal("coupling change not reflected in hash")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	m := testModel(8, 1)
	data, err := Encode(&File{Engine: "mbrim", Seed: 1, N: m.N(), ModelHash: HashModel(m)})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       nil,
		"garbage":     []byte("not json at all"),
		"truncated":   data[:len(data)/2],
		"wrong magic": []byte(strings.Replace(string(data), Magic, "mbrim-XXXX", 1)),
		"bad version": []byte(strings.Replace(string(data), `"version":1`, `"version":99`, 1)),
		"zero n":      []byte(strings.Replace(string(data), `"n":8`, `"n":0`, 1)),
		"no engine":   []byte(strings.Replace(string(data), `"engine":"mbrim"`, `"engine":""`, 1)),
	}
	for name, bad := range cases {
		if _, err := Decode(bad); err == nil {
			t.Errorf("%s: corrupt bytes accepted", name)
		}
	}
}

// FuzzDecode asserts the hardening contract: Decode never panics, for
// any input — it either returns a structurally valid envelope or an
// error.
func FuzzDecode(f *testing.F) {
	m := testModel(8, 1)
	good, err := Encode(&File{Engine: "mbrim", Seed: 1, N: m.N(), ModelHash: HashModel(m),
		Multichip: &multichip.Checkpoint{Mode: multichip.ModeConcurrent, DurationNS: 10}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"magic":"mbrim-ckpt","version":1,"engine":"x","n":1}`))
	f.Add([]byte(`{"magic":"mbrim-ckpt","version":1,"engine":"x","n":1,"multichip":{"chips":[{}]}}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Decode(data)
		if err != nil {
			return
		}
		if file.Magic != Magic || file.Version != Version || file.N < 1 || file.Engine == "" {
			t.Fatalf("Decode accepted an invalid envelope: %+v", file)
		}
	})
}
