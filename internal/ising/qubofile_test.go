package ising

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mbrim/internal/rng"
)

func TestQUBOFileRoundTrip(t *testing.T) {
	r := rng.New(1)
	q := randomQUBO(12, r)
	var buf bytes.Buffer
	if err := WriteQUBO(&buf, q); err != nil {
		t.Fatal(err)
	}
	back, err := ReadQUBO(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != q.N() {
		t.Fatalf("size changed: %d vs %d", back.N(), q.N())
	}
	// The format folds Q_ij + Q_ji into one entry; only the objective
	// is preserved, so compare values on random assignments.
	for trial := 0; trial < 20; trial++ {
		x := randomBits(12, r)
		if math.Abs(q.Value(x)-back.Value(x)) > 1e-9 {
			t.Fatalf("objective changed after round trip")
		}
	}
}

func TestQUBOFileFormat(t *testing.T) {
	q := NewQUBO(3)
	q.SetCoeff(0, 0, -1)
	q.SetCoeff(0, 2, 2)
	var buf bytes.Buffer
	if err := WriteQUBO(&buf, q); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "p qubo 0 3 1 1") {
		t.Fatalf("problem line wrong:\n%s", out)
	}
	if !strings.Contains(out, "0 0 -1") || !strings.Contains(out, "0 2 2") {
		t.Fatalf("entries missing:\n%s", out)
	}
}

func TestReadQUBOAcceptsComments(t *testing.T) {
	in := "c a comment\n\np qubo 0 2 1 1\n0 0 -3\n0 1 2\n"
	q, err := ReadQUBO(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if q.Coeff(0, 0) != -3 || q.Coeff(0, 1) != 2 {
		t.Fatal("coefficients wrong")
	}
}

func TestReadQUBONormalizesEntryOrder(t *testing.T) {
	// j < i entries are legal and fold to the upper triangle.
	in := "p qubo 0 2 0 1\n1 0 5\n"
	q, err := ReadQUBO(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if q.Coeff(0, 1) != 5 {
		t.Fatalf("coefficient %v, want 5 at (0,1)", q.Coeff(0, 1))
	}
}

func TestReadQUBORejects(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"no problem line": "0 0 1\n",
		"double problem":  "p qubo 0 2 0 0\np qubo 0 2 0 0\n",
		"bad counts":      "p qubo 0 2 5 5\n0 0 1\n",
		"out of range":    "p qubo 0 2 1 0\n5 5 1\n",
		"bad number":      "p qubo 0 2 1 0\n0 0 xyz\n",
		"zero nodes":      "p qubo 0 0 0 0\n",
		"short p line":    "p qubo 0 2\n",
		// 51 GB of matrix behind one line (FuzzReadQUBO found it): the
		// matrix is allocated for the entries a file holds, not promises.
		"header bomb":  "p qubo 0 80000 0 0\n",
		"header bomb2": "p qubo 0 80000 1 0\n7 7 1\n",
	}
	for name, in := range cases {
		if _, err := ReadQUBO(strings.NewReader(in)); err == nil {
			t.Fatalf("ReadQUBO accepted %s", name)
		}
	}
}

func TestQUBOFileThenIsing(t *testing.T) {
	// End-to-end: file → QUBO → Ising preserves the objective.
	in := "p qubo 0 3 2 1\n0 0 -2\n1 1 -2\n0 1 3\n"
	q, err := ReadQUBO(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	m, offset, err := q.ToIsing()
	if err != nil {
		t.Fatal(err)
	}
	// What a file can hold and a model cannot is an error, not a panic.
	for _, bad := range []string{"p qubo 0 2 0 1\n0 1 NaN\n", "p qubo 0 2 2 0\n0 0 1e308\n0 0 1e308\n"} {
		if qb, err := ReadQUBO(strings.NewReader(bad)); err != nil {
			t.Fatalf("%q: %v", bad, err)
		} else if _, _, err := qb.ToIsing(); err == nil {
			t.Fatalf("%q converted to a model", bad)
		}
	}
	for mask := 0; mask < 8; mask++ {
		x := make([]bool, 3)
		for i := range x {
			x[i] = mask&(1<<i) != 0
		}
		if math.Abs(q.Value(x)-(m.Energy(bitsToSpins(x))+offset)) > 1e-9 {
			t.Fatal("file-loaded QUBO broke the Ising identity")
		}
	}
}
