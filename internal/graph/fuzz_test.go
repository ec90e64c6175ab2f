package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead checks the Gset parser never panics and that anything it
// accepts survives a write/read round trip.
func FuzzRead(f *testing.F) {
	f.Add("3 2\n1 2 1\n2 3 -1\n")
	f.Add("1 0\n")
	f.Add("2 1\n1 2 0.5\n")
	f.Add("bogus")
	f.Add("3 1\n1 1 1\n")
	f.Add("-1 -1\n")
	f.Add("88888888282 1\n1 2 1\n") // what coalescing costs follows the edges, not n
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		// Accepted graphs must be structurally valid and re-readable.
		if g.N() < 1 {
			t.Fatalf("accepted graph with n=%d", g.N())
		}
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			t.Fatalf("re-write failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				back.N(), back.M(), g.N(), g.M())
		}
	})
}
