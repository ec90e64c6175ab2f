package runs

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"mbrim/internal/core"
	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/journal"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
)

// The operations-plane overhead A/B: the identical concurrent-mode
// solve run bare (the way the CLI and the experiment harness call it)
// versus through the run manager with all three operations-plane sinks
// attached — progress reducer, replay ring, live broadcast with one
// draining subscriber. The acceptance bound is that attachment stays
// within noise (~2%) of the detached solve.

func benchRequest() core.Request {
	g := graph.Complete(64, rng.New(1))
	return core.Request{Kind: core.MBRIMConcurrent, Model: g.ToIsing(), Graph: g,
		Seed: 7, DurationNS: 200, Chips: 4}
}

// BenchmarkKGraphBuild prices a K-graph's construction three ways: the
// library's Complete + ToIsing (an edge list, then the builder), the
// daemon's {"k":n} (drawn a word at a time straight into the planes),
// and the builder's Build alone over the same calls (the mirror, the
// count and the planes).
func BenchmarkKGraphBuild(b *testing.B) {
	m := NewManager(Config{})
	for _, n := range []int{256, 512} {
		b.Run(fmt.Sprintf("n=%d/complete+toising", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graph.Complete(n, rng.New(1)).ToIsing()
			}
		})
		b.Run(fmt.Sprintf("n=%d/daemon", n), func(b *testing.B) {
			b.ReportAllocs()
			sr := &SubmitRequest{Engine: "dsbm", K: n}
			for i := 0; i < b.N; i++ {
				if _, err := m.buildRequest(sr); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/build", n), func(b *testing.B) {
			edges := graph.Complete(n, rng.New(1)).Edges()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bld := ising.NewBuilder(n)
				for _, e := range edges {
					bld.SetCoupling(e.U, e.V, -e.Weight)
				}
				b.StartTimer()
				if _, err := bld.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolveDetached(b *testing.B) {
	req := benchRequest()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveManaged(b *testing.B) {
	req := benchRequest()
	m := NewManager(Config{Registry: obs.NewRegistry()})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := m.Submit(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		<-r.Done()
		if _, err := r.Outcome(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveJournaled is the same managed solve with the full
// durability layer on: fsync'd journal write-through plus the
// segmented-checkpoint machinery (the 2s default cadence never fires at
// this problem size, so the cost measured is the per-run record
// overhead — two fsync'd appends — not checkpoint I/O). Not part of
// the A/B acceptance bound; it quantifies what -state-dir costs when
// you opt in.
func BenchmarkSolveJournaled(b *testing.B) {
	req := benchRequest()
	dir := b.TempDir()
	reg := obs.NewRegistry()
	jw, err := journal.Open(filepath.Join(dir, "run.journal"), reg)
	if err != nil {
		b.Fatal(err)
	}
	defer jw.Close()
	m := NewManager(Config{Registry: reg, Journal: jw, StateDir: dir})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := m.Submit(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		<-r.Done()
		if _, err := r.Outcome(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitPath prices POST /runs's CPU on a sparse1k_mbrim4
// body: graph.Random(1024, 0.02) as 1-based float triples, ~10 500
// edges in ~130 KB. Its stages: the strict decode; the journal's submit
// record, whose spec is the body as received (the marshal compacts it);
// the /cluster/runs alias's re-marshal, journaled only when the handler
// fills in the engine; and buildRequest, the model included.
func BenchmarkSubmitPath(b *testing.B) {
	g := graph.Random(1024, 0.02, rng.New(1))
	edges := make([][3]float64, 0, g.M())
	for _, e := range g.Edges() {
		edges = append(edges, [3]float64{float64(e.U + 1), float64(e.V + 1), e.Weight})
	}
	body, err := json.Marshal(map[string]any{"engine": "mbrim", "seed": 1, "chips": 4, "durationNS": 100.0,
		"n": 1024, "edges": edges})
	if err != nil {
		b.Fatal(err)
	}
	sr, err := decodeSubmit(body)
	if err != nil {
		b.Fatal(err)
	}
	m := NewManager(Config{})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeSubmit(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("journal-record", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(journal.Record{Type: journal.TypeSubmit, ID: "run-1", WallNS: 1, Spec: body}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("alias-remarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(sr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.buildRequest(sr); err != nil {
				b.Fatal(err)
			}
		}
	})
}
