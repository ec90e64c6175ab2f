package runs

import (
	"bytes"
	"testing"

	"mbrim/internal/core"
	"mbrim/internal/graph"
)

// FuzzSubmitSpec feeds arbitrary bytes to the one submit path — the
// strict decoder, then buildRequest under a 64-spin bound. A body is
// either refused with an error or becomes a request the registry
// validates over a valid model within the bound; never a panic, and
// never a model the bound does not cover (the fence and the bound both
// come before the model is built).
func FuzzSubmitSpec(f *testing.F) {
	for _, c := range httpValidationCases {
		f.Add([]byte(c.body))
	}
	f.Add([]byte(`{"engine":"sa","k":8,"seed":3,"sweeps":5,"priority":2,"deadlineMS":50}`))
	f.Add([]byte(`{"engine":"mbrim","n":4,"edges":[[1,2,1],[3,4,-0.5]],"chips":2,"durationNS":10}`))
	f.Add([]byte(`{"engine":"sa","n":3,"edges":[[1,2,1e308],[2,1,1e308],[2,3,0]]}`)) // a weight that overflows, a zero one
	f.Add([]byte(`{"engine":"portfolio","k":8,"portfolio":{"entrants":[{"kind":"sa"},{"kind":"dsbm","steps":50}],` +
		`"targetEnergy":-4,"handOff":{"kind":"tabu"}}}`))
	f.Add([]byte(`{"engine":"cluster","workers":["http://127.0.0.1:1","http://127.0.0.1:2"],"k":16,` +
		`"checkpointEvery":2,"rpcTimeoutMS":100,"maxAttempts":2,"retryBudget":8,"federate":true}`))
	m := NewManager(Config{MaxSpins: 64, MaxRunBytes: 1 << 20})
	f.Fuzz(func(t *testing.T, body []byte) {
		sr, err := decodeSubmit(bytes.NewReader(body))
		if err != nil {
			return
		}
		req, err := m.buildRequest(sr)
		if err != nil {
			return
		}
		n, nnz := req.Model.N(), req.Model.NNZ()
		if n < 1 || n > 64 {
			t.Fatalf("accepted a %d-spin model under a 64-spin bound", n)
		}
		switch g := req.Graph.(type) {
		case *graph.KGraph: // {"k":n}: the model and its cuts, nothing else
			if sr.K != n || g.Model != req.Model || nnz != n*(n-1) {
				t.Fatalf("k=%d became a %d-spin model of %d couplings", sr.K, n, nnz)
			}
		case *graph.Graph:
			if g.N() != n {
				t.Fatalf("a %d-vertex graph became a %d-spin model", g.N(), n)
			}
			if nnz > 2*g.M() {
				t.Fatalf("a graph of %d edges became a model of %d couplings", g.M(), nnz)
			}
		default:
			t.Fatalf("a request reports cuts through %T", req.Graph)
		}
		if err := core.Validate(&req); err != nil {
			t.Fatalf("accepted a request its engine refuses: %v", err)
		}
	})
}
