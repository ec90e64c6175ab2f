package runs

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"mbrim/internal/core"
	"mbrim/internal/graph"
	"mbrim/internal/journal"
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
		sr, err := decodeSubmit(body)
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

// FuzzEdgeList holds EdgeList's one-pass decoder to encoding/json, for
// any bytes: both refuse, or both accept with the same bits in every
// entry, except that EdgeList refuses a row of other than three numbers
// where encoding/json pads or truncates it. Read as a whole body and as
// a body's edge list, a body decodeSubmit accepts is also the spec
// replay rebuilds the identical request from, through the journal's
// record encoding.
func FuzzEdgeList(f *testing.F) {
	for _, s := range []string{
		`[[1,2,1],[2,3,-1]]`,
		`[[1,2,1e5],[3,4,-2.5E-3],[5,6,7e+2],[7,8,0.5e-1]]`,
		`[[1,2,1e308],[2,1,-1e308],[1,2,4.9e-324],[1,2,1e-400]]`,
		`[[1,2,1e309]]`,
		`[[1,2,-0],[2,3,-0.0],[3,4,0],[4,5,-0e3]]`,
		`[[1,2,999999999999999],[1,2,-999999999999999],[1,2,1234567890123456]]`,
		`[[1,2,9007199254740993],[1,2,-12345678901234567890123]]`,
		" \t\n[ \r[ 1 , 2 ,\n3 ] ,\t[4,5,6 ]\n] ",
		`[]`, ` [ ] `, `null`, " null\n", `nul`, ``,
		`[[1,2],[2,3,1]]`, `[[1,2,1,9]]`, `[[1,2,null]]`, `[null]`, `[[]]`,
		`[[1,2,"3"]]`, `[[1,2,true]]`, `[[1,2,[3]]]`, `[{}]`, `{}`, `3`,
		`[[01,2,3]]`, `[[1.,2,3]]`, `[[.5,2,3]]`, `[[+1,2,3]]`, `[[1,2,3e]]`, `[[-,2,3]]`,
		`[[1,2,3],]`, `[[1,2,3]] x`, `[[1,2,3]][]`, `[[1,2,3]`,
	} {
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"engine":"mbrim","n":4, "edges" : [ [1,2,-0], [3,4,-0.5e1] ],"chips":2,"durationNS":10}` + "\n"))
	f.Add([]byte(`{"Engine":"sa","n":3,"edges":[[1,2,1]],"edges":[[2,3,1]],"seed":5}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var std [][3]float64
		stdErr := json.Unmarshal(data, &std)
		var direct, viaJSON EdgeList
		err := direct.UnmarshalJSON(data)
		if jerr := json.Unmarshal(data, &viaJSON); (jerr == nil) != (err == nil) {
			t.Fatalf("%q: UnmarshalJSON says %v, json.Unmarshal says %v", data, err, jerr)
		}
		switch {
		case err == nil && stdErr != nil:
			t.Fatalf("%q: accepted what encoding/json refuses (%v)", data, stdErr)
		case err == nil && !threeNumberRows(data):
			t.Fatalf("%q: accepted a row of other than three numbers", data)
		case err == nil:
			for _, got := range []EdgeList{direct, viaJSON} {
				if len(got) != len(std) {
					t.Fatalf("%q: %d rows, encoding/json reads %d", data, len(got), len(std))
				}
				for i := range got {
					for j := range got[i] {
						if math.Float64bits(got[i][j]) != math.Float64bits(std[i][j]) {
							t.Fatalf("%q: row %d entry %d is %v (%#x), encoding/json reads %v (%#x)", data, i, j,
								got[i][j], math.Float64bits(got[i][j]), std[i][j], math.Float64bits(std[i][j]))
						}
					}
				}
			}
		case stdErr == nil && threeNumberRows(data):
			t.Fatalf("%q: refused (%v) what encoding/json reads as three-number rows", data, err)
		}
		for _, body := range [][]byte{data, append(append([]byte(`{"engine":"sa","n":9,"edges":`), data...), '}')} {
			sr, err := decodeSubmit(body)
			if err != nil {
				continue
			}
			payload, err := json.Marshal(journal.Record{Type: journal.TypeSubmit, ID: "run-1", Spec: body})
			if err != nil {
				t.Fatalf("%q: the journal cannot encode an accepted body: %v", body, err)
			}
			var rec journal.Record
			if err := json.Unmarshal(payload, &rec); err != nil {
				t.Fatal(err)
			}
			var replayed SubmitRequest
			if err := json.Unmarshal(rec.Spec, &replayed); err != nil {
				t.Fatalf("%q: replay cannot read the journaled spec %q: %v", body, rec.Spec, err)
			}
			if !reflect.DeepEqual(*sr, replayed) {
				t.Fatalf("%q: submitted %+v, replay rebuilds %+v", body, *sr, replayed)
			}
		}
	})
}

// threeNumberRows reports whether data is null or an array whose every
// row is exactly three numbers, as encoding/json reads it.
func threeNumberRows(data []byte) bool {
	var rows [][]any
	if json.Unmarshal(data, &rows) != nil {
		return false
	}
	for _, row := range rows {
		if len(row) != 3 {
			return false
		}
		for _, v := range row {
			if _, ok := v.(float64); !ok {
				return false
			}
		}
	}
	return true
}
