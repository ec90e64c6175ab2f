package cluster

import (
	"encoding/json"
	"testing"

	"mbrim/internal/interconnect"
	"mbrim/internal/multichip"
)

// FuzzEpochReport feeds arbitrary step-response bytes through the
// barrier's consumption of a worker's report: checkReport must answer
// with an error or admit a report the rest of the barrier handles — the
// fabric charge does not panic, the spin mirror stays ±1, and a peer
// slice accepts the forwarded updates. (ROADMAP 5c: every byte that
// arrives over the network is fuzzed.)
func FuzzEpochReport(f *testing.F) {
	m := kmodel(12, 5)
	mcfg := multichip.Config{Chips: 2, Seed: 3}
	_, parts, err := multichip.Partition(m.N(), mcfg)
	if err != nil {
		f.Fatal(err)
	}
	sender, err := multichip.NewSlice(m, mcfg, 0, 20)
	if err != nil {
		f.Fatal(err)
	}
	rep, err := sender.RunEpoch()
	if err != nil {
		f.Fatal(err)
	}
	genuine, err := json.Marshal(&StepResponse{Report: rep})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(genuine)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"report":{"epoch":1,"spins":[1,1,1,1,1,1],"updates":[{"li":0,"g":0,"v":1},{"li":0,"g":0,"v":1}]}}`))
	f.Add([]byte(`{"report":{"epoch":1,"spins":[1,1,1,1,1,1],"updates":[{"li":5,"g":11,"v":-1}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp StepResponse
		if json.Unmarshal(data, &resp) != nil {
			return
		}
		if checkReport(resp.Report, 1, parts[0]) != nil {
			return
		}
		rep := resp.Report
		interconnect.DeltaSyncBytes(len(rep.Updates), len(parts[0]), 1)
		peer, err := multichip.NewSlice(m, mcfg, 1, 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := peer.ApplySync(rep.Updates); err != nil {
			t.Fatalf("admitted report, but the peer slice rejects its updates: %v", err)
		}
	})
}
