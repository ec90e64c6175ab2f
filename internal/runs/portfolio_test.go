package runs

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"mbrim/internal/core"
	"mbrim/internal/diag"
	"mbrim/internal/obs"
)

// TestEnginesEndpoint pins the registry-derived GET /engines surface:
// every registered engine appears with its capability flags, the
// portfolio included (linked through this package's import).
func TestEnginesEndpoint(t *testing.T) {
	srv, _, _ := newTestServer(t, Config{})
	resp, body := getBody(t, srv.URL+"/engines")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /engines = %d %s", resp.StatusCode, body)
	}
	var payload struct {
		Engines []core.EngineInfo `json:"engines"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Engines) != len(core.Kinds()) {
		t.Fatalf("GET /engines lists %d engines, registry has %d",
			len(payload.Engines), len(core.Kinds()))
	}
	byKind := map[core.Kind]core.Capabilities{}
	for _, e := range payload.Engines {
		byKind[e.Kind] = e.Capabilities
	}
	if caps, ok := byKind[core.Portfolio]; !ok {
		t.Fatal("portfolio engine not listed")
	} else if caps.Description == "" {
		t.Fatal("portfolio listed without a description")
	}
	if caps := byKind[core.MBRIMConcurrent]; !caps.Resume {
		t.Fatal("mbrim listed without the resume capability")
	}
	if caps := byKind[core.SA]; !caps.WarmStart {
		t.Fatal("sa listed without the warm-start capability")
	}
}

// TestPortfolioOverHTTP submits an engine=portfolio run and follows it
// to a terminal state: the status must carry per-entrant progress and
// the winner, the outcome must carry the merged ledger.
func TestPortfolioOverHTTP(t *testing.T) {
	srv, m, _ := newTestServer(t, Config{})
	resp, body := postJSON(t, srv.URL+"/runs", `{
		"engine": "portfolio", "k": 24, "sweeps": 10,
		"portfolio": {"entrants": [
			{"kind": "sa", "sweeps": 10, "runs": 1},
			{"kind": "tabu", "sweeps": 10}
		]}
	}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	run, ok := m.Get(st.ID)
	if !ok {
		t.Fatal("run not registered")
	}
	waitDone(t, run)

	if _, body = getBody(t, srv.URL+"/runs/"+st.ID); true {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
	}
	if st.State != StateCompleted {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if len(st.Progress.Entrants) != 2 {
		t.Fatalf("entrant progress: %+v", st.Progress.Entrants)
	}
	e0, ok := st.Progress.Entrants["e0"]
	if !ok {
		t.Fatalf("no e0 entry: %+v", st.Progress.Entrants)
	}
	if e0.Engine != "sa" {
		t.Fatalf("e0 engine = %q", e0.Engine)
	}
	if e0.Phase == "racing" {
		t.Fatalf("e0 still racing after terminal state")
	}
	if st.Progress.Winner == "" || st.Progress.WinnerKind == "" {
		t.Fatalf("winner not recorded: %+v", st.Progress)
	}
	won := st.Progress.Entrants[st.Progress.Winner]
	if !won.Won {
		t.Fatalf("winner entry not marked: %+v", won)
	}

	// The outcome carries the merged ledger.
	resp, body = getBody(t, srv.URL+"/runs/"+st.ID+"/outcome")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("outcome = %d %s", resp.StatusCode, body)
	}
	var out OutcomeBody
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Engine != "portfolio" || out.Stats["entrants"] != 2 {
		t.Fatalf("outcome: engine %q stats %v", out.Engine, out.Stats)
	}
	if len(out.Spins) != 24 {
		t.Fatalf("spins length %d", len(out.Spins))
	}
	if out.Portfolio == nil || len(out.Portfolio.Entrants) != 2 {
		t.Fatalf("outcome portfolio report: %+v", out.Portfolio)
	}
	if got := out.Portfolio.WinnerKind; got == "" {
		t.Fatal("outcome report missing winner attribution")
	}

	// The diag snapshot folds the same race into its portfolio section.
	resp, body = getBody(t, srv.URL+"/runs/"+st.ID+"/diag")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diag = %d", resp.StatusCode)
	}
	var snap struct {
		Portfolio *struct {
			Entrants []struct {
				Kind  string `json:"kind"`
				Phase string `json:"phase"`
			} `json:"entrants"`
			Winner int `json:"winner"`
		} `json:"portfolio"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Portfolio == nil || len(snap.Portfolio.Entrants) != 2 {
		t.Fatalf("diag portfolio section: %s", body)
	}
	if snap.Portfolio.Winner < 0 {
		t.Fatalf("diag winner not folded: %s", body)
	}
}

// TestPortfolioSubmitValidation pins the 400 surface: malformed specs
// are rejected at submit, not as failed runs.
func TestPortfolioSubmitValidation(t *testing.T) {
	srv, _, _ := newTestServer(t, Config{})
	cases := []struct {
		name, body, want string
	}{
		{"spec without portfolio engine",
			`{"engine":"sa","k":8,"portfolio":{"entrants":[{"kind":"sa"}]}}`,
			"requires engine"},
		{"unknown entrant",
			`{"engine":"portfolio","k":8,"portfolio":{"entrants":[{"kind":"taboo"}]}}`,
			"did you mean"},
		{"nested portfolio",
			`{"engine":"portfolio","k":8,"portfolio":{"entrants":[{"kind":"portfolio"}]}}`,
			"do not nest"},
		{"hand-off without warm start",
			`{"engine":"portfolio","k":8,"portfolio":{"entrants":[{"kind":"sa"}],"handOff":{"kind":"pt"}}}`,
			"warm start"},
	}
	for _, c := range cases {
		resp, body := postJSON(t, srv.URL+"/runs", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d %s", c.name, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), c.want) {
			t.Fatalf("%s: body %s, want substring %q", c.name, body, c.want)
		}
	}
}

// TestProgressEntrantFolding drives the reducer behind Status.Progress
// directly with the event shapes the portfolio engine emits.
func TestProgressEntrantFolding(t *testing.T) {
	red := diag.New(diag.Config{})
	for _, e := range []obs.Event{
		{Kind: obs.EntrantStart, Label: "sa", Chip: 0, Seed: 1},
		{Kind: obs.EntrantStart, Label: "tabu", Chip: 1, Seed: 2},
		{Kind: obs.RunStart, Label: "sa", Seed: 1, Origin: "e0"},
		{Kind: obs.EnergySample, Value: -10, Origin: "e0"},
		{Kind: obs.EnergySample, Value: -25, Origin: "e0"},
		{Kind: obs.EnergySample, Value: -5, Origin: "e0"},
		{Kind: obs.EntrantEnd, Label: "tabu", Chip: 1, Count: 1, WallDurNS: 100},
		{Kind: obs.EntrantEnd, Label: "sa", Chip: 0, Value: -25, WallDurNS: 200},
		{Kind: obs.PortfolioWin, Label: "sa", Chip: 0, Value: -25, Count: 1},
	} {
		red.Emit(e)
	}
	p := red.Progress()

	if len(p.Entrants) != 2 {
		t.Fatalf("entrants: %+v", p.Entrants)
	}
	e0 := p.Entrants["e0"]
	if e0.Engine != "sa" || e0.BestEnergy != -25 || e0.LastEnergy != -25 || !e0.HasEnergy {
		t.Fatalf("e0: %+v", e0)
	}
	if e0.Phase != "done" || !e0.Won {
		t.Fatalf("e0 terminal state: %+v", e0)
	}
	if e1 := p.Entrants["e1"]; e1.Phase != "cancelled" || e1.Won {
		t.Fatalf("e1: %+v", e1)
	}
	if p.Winner != "e0" || p.WinnerKind != "sa" {
		t.Fatalf("winner: %q %q", p.Winner, p.WinnerKind)
	}
	// The entrants' energies are the race's live envelope.
	if !p.HasEnergy || p.BestEnergy != -25 || p.LastEnergy != -5 {
		t.Fatalf("race envelope: %+v", p)
	}
	// Entrant events must not clobber the run-level engine field.
	if p.Engine == "sa" {
		t.Fatal("entrant RunStart leaked into the top-level engine")
	}
	// The view owns its entrant map.
	red.Emit(obs.Event{Kind: obs.EnergySample, Value: -99, Origin: "e0"})
	if p.Entrants["e0"].BestEnergy == -99 {
		t.Fatal("Progress aliased the reducer's live entrant state")
	}
}

// TestProgressOriginsAgreeWithDiag: the status' progress and the
// diagnostics snapshot are two views of one fold, so they read an origin
// stamp alike. A federated cluster run stamps its coordinator's events
// "co" and its workers' "w0", "w1", …: they are the run's own stream —
// their epochs, bit changes and energies belong to the top-level view —
// and only e<digits> names a portfolio entrant. The status once had a
// fold of its own that filed every stamped event under an entrant named
// after the stamp, so GET /runs/{id} showed phantom entrants "co" and
// "w0" and never the run's epoch or energy.
func TestProgressOriginsAgreeWithDiag(t *testing.T) {
	red := diag.New(diag.Config{})
	for _, e := range []obs.Event{
		{Kind: obs.RunStart, Label: "cluster"},
		{Kind: obs.EpochSync, Epoch: 3, Count: 17, ModelNS: 9.9, Origin: "co", Trace: 0xabc},
		{Kind: obs.EnergySample, Epoch: 3, ModelNS: 9.9, Value: -40, Origin: "co", Trace: 0xabc},
		{Kind: obs.SpanEnd, Label: "chip_step", Span: 1 << 32, Count: 5, Origin: "w0", Trace: 0xabc},
		{Kind: obs.EnergySample, Value: -7, Origin: "e1"},
	} {
		red.Emit(e)
	}
	p := red.Progress()
	if p.Epoch != 3 || p.BitChanges != 17 || !p.HasEnergy || p.BestEnergy != -40 {
		t.Errorf("coordinator-stamped events missed the top-level view: %+v", p)
	}
	if len(p.Entrants) != 1 || !p.Entrants["e1"].HasEnergy || p.Entrants["e1"].BestEnergy != -7 {
		t.Errorf("entrants = %+v, want exactly e1 at -7", p.Entrants)
	}
	snap := red.Snapshot()
	if snap.Epoch != p.Epoch || snap.BestEnergy != -40 || snap.Traffic.SyncBitChanges != p.BitChanges {
		t.Errorf("diag top-level view %+v disagrees with progress %+v", snap, p)
	}
	if snap.Portfolio == nil || len(snap.Portfolio.Entrants) != 1 || snap.Portfolio.Entrants[0].Index != 1 {
		t.Errorf("diag entrants = %+v, want exactly entrant 1", snap.Portfolio)
	}
	if snap.Fleet == nil || snap.Fleet.Workers != 1 || snap.TraceID != "0000000000000abc" {
		t.Errorf("diag fleet view = %+v trace %q, want one worker under trace abc", snap.Fleet, snap.TraceID)
	}
}
