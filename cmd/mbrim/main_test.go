package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"mbrim/internal/checkpoint"
	"mbrim/internal/cluster"
)

// The tests drive the built binary: flags in, exit code, stdout, stderr
// and files out. Distributed rows run against two worker nodes served
// from this process.

// mbrimBin is the CLI, built once per test binary by TestMain (with the
// race detector when the tests themselves run under it: race_test.go).
var (
	mbrimBin   string
	buildFlags []string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mbrim-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mbrimBin = filepath.Join(dir, "mbrim")
	build := exec.Command("go", append(append([]string{"build"}, buildFlags...), "-o", mbrimBin, ".")...)
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// cli runs the binary and returns its exit code and output streams.
func cli(t *testing.T, args ...string) (exit int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(mbrimBin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case errors.As(err, &ee):
		exit = ee.ExitCode()
	case err != nil:
		t.Fatalf("running mbrim %v: %v", args, err)
	}
	return exit, out.String(), errb.String()
}

// outcome is the -json document's shape, as far as the rows read it.
type outcome struct {
	Kind   string
	Energy float64
	Cut    float64
	Spins  []int8
	Stats  map[string]float64
	Diag   struct {
		TraceID string `json:"traceID"`
		Fleet   *struct {
			Workers int `json:"workers"`
		} `json:"fleet"`
	} `json:"diag"`
}

// solveJSON runs a solve that must succeed and decodes its -json
// document, also returning its top-level keys.
func solveJSON(t *testing.T, args ...string) (outcome, []string) {
	t.Helper()
	exit, stdout, stderr := cli(t, append(args, "-json")...)
	if exit != 0 {
		t.Fatalf("mbrim %v: exit %d\n%s", args, exit, stderr)
	}
	var o outcome
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(stdout), &o); err != nil {
		t.Fatalf("mbrim %v: stdout is not the outcome document: %v\n%s", args, err, stdout)
	}
	json.Unmarshal([]byte(stdout), &top)
	keys := make([]string, 0, len(top))
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return o, keys
}

// sharedStats are the ledgers the in-process multiprocessor and the
// cluster engine both report.
var sharedStats = []string{"flips", "inducedFlips", "bitChanges", "trafficBytes", "stallNS"}

// sameTrajectory compares what a seeded run determines.
func sameTrajectory(t *testing.T, label string, got, want outcome) {
	t.Helper()
	if got.Energy != want.Energy || got.Cut != want.Cut || !reflect.DeepEqual(got.Spins, want.Spins) {
		t.Errorf("%s: energy %v cut %v, want %v %v (spins equal: %v)", label,
			got.Energy, got.Cut, want.Energy, want.Cut, reflect.DeepEqual(got.Spins, want.Spins))
	}
	for _, k := range []string{"flips", "inducedFlips", "bitChanges"} {
		if got.Stats[k] != want.Stats[k] {
			t.Errorf("%s: Stats.%s = %v, want %v", label, k, got.Stats[k], want.Stats[k])
		}
	}
}

// startWorkers serves n cluster worker nodes and returns the -cluster
// argument naming them.
func startWorkers(t *testing.T, n int) string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		mux := http.NewServeMux()
		cluster.NewWorker(nil, 0).Routes(mux)
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return strings.Join(urls, ",")
}

// traceOrigins reads a Chrome trace and returns the distinct trace IDs
// and origins its events carry.
func traceOrigins(t *testing.T, path string) (ids, origins []string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Args struct{ Trace, Origin string }
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s is not a Chrome trace: %v", path, err)
	}
	seenID, seenOrigin := map[string]bool{}, map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Args.Trace != "" && !seenID[ev.Args.Trace] {
			seenID[ev.Args.Trace] = true
			ids = append(ids, ev.Args.Trace)
		}
		if ev.Args.Origin != "" && !seenOrigin[ev.Args.Origin] {
			seenOrigin[ev.Args.Origin] = true
			origins = append(origins, ev.Args.Origin)
		}
	}
	sort.Strings(origins)
	return ids, origins
}

func TestEnginesListsCluster(t *testing.T) {
	exit, stdout, _ := cli(t, "-engines")
	if exit != 0 || !regexp.MustCompile(`(?m)^cluster\s+resume,`).MatchString(stdout) {
		t.Fatalf("-engines: exit %d\n%s", exit, stdout)
	}
}

// TestUsageErrors: what main refuses exits 1 with the reason on stderr
// and nothing on stdout.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"cluster without workers", []string{"-cluster", ",", "-k", "16"}, "cluster: no workers"},
		{"cluster engine without -cluster", []string{"-solver", "cluster", "-k", "16"}, "cluster: no workers"},
		{"unknown solver", []string{"-solver", "taboo", "-k", "16"}, `did you mean "tabu"`},
		{"portfolio flag on another solver", []string{"-solver", "sa", "-portfolio", "sa,tabu", "-k", "16"}, "require -solver portfolio"},
		{"kill index past the worker list", []string{"-cluster", "http://127.0.0.1:1", "-k", "16", "-chaos-kill-worker", "3"}, "only 1 workers"},
		{"no problem", nil, "need a graph file argument or -k N"},
	} {
		exit, stdout, stderr := cli(t, append(tc.args, "-json")...)
		if exit != 1 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1 and %q on stderr", tc.name, exit, stdout, stderr, tc.want)
		}
	}
}

// TestClusterIsOneMoreSolver: -cluster URLS is -solver cluster with a
// worker list — the same document as -solver mbrim, key for key, and the
// same trajectory bit for bit.
func TestClusterIsOneMoreSolver(t *testing.T) {
	problem := []string{"-k", "32", "-chips", "2", "-duration", "60", "-seed", "7", "-bandwidth", "0.05"}
	inproc, inprocKeys := solveJSON(t, append([]string{"-solver", "mbrim"}, problem...)...)
	dist, distKeys := solveJSON(t, append([]string{"-cluster", startWorkers(t, 2)}, problem...)...)
	if dist.Kind != "cluster" || inproc.Kind != "mbrim" {
		t.Errorf("kinds %q, %q", dist.Kind, inproc.Kind)
	}
	if !reflect.DeepEqual(distKeys, inprocKeys) {
		t.Errorf("top-level keys differ:\n cluster %v\n mbrim   %v", distKeys, inprocKeys)
	}
	sameTrajectory(t, "cluster vs mbrim", dist, inproc)
	for _, k := range sharedStats {
		if _, ok := dist.Stats[k]; !ok || dist.Stats[k] != inproc.Stats[k] {
			t.Errorf("Stats.%s: cluster %v, mbrim %v", k, dist.Stats[k], inproc.Stats[k])
		}
	}
	if inproc.Stats["stallNS"] == 0 {
		t.Error("the fabric never stalled: the stall ledger is unpinned")
	}

	// The text printer is the same one too, with the engine's own ledger.
	exit, stdout, _ := cli(t, append([]string{"-cluster", startWorkers(t, 2)}, problem...)...)
	for _, line := range []string{"solver:  cluster\n", fmt.Sprintf("energy:  %.0f\n", inproc.Energy), "epochs:", "liveWorkers: 2\n"} {
		if exit != 0 || !strings.Contains(stdout, line) {
			t.Errorf("text output (exit %d) lacks %q:\n%s", exit, line, stdout)
		}
	}
}

// TestClusterInterruptAndResume: a -cluster run cut by -timeout takes
// the one interrupt path — exit 3, the checkpoint written, the -trace
// file flushed through the interrupt barrier — and the checkpoint
// resumes under either engine to the uninterrupted run's answer. The
// CLI's own cluster path used to exit without the flush (the trace ended
// wherever the last full buffer did) and ignored -resume.
func TestClusterInterruptAndResume(t *testing.T) {
	dir := t.TempDir()
	ckpt, trace := filepath.Join(dir, "run.ckpt"), filepath.Join(dir, "run.jsonl")
	// 100 epochs. The delaying proxies hold every RPC 20 ms, so the whole
	// run cannot take under 2 s on any host and the 1 s budget cuts it
	// mid-flight.
	problem := []string{"-k", "32", "-chips", "2", "-duration", "330", "-seed", "7"}
	workers := startWorkers(t, 2)
	want, _ := solveJSON(t, append([]string{"-solver", "mbrim"}, problem...)...)

	exit, stdout, stderr := cli(t, append([]string{"-cluster", workers, "-chaos-delay-rate", "1", "-chaos-delay", "20ms",
		"-timeout", "1s", "-checkpoint", ckpt, "-trace", trace, "-json"}, problem...)...)
	if exit != 3 || stdout != "" || !strings.Contains(stderr, "mbrim: interrupted:") || !strings.Contains(stderr, "best-so-far energy") {
		t.Fatalf("interrupted run: exit %d, stdout %q\n%s", exit, stdout, stderr)
	}
	env, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("no checkpoint written: %v\n%s", err, stderr)
	}
	file, err := checkpoint.Decode(env)
	if err != nil || file.Multichip == nil {
		t.Fatalf("checkpoint does not decode: %v", err)
	}
	cut := file.Multichip.EpochsDone
	if cut < 1 || cut >= 100 {
		t.Fatalf("checkpoint at epoch %d of 100", cut)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var last struct {
		Kind  string
		Epoch int
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Kind != "epoch_sync" || last.Epoch != cut {
		t.Errorf("trace ends %q (%v) after %d lines; want the epoch_sync of barrier %d, where the checkpoint was taken",
			lines[len(lines)-1], err, len(lines), cut)
	}

	for _, engine := range [][]string{{"-cluster", workers}, {"-solver", "mbrim"}} {
		got, _ := solveJSON(t, append(append(engine, "-resume", ckpt), problem...)...)
		sameTrajectory(t, fmt.Sprintf("%v -resume", engine[0]), got, want)
	}
}

// TestClusterFederatedIntrospection: -diag and -span-trace are the
// introspection plane every engine has; on a federated cluster run the
// diagnostics carry the fleet section and the span trace is the fleet's,
// coordinator and workers under one trace ID. The CLI's own cluster path
// used to accept both flags and do nothing.
func TestClusterFederatedIntrospection(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "fleet.trace.json")
	got, _ := solveJSON(t, "-cluster", startWorkers(t, 2), "-k", "32", "-chips", "2", "-duration", "60", "-seed", "7",
		"-ckpt-every", "3", "-federate", "-diag", "-span-trace", spans)
	if got.Diag.Fleet == nil || got.Diag.Fleet.Workers != 2 || !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got.Diag.TraceID) {
		t.Errorf("diag: fleet %+v, traceID %q; want 2 workers under a 16-hex trace ID", got.Diag.Fleet, got.Diag.TraceID)
	}
	ids, origins := traceOrigins(t, spans)
	if len(ids) != 1 || ids[0] != got.Diag.TraceID || !reflect.DeepEqual(origins, []string{"co", "w0", "w1"}) {
		t.Errorf("span trace: trace IDs %v, origins %v; want co, w0, w1 under %s", ids, origins, got.Diag.TraceID)
	}
}

// TestClusterChaosKill: a worker blackholed between two epochs costs a
// rollback and a replay, never the trajectory; the ledger says so.
func TestClusterChaosKill(t *testing.T) {
	problem := []string{"-k", "32", "-chips", "2", "-duration", "60", "-seed", "7"}
	want, _ := solveJSON(t, append([]string{"-solver", "mbrim"}, problem...)...)
	got, _ := solveJSON(t, append([]string{"-cluster", startWorkers(t, 2),
		"-ckpt-every", "3", "-chaos-kill-worker", "1", "-chaos-kill-epoch", "5"}, problem...)...)
	sameTrajectory(t, "after a worker kill", got, want)
	if s := got.Stats; s["workerDeaths"] < 1 || s["recoveries"] < 1 || s["replayedEpochs"] < 1 || s["degraded"] != 1 || s["liveWorkers"] != 1 {
		t.Errorf("recovery ledger: %v", s)
	}
}
