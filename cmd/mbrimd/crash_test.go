package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mbrim/internal/core"
	"mbrim/internal/graph"
	"mbrim/internal/rng"
	"mbrim/internal/runs"
)

// buildDaemon compiles mbrimd once into a temp dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mbrimd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// logBuffer collects a daemon's stderr for the test to read while the
// daemon still writes.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	os.Stderr.Write(p)
	return l.buf.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startDaemon launches the binary and scrapes the bound address from
// its banner line. The returned process is NOT cleaned up via t.Cleanup
// — crash tests kill it themselves.
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	return startDaemonLogging(t, bin, os.Stderr, args...)
}

// startDaemonLogging is startDaemon with the daemon's stderr sent to w.
func startDaemonLogging(t *testing.T, bin string, w io.Writer, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "localhost:0"}, args...)...)
	cmd.Stderr = w
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "mbrimd: listening on http://"); ok {
			go func() { // keep draining so the child never blocks on stdout
				for sc.Scan() {
				}
			}()
			return cmd, "http://" + rest
		}
	}
	_ = cmd.Process.Kill()
	t.Fatal("daemon never printed its listen banner")
	return nil, ""
}

func waitReady(t *testing.T, base string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("daemon at %s never became ready", base)
}

// crashRunNS is the model time every crash-test run asks for.
const crashRunNS = 20000

// runProgress reads run-1's live model time and phase off GET /runs/run-1.
func runProgress(t *testing.T, base string) (modelNS float64, phase string) {
	t.Helper()
	resp, err := http.Get(base + "/runs/run-1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Progress struct {
			ModelNS float64 `json:"modelNS"`
			Phase   string  `json:"phase"`
		} `json:"progress"`
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET /runs/run-1 = %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Progress.ModelNS, st.Progress.Phase
}

type outcomeBody struct {
	State  string             `json:"state"`
	Energy float64            `json:"energy"`
	Stats  map[string]float64 `json:"stats"`
	Spins  []int8             `json:"spins"`
}

// TestCrashRecoveryBitIdentical is the end-to-end durability pin: a
// daemon is SIGKILLed mid-run with durable state on disk, a second
// daemon replays the journal and resumes the run from its last
// checkpoint — its replay line says resumed, not failed or restarted —
// and the outcome must be bit-identical — energy, flips and full spin
// state — to the same request solved in-process without any
// interruption. The cluster row runs the chips on two -worker daemons
// that outlive the coordinator: the resumed run re-creates its slices
// over the orphans the killed one left there.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real daemons")
	}
	bin := buildDaemon(t)
	for _, engine := range []string{"mbrim", "cluster"} {
		t.Run(engine, func(t *testing.T) {
			// crashAndResume kills the run in the first half of its
			// model time, whatever the host's speed, and says so if a
			// host ever outruns that.
			body := fmt.Sprintf(`{"engine":"mbrim","k":64,"chips":2,"durationNS":%d,"seed":7}`, crashRunNS)
			if engine == "cluster" {
				var workers []string
				for range 2 {
					w, base := startDaemon(t, bin, "-worker")
					defer func() {
						_ = w.Process.Kill()
						_ = w.Wait()
					}()
					waitReady(t, base, 10*time.Second)
					workers = append(workers, base)
				}
				body = fmt.Sprintf(`{"engine":"cluster","workers":["%s"],"k":64,"durationNS":%d,"seed":7}`,
					strings.Join(workers, `","`), crashRunNS)
			}
			crashAndResume(t, bin, body)
		})
	}
}

func crashAndResume(t *testing.T, bin, body string) {
	state := t.TempDir()
	cmd, base := startDaemon(t, bin, "-state-dir", state, "-checkpoint-every", "20ms")
	waitReady(t, base, 10*time.Second)

	resp, err := http.Post(base+"/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("submit = %d", resp.StatusCode)
	}

	// Kill once a checkpoint is durable and the run's model time has
	// moved past where it stood when the checkpoint appeared, so the kill
	// lands mid-flight with state genuinely behind the solve — and while
	// the run is in the first half of its model time, so the replay has
	// real work left to resume. The gate reads the run's own clock, not
	// the wall's: a faster host or a faster step cannot slip the kill
	// past the run's end. The daemon checkpoints at its shortest cadence,
	// 20 ms, so the first checkpoint lands early in the run; a run that
	// passes half before one is durable is too short for this check, and
	// says so.
	ckptDir := filepath.Join(state, "checkpoints")
	seenAt := -1.0 // model time when a checkpoint file was first seen
	for deadline := time.Now().Add(15 * time.Second); ; {
		durable := seenAt >= 0
		if !durable {
			ents, err := os.ReadDir(ckptDir)
			durable = err == nil && len(ents) > 0
		}
		modelNS, phase := runProgress(t, base)
		if modelNS >= crashRunNS/2 || phase == "done" {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatalf("run too short: at %v of its %v model ns (phase %q) before a checkpoint was durable and behind the solve", modelNS, crashRunNS, phase)
		}
		if durable && seenAt < 0 {
			seenAt = modelNS
		} else if durable && modelNS > seenAt {
			t.Logf("kill at %v of %v model ns; a checkpoint was durable at %v", modelNS, crashRunNS, seenAt)
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatalf("no checkpoint behind the solve within 15s (run at %v model ns, checkpoint seen at %v)", modelNS, seenAt)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no goodbye
		t.Fatal(err)
	}
	_ = cmd.Wait()

	// Second generation: same state dir, journal replays, run resumes.
	var log logBuffer
	cmd2, base2 := startDaemonLogging(t, bin, &log, "-state-dir", state, "-checkpoint-every", "20ms")
	defer func() {
		_ = cmd2.Process.Kill()
		_ = cmd2.Wait()
	}()
	waitReady(t, base2, 10*time.Second)
	// The replay line reaches log through exec's copy goroutine, which
	// may not have delivered it yet when /readyz first answers.
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(log.String(), " unrecoverable\n") && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if replay := log.String(); !strings.Contains(replay, "0 tombstone(s), 1 resumed, 0 restarted from scratch, 0 unrecoverable") {
		t.Fatalf("replay line does not report one resumed run:\n%s", replay)
	}

	var out outcomeBody
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base2 + "/runs/run-1/outcome")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == 200 {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("resumed run never reached a terminal outcome")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if out.State != "completed" {
		t.Fatalf("resumed run state = %s, want completed", out.State)
	}

	// The uninterrupted reference, mirroring buildRequest's defaults for
	// the submitted body (graphSeed 1, sampleEvery duration/100; a
	// cluster run's chips default to one per worker). The
	// in-process concurrent engine is the reference for both rows: a
	// cluster run is bit-identical to it.
	g := graph.Complete(64, rng.New(1))
	ref, err := core.Solve(core.Request{
		Kind: core.MBRIMConcurrent, Model: g.ToIsing(), Graph: g,
		Seed: 7, DurationNS: crashRunNS, Chips: 2, SampleEveryNS: crashRunNS / 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(out.Energy) != math.Float64bits(ref.Energy) {
		t.Fatalf("energy after crash-resume: %v != reference %v", out.Energy, ref.Energy)
	}
	for _, k := range []string{"flips", "bitChanges", "trafficBytes"} {
		if out.Stats[k] != ref.Stats[k] {
			t.Fatalf("%s after crash-resume: %v != reference %v", k, out.Stats[k], ref.Stats[k])
		}
	}
	if len(out.Spins) != len(ref.Spins) {
		t.Fatalf("spin count %d != %d", len(out.Spins), len(ref.Spins))
	}
	for i := range out.Spins {
		if out.Spins[i] != ref.Spins[i] {
			t.Fatalf("spin %d differs after crash-resume", i)
		}
	}
}

// TestOverloadShedding429 pins the overload contract against the real
// binary: saturate -max-active and -max-queued, then assert the next
// submission is shed with 429 + Retry-After and the rejection counter
// moved.
func TestOverloadShedding429(t *testing.T) {
	if testing.Short() {
		t.Skip("builds real daemons")
	}
	bin := buildDaemon(t)
	cmd, base := startDaemon(t, bin, "-max-active", "1", "-max-queued", "1")
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()
	waitReady(t, base, 10*time.Second)

	body := `{"engine":"mbrim-seq","k":20,"durationNS":50000,"seed":3,"chips":4}`
	for i, want := range []int{202, 202, 429} {
		resp, err := http.Post(base+"/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("submit %d = %d, want %d", i+1, resp.StatusCode, want)
		}
		if want == 429 && resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	found := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "runs_queue_rejected_total") {
			found = sc.Text() == "runs_queue_rejected_total 1"
			if !found {
				t.Fatalf("exposition line = %q", sc.Text())
			}
		}
	}
	if !found {
		t.Fatal("runs_queue_rejected_total missing from /metrics")
	}
}

// TestDirtyDrainCountsClusterRuns: a distributed run still cancelling
// when -drain-timeout expires is a dirty drain — exit code 4 — like any
// other run. The cluster manager used to cancel and wait for its runs
// before the drain deadline existed, so the daemon blocked past it and
// then exited 0.
func TestDirtyDrainCountsClusterRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds real daemons")
	}
	bin := buildDaemon(t)
	w, worker := startDaemon(t, bin, "-worker")
	defer func() {
		_ = w.Process.Kill()
		_ = w.Wait()
	}()
	waitReady(t, worker, 10*time.Second)
	cmd, base := startDaemon(t, bin, "-drain-timeout", "1ns")
	waitReady(t, base, 10*time.Second)
	resp, err := http.Post(base+"/cluster/runs", "application/json",
		strings.NewReader(`{"workers":["`+worker+`"],"k":32,"durationNS":1e6}`))
	if err != nil {
		t.Fatal(err)
	}
	var st runs.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != 202 || err != nil {
		_ = cmd.Process.Kill()
		t.Fatalf("submit = %d (%v)", resp.StatusCode, err)
	}
	// A run cancelled before its chips step can end within the 1 ns
	// deadline, and the drain is then rightly clean: signal only once
	// the cluster is through its first epoch.
	for deadline := time.Now().Add(10 * time.Second); st.State != runs.StateRunning || st.Progress.Epoch < 1; {
		if st.State.Terminal() || time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatalf("%s before SIGTERM: state %s, phase %q, epoch %d, error %q",
				st.ID, st.State, st.Progress.Phase, st.Progress.Epoch, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := http.Get(base + "/runs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != exitDirtyDrain {
		t.Fatalf("drain with a cluster run in flight: %v, want exit code %d", err, exitDirtyDrain)
	}
}
