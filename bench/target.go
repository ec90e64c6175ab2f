package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mbrim/internal/cluster"
	"mbrim/internal/journal"
	"mbrim/internal/obs"
	"mbrim/internal/runs"
)

// daemonFlags is the system under test's configuration: journaling on
// (the configuration with a crash story), two executing runs at most,
// retention bounded (unbounded retention grows RSS without limit and
// slows every solve).
var daemonFlags = []string{"-max-active", "2", "-max-queued", "16", "-retain-runs", "8"}

// target is a booted system under test: one ops daemon, plus worker
// nodes for the cluster workload.
type target struct {
	base    string   // daemon base URL
	workers []string // worker base URLs
	pids    []int    // processes whose CPU and RSS count
	journal string   // run journal path, for in-process targets
	stop    func()
}

// proc is one child mbrimd. Children run in their own process group so
// one signal reaches everything they might fork, and every one is
// registered with the reaper so no exit path leaves one behind.
type proc struct {
	cmd  *exec.Cmd
	addr string
	logf *os.File
}

// reaper tracks live children for the exit paths (defer, signal).
var reaper struct {
	sync.Mutex
	live map[*proc]bool
}

func (p *proc) kill() {
	reaper.Lock()
	alive := reaper.live[p]
	delete(reaper.live, p)
	reaper.Unlock()
	if !alive {
		return
	}
	// The state directory is disposable, so there is nothing for a
	// graceful drain to save: kill the group and wait for the exit.
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	_ = p.cmd.Wait()
	p.logf.Close()
}

// killAll stops every child still alive.
func killAll() {
	reaper.Lock()
	ps := make([]*proc, 0, len(reaper.live))
	for p := range reaper.live {
		ps = append(ps, p)
	}
	reaper.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// startProc launches mbrimd with args, keeps its stderr in logPath and
// returns once the "listening on" line gave the bound address.
func startProc(bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, logf: logf}
	reaper.Lock()
	if reaper.live == nil {
		reaper.live = map[*proc]bool{}
	}
	reaper.live[p] = true
	reaper.Unlock()

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "mbrimd: listening on http://"); ok && !sent {
				addrCh <- a
				sent = true
			}
		}
		if !sent {
			close(addrCh)
		}
	}()
	select {
	case a, ok := <-addrCh:
		if !ok {
			p.kill()
			return nil, fmt.Errorf("%s exited before listening (see %s)", bin, logPath)
		}
		p.addr = a
	case <-time.After(10 * time.Second):
		p.kill()
		return nil, fmt.Errorf("%s did not report its address within 10s", bin)
	}
	return p, nil
}

// waitReady polls /readyz until it answers 200.
func waitReady(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := httpClient.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz not ready within 10s (last error: %v)", base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// bootProcesses starts the real daemon (and nWorkers worker nodes) as
// child processes. Each boot gets a fresh state directory under
// outDir, removed on stop.
func bootProcesses(bin, outDir, tag string, nWorkers int) (*target, error) {
	stateDir, err := os.MkdirTemp(outDir, "state-")
	if err != nil {
		return nil, err
	}
	var procs []*proc
	t := &target{}
	t.stop = func() {
		for _, p := range procs {
			p.kill()
		}
		os.RemoveAll(stateDir)
	}
	start := func(role string, args ...string) (*proc, error) {
		p, err := startProc(bin, filepath.Join(outDir, tag+"."+role+".stderr"), args...)
		if err != nil {
			t.stop()
			return nil, err
		}
		procs = append(procs, p)
		t.pids = append(t.pids, p.cmd.Process.Pid)
		if err := waitReady("http://" + p.addr); err != nil {
			t.stop()
			return nil, err
		}
		return p, nil
	}
	args := append([]string{"-addr", "localhost:0", "-state-dir", stateDir}, daemonFlags...)
	d, err := start("daemon", args...)
	if err != nil {
		return nil, err
	}
	t.base = "http://" + d.addr
	for i := 0; i < nWorkers; i++ {
		wp, err := start("worker"+strconv.Itoa(i+1), "-addr", "localhost:0", "-worker")
		if err != nil {
			return nil, err
		}
		t.workers = append(t.workers, "http://"+wp.addr)
	}
	return t, nil
}

// opsMux wires the ops daemon's HTTP surface the way cmd/mbrimd does:
// run manager, health and metrics, and the cluster coordinator API on
// one mux, sharing one journal. jw may be nil (journaling off).
func opsMux(jw *journal.Writer, stateDir string) (*http.ServeMux, *runs.Manager) {
	reg := obs.NewRegistry()
	mgr := runs.NewManager(runs.Config{
		Registry: reg, MaxActive: 2, MaxQueued: 16, RetainRuns: 8,
		Journal: jw, StateDir: stateDir, CheckpointEvery: 2 * time.Second,
	})
	mux := http.NewServeMux()
	runs.Mount(mux, mgr, reg, nil)
	cm := cluster.NewManager(reg, nil, 0)
	cm.SetJournal(jw)
	cm.Routes(mux)
	return mux, mgr
}

// workerMux is a worker node's surface: the slice endpoints plus the
// /healthz the coordinator's heartbeat prober needs (a worker that
// answers 404 there is declared dead within a second).
func workerMux() *http.ServeMux {
	mux := http.NewServeMux()
	cluster.NewWorker(nil, 0).Routes(mux)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// bootInProcess serves the same surface from httptest servers inside
// the bench process: the traced pass's outermost nested path, and the
// smoke configuration (no build, no child processes).
func bootInProcess(outDir string, nWorkers int, journaled bool) (*target, error) {
	var jw *journal.Writer
	stateDir := ""
	if journaled {
		var err error
		if stateDir, err = os.MkdirTemp(outDir, "state-"); err != nil {
			return nil, err
		}
		if jw, err = journal.Open(filepath.Join(stateDir, "run.journal"), nil); err != nil {
			os.RemoveAll(stateDir)
			return nil, err
		}
	}
	mux, mgr := opsMux(jw, stateDir)
	srv := httptest.NewServer(mux)
	servers := []*httptest.Server{srv}
	t := &target{base: srv.URL, pids: []int{os.Getpid()}}
	if jw != nil {
		t.journal = filepath.Join(stateDir, "run.journal")
	}
	for i := 0; i < nWorkers; i++ {
		ws := httptest.NewServer(workerMux())
		servers = append(servers, ws)
		t.workers = append(t.workers, ws.URL)
	}
	t.stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		mgr.Wait(ctx)
		cancel()
		for _, s := range servers {
			s.Close()
		}
		if jw != nil {
			jw.Close()
			os.RemoveAll(stateDir)
		}
	}
	return t, nil
}

// buildDaemon compiles cmd/mbrimd into buildDir. Its time is excluded
// from setup_s.
func buildDaemon(root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "mbrimd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mbrimd")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/mbrimd: %w\n%s", err, out.Bytes())
	}
	return bin, nil
}

// clockTick is the kernel's USER_HZ: the unit of the CPU times in
// /proc/<pid>/stat. It is 100 on every Linux architecture Go supports.
const clockTick = 100

// cpuMS sums user+system CPU milliseconds over pids.
func cpuMS(pids []int) (float64, error) {
	total := 0.0
	for _, pid := range pids {
		b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
		if err != nil {
			return 0, err
		}
		// The command name (field 2) may contain spaces; fields resume
		// after its closing parenthesis, utime and stime being 14 and 15.
		i := bytes.LastIndexByte(b, ')')
		f := strings.Fields(string(b[i+1:]))
		if i < 0 || len(f) < 13 {
			return 0, fmt.Errorf("unparseable /proc/%d/stat", pid)
		}
		ut, err1 := strconv.ParseFloat(f[11], 64)
		st, err2 := strconv.ParseFloat(f[12], 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("unparseable CPU times in /proc/%d/stat", pid)
		}
		total += (ut + st) * 1000 / clockTick
	}
	return total, nil
}

// peakRSSMB sums the resident-set high-water marks (VmHWM) over pids.
func peakRSSMB(pids []int) (float64, error) {
	total := 0.0
	for _, pid := range pids {
		b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err != nil {
					return 0, fmt.Errorf("unparseable VmHWM in /proc/%d/status", pid)
				}
				total += kb / 1024
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
		}
	}
	return total, nil
}
