package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"mbrim/internal/hostinfo"
	"mbrim/internal/journal"
)

// provenance is the host and configuration record every output file
// carries, so a number can be traced to the machine that produced it.
type provenance struct {
	Host             hostinfo.Info `json:"host"`
	NProc            int           `json:"nproc"`
	BenchGOMAXPROCS  int           `json:"benchGOMAXPROCS"`
	DaemonGOMAXPROCS int           `json:"daemonGOMAXPROCS"`
	GitCommit        string        `json:"gitCommit"`
	DaemonFlags      []string      `json:"daemonFlags"`
	InProcess        bool          `json:"inProcess"`
	Seed             uint64        `json:"seed"`
	Seconds          float64       `json:"seconds"`
	LoadavgStart     string        `json:"loadavgStart"`
	LoadavgEnd       string        `json:"loadavgEnd"`
	// Noisy is set when the 1-minute load average exceeded nproc before
	// the first measurement: the host was already busy.
	Noisy bool `json:"noisy"`
	// StateFS and StateAppendUS describe the state directory: its
	// filesystem and what one fsync'd journal append costs there.
	StateFS       string  `json:"stateFS"`
	StateAppendUS float64 `json:"stateAppendUS"`
}

// fsNames maps statfs magic numbers to names.
var fsNames = map[int64]string{
	0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
	0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0x65735546: "fuse",
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// hostBusy reports whether the 1-minute figure of a /proc/loadavg line
// exceeds nproc.
func hostBusy(loadavg string) bool {
	if f := strings.Fields(loadavg); len(f) > 0 {
		if l1, err := strconv.ParseFloat(f[0], 64); err == nil {
			return l1 > float64(runtime.NumCPU())
		}
	}
	return false
}

// collectProvenance records the context before the first measurement.
func collectProvenance(root, outDir string, seed uint64, seconds float64, inProcess bool) provenance {
	p := provenance{
		Host: hostinfo.Collect(), NProc: runtime.NumCPU(), BenchGOMAXPROCS: runtime.GOMAXPROCS(0),
		DaemonGOMAXPROCS: runtime.NumCPU(), GitCommit: "unknown", DaemonFlags: daemonFlags,
		InProcess: inProcess, Seed: seed, Seconds: seconds, LoadavgStart: loadavg(), StateFS: "unknown",
	}
	// The daemon inherits the environment, so an exported GOMAXPROCS
	// overrides its default of one P per CPU.
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		p.DaemonGOMAXPROCS = v
	}
	if inProcess {
		p.DaemonGOMAXPROCS = p.BenchGOMAXPROCS
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		p.GitCommit = strings.TrimSpace(string(out))
	}
	p.Noisy = hostBusy(p.LoadavgStart)
	var st syscall.Statfs_t
	if err := syscall.Statfs(outDir, &st); err == nil {
		p.StateFS = fmt.Sprintf("0x%x", int64(st.Type))
		if name, ok := fsNames[int64(st.Type)]; ok {
			p.StateFS = name
		}
	}
	path := filepath.Join(outDir, "provenance.journal")
	if jw, err := journal.Open(path, nil); err == nil {
		ms, _ := medianOf(20, func() error {
			return jw.Append(journal.Record{Type: journal.TypeStart, ID: "run-1"})
		})
		p.StateAppendUS = ms * 1e3
		jw.Close()
		os.Remove(path)
	}
	return p
}

// workloadReport is one workload's row of a set: the untraced pass,
// the traced pass, or both.
type workloadReport struct {
	Name string `json:"name"`
	// Pass is the untraced measurement. Reference marks the
	// quarter-length pass a traced-only run makes for its [H] metrics
	// and its layer-table total; its end-to-end numbers are not gated.
	Pass      *passResult  `json:"pass,omitempty"`
	Reference bool         `json:"reference,omitempty"`
	Trace     *traceResult `json:"trace,omitempty"`
}

// setFile is one full set of runs: what -out writes and what compare
// and noise read.
type setFile struct {
	Schema     string           `json:"schema"`
	Provenance provenance       `json:"provenance"`
	Workloads  []workloadReport `json:"workloads"`
}

const schemaName = "mbrim-bench/v1"

// printReport writes every metric of one workload by name with its
// unit, then the layer table.
func printReport(out io.Writer, r *workloadReport) {
	fmt.Fprintf(out, "workload %s\n", r.Name)
	if p := r.Pass; p != nil {
		kind := "untraced pass"
		if r.Reference {
			kind = "reference pass (quarter length, not gated)"
		}
		fmt.Fprintf(out, " %s: seed %d, attempted %d, failed %d, samples %d, window %.2f s\n",
			kind, p.Seed, p.Attempted, p.Failed, p.Samples, p.WindowS)
		for _, d := range endToEnd {
			fmt.Fprintln(out, fmtMetric(d.Name, p.Metrics[d.Name]))
		}
		fmt.Fprintf(out, "  %-38s %s\n", "digest", p.Digest)
		for _, name := range sortedNames(p.Client) {
			fmt.Fprintln(out, fmtMetric(name, p.Client[name]))
		}
		for _, e := range p.Errors {
			fmt.Fprintf(out, "  error: %s\n", e)
		}
	}
	if t := r.Trace; t != nil {
		fmt.Fprintln(out, " traced pass:")
		for _, d := range perLayer {
			if m, ok := t.Layers[d.Name]; ok {
				fmt.Fprintln(out, fmtMetric(d.Name, m))
			}
		}
		fmt.Fprintf(out, " layer table (raw host ms; sums to the untraced raw.solve_ms_p50 of %.4f):\n", t.TotalMS)
		sum := 0.0
		for _, row := range t.Table {
			fmt.Fprintf(out, "  %-38s %10.4f\n", row.Row, row.MS)
			sum += row.MS
		}
		fmt.Fprintf(out, "  %-38s %10.4f\n", "total", sum)
		for _, e := range t.Errors {
			fmt.Fprintf(out, "  error: %s\n", e)
		}
	}
}

// sortedNames returns a metric map's keys in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// fmtMetric renders one metric line: name, value with all its digits,
// unit.
func fmtMetric(name string, m metric) string {
	return fmt.Sprintf("  %-38s %s %s", name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
}
