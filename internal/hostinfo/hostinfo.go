// Package hostinfo captures the benchmark host's execution context —
// CPU count, GOMAXPROCS, Go toolchain — so performance records carry
// machine-readable provenance: every report of the ./bench harness
// embeds one, making the recurring "small-host caveat" a field instead
// of prose.
package hostinfo

import "runtime"

// Info is one host context record.
type Info struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Collect reads the current process's host context.
func Collect() Info {
	return Info{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}
