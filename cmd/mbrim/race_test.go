//go:build race

package main

// Under go test -race the CLI under test is built with the detector too.
func init() { buildFlags = append(buildFlags, "-race") }
