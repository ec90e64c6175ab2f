package main

import (
	"fmt"
	"strings"

	"mbrim/internal/metrics"
)

// figure is what one subcommand reproduces, as a value: the text it
// prints, every series its tables hold, and the named headline numbers
// its claims read (claims_test.go). main prints it; no subcommand
// writes to stdout itself.
type figure struct {
	text   strings.Builder
	series []*metrics.Series
	values map[string]float64
}

// printf appends verbatim text.
func (f *figure) printf(format string, args ...any) {
	fmt.Fprintf(&f.text, format, args...)
}

// note appends one line of paper-expectation commentary, marked "#?"
// so that tools wanting only the data can strip it.
func (f *figure) note(format string, args ...any) {
	f.printf("#? "+format+"\n", args...)
}

// table appends one table of series under a title.
func (f *figure) table(title string, series ...*metrics.Series) {
	f.text.WriteString(metrics.Table(title, series...))
	f.series = append(f.series, series...)
}

// set records a headline number under its name; it prints nothing.
func (f *figure) set(name string, v float64) {
	if f.values == nil {
		f.values = map[string]float64{}
	}
	f.values[name] = v
}

func (f *figure) String() string { return f.text.String() }
