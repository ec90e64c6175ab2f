package ising

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// This file implements the .qubo text format used by D-Wave's qbsolv
// tool (the implementation of the paper's Algorithm 1), so instances
// can be exchanged with the wider tooling ecosystem:
//
//	c optional comments
//	p qubo 0 maxDiagonals nDiagonals nElements
//	i i value        (diagonal / linear term)
//	i j value        (off-diagonal coupler, i < j)

// WriteQUBO emits q in qbsolv's .qubo format.
func WriteQUBO(w io.Writer, q *QUBO) error {
	bw := bufio.NewWriter(w)
	n := q.N()
	type offDiag struct {
		i, j int
		v    float64
	}
	var diags []int
	var offs []offDiag
	for i := 0; i < n; i++ {
		if q.Coeff(i, i) != 0 {
			diags = append(diags, i)
		}
		for j := i + 1; j < n; j++ {
			// The format stores one entry per pair; fold Q_ji in.
			if v := q.Coeff(i, j) + q.Coeff(j, i); v != 0 {
				offs = append(offs, offDiag{i, j, v})
			}
		}
	}
	if _, err := fmt.Fprintf(bw, "c generated by mbrim\np qubo 0 %d %d %d\n",
		n, len(diags), len(offs)); err != nil {
		return err
	}
	for _, i := range diags {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", i, i, q.Coeff(i, i)); err != nil {
			return err
		}
	}
	for _, o := range offs {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", o.i, o.j, o.v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadQUBO parses qbsolv's .qubo format. Comment lines (leading 'c')
// are skipped; the problem line fixes the variable count. A QUBO is an
// n×n matrix, so the matrix is allocated only once the entries are in
// hand and only if they can account for it: a file may ask for at most
// quboCellsPerEntry cells per entry it holds (plus quboFreeCells), so a
// one-line header cannot demand gigabytes.
func ReadQUBO(r io.Reader) (*QUBO, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	type entry struct {
		i, j int
		v    float64
	}
	var entries []entry
	n, wantDiags, wantOffs := 0, 0, 0
	diags, offs := 0, 0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "c") {
			continue
		}
		fields := strings.Fields(text)
		if fields[0] == "p" {
			if n != 0 {
				return nil, fmt.Errorf("ising: line %d: second problem line", line)
			}
			if len(fields) != 6 || fields[1] != "qubo" {
				return nil, fmt.Errorf("ising: line %d: malformed problem line %q", line, text)
			}
			if _, err := fmt.Sscan(strings.Join(fields[3:], " "), &n, &wantDiags, &wantOffs); err != nil {
				return nil, fmt.Errorf("ising: line %d: bad counts in %q: %w", line, text, err)
			}
			if n <= 0 {
				return nil, fmt.Errorf("ising: line %d: node count %d", line, n)
			}
			continue
		}
		if n == 0 {
			return nil, fmt.Errorf("ising: line %d: entry before problem line", line)
		}
		var e entry
		if _, err := fmt.Sscan(text, &e.i, &e.j, &e.v); err != nil {
			return nil, fmt.Errorf("ising: line %d: bad entry %q: %w", line, text, err)
		}
		if e.i < 0 || e.j < 0 || e.i >= n || e.j >= n {
			return nil, fmt.Errorf("ising: line %d: entry (%d,%d) out of range", line, e.i, e.j)
		}
		if e.i == e.j {
			diags++
		} else {
			if e.i > e.j {
				e.i, e.j = e.j, e.i
			}
			offs++
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("ising: no problem line")
	}
	if diags != wantDiags || offs != wantOffs {
		return nil, fmt.Errorf("ising: header promised %d/%d entries, file has %d/%d",
			wantDiags, wantOffs, diags, offs)
	}
	if float64(n)*float64(n) > quboFreeCells+float64(quboCellsPerEntry*float64(len(entries))) {
		return nil, fmt.Errorf("ising: a %d-variable QUBO is a %d×%d matrix, too large for a file of %d entries", n, n, n, len(entries))
	}
	q := NewQUBO(n)
	for _, e := range entries {
		q.AddCoeff(e.i, e.j, e.v)
	}
	return q, nil
}

// What ReadQUBO lets a file allocate: a matrix of up to 2²⁰ cells (8 MB)
// whatever it holds — any problem of up to 1 024 variables — and past
// that 4 096 cells an entry, which admits every problem at least 0.05 %
// dense (a G-set instance is denser) and refuses a header with nothing
// behind it.
const (
	quboFreeCells     = 1 << 20
	quboCellsPerEntry = 4096
)
