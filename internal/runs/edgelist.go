package runs

import (
	"bytes"
	"fmt"
	"strconv"
)

// EdgeList is a submit body's explicit graph: [u, v, w] rows with
// 1-based u, v (Gset convention). It decodes the span encoding/json
// hands it in one pass, sized once, and never formats a number again:
// the body as received is what the journal records.
//
// Each value has the bits encoding/json gives a float64. An integer of
// at most 15 digits is below 2⁵³, so its conversion is exact and skips
// strconv; every other number goes through strconv.ParseFloat, as
// encoding/json's does. Where encoding/json pads or truncates a
// fixed-size array, EdgeList refuses: a row is exactly three numbers.
type EdgeList [][3]float64

// UnmarshalJSON decodes a JSON array of [u, v, w] rows, or null. It
// checks the whole grammar itself, so it refuses whatever
// json.Unmarshal into [][3]float64 refuses, and besides that any row of
// other than three numbers.
func (e *EdgeList) UnmarshalJSON(data []byte) error {
	list, err := (&edgeScanner{data: data}).list()
	if err != nil {
		return fmt.Errorf("edges: %w", err)
	}
	*e = list
	return nil
}

// edgeScanner walks an edge list's bytes once.
type edgeScanner struct {
	data []byte
	i    int
}

// list reads the whole input: null, or an array of rows, and nothing
// but whitespace after it.
func (s *edgeScanner) list() (EdgeList, error) {
	var list EdgeList
	switch s.space(); {
	case bytes.HasPrefix(s.data[s.i:], []byte("null")):
		s.i += 4
	case s.take('['):
		// A row is at least "[0,0,0]" and a comma, which bounds the count
		// a body of any bytes can claim.
		list = make(EdgeList, 0, min(bytes.Count(s.data, []byte("[")), len(s.data)/8+1))
		if s.space(); s.take(']') {
			break
		}
		for {
			row, err := s.row(len(list))
			if err != nil {
				return nil, err
			}
			list = append(list, row)
			if s.space(); s.take(']') {
				break
			}
			if !s.take(',') {
				return nil, s.syntax("',' or ']' after a row")
			}
			s.space()
		}
	default:
		return nil, s.syntax("an array of [u, v, w] rows")
	}
	if s.space(); s.i < len(s.data) {
		return nil, s.syntax("the end of the edge list")
	}
	return list, nil
}

func (s *edgeScanner) space() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// take consumes c if it is the next byte.
func (s *edgeScanner) take(c byte) bool {
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *edgeScanner) syntax(want string) error {
	return fmt.Errorf("invalid JSON at offset %d: want %s", s.i, want)
}

// row reads "[u, v, w]", the opening bracket next; r numbers the row
// in errors.
func (s *edgeScanner) row(r int) ([3]float64, error) {
	var row [3]float64
	if !s.take('[') {
		return row, fmt.Errorf("row %d is not a [u, v, w] array", r)
	}
	for j := range row {
		if j > 0 && !s.take(',') {
			return row, fmt.Errorf("row %d: want three numbers [u, v, w]", r)
		}
		s.space()
		f, err := s.number()
		if err != nil {
			return row, fmt.Errorf("row %d: %w", r, err)
		}
		row[j] = f
		s.space()
	}
	if !s.take(']') {
		return row, fmt.Errorf("row %d: want three numbers [u, v, w]", r)
	}
	return row, nil
}

// number reads one JSON number.
func (s *edgeScanner) number() (float64, error) {
	d, i := s.data, s.i
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	digits := i
	var n uint64 // the integer part's value while it has at most 15 digits
	for ; i < len(d) && d[i]-'0' <= 9; i++ {
		n = n*10 + uint64(d[i]-'0')
	}
	switch {
	case i == digits:
		return 0, fmt.Errorf("want three numbers [u, v, w]")
	case d[digits] == '0' && i > digits+1:
		s.i = digits + 1
		return 0, s.syntax("no digit after a leading 0")
	}
	intEnd := i
	if i < len(d) && d[i] == '.' {
		if i++; i == len(d) || d[i]-'0' > 9 {
			s.i = i
			return 0, s.syntax("a digit after '.'")
		}
		for i < len(d) && d[i]-'0' <= 9 {
			i++
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i == len(d) || d[i]-'0' > 9 {
			s.i = i
			return 0, s.syntax("an exponent's digits")
		}
		for i < len(d) && d[i]-'0' <= 9 {
			i++
		}
	}
	start := s.i
	s.i = i
	if i == intEnd && intEnd-digits <= 15 {
		f := float64(n)
		if neg {
			f = -f // -0 stays negative, as strconv reads it
		}
		return f, nil
	}
	f, err := strconv.ParseFloat(string(d[start:i]), 64)
	if err != nil {
		return 0, fmt.Errorf("number %s out of range", d[start:i])
	}
	return f, nil
}
