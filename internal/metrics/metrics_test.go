package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.Median != 3 {
		t.Fatalf("Summary wrong: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("Std = %v", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatal("empty summary has N != 0")
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.Mean != 7 || s.Std != 0 {
		t.Fatalf("single-sample summary wrong: %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Summarize sorted the caller's slice")
	}
}

func TestSummarizeBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.P10 && s.P10 <= s.Median &&
			s.Median <= s.P90 && s.P90 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileKnown(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if p := Percentile(sorted, 0); p != 10 {
		t.Fatalf("P0 = %v", p)
	}
	if p := Percentile(sorted, 100); p != 40 {
		t.Fatalf("P100 = %v", p)
	}
	if p := Percentile(sorted, 50); p != 25 {
		t.Fatalf("P50 = %v", p)
	}
}

func TestPercentileInterpolationProperty(t *testing.T) {
	f := func(raw []float64, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		p := float64(pRaw % 101)
		v := Percentile(xs, p)
		return v >= xs[0] && v <= xs[len(xs)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Percentile(nil, 50)
}

func TestSeriesAndTable(t *testing.T) {
	s := &Series{Name: "brim"}
	s.Add(1, 100)
	s.Add(2, 200)
	out := Table("fig", s)
	if !strings.Contains(out, "# fig") || !strings.Contains(out, "series: brim") {
		t.Fatalf("Table output missing headers:\n%s", out)
	}
	if !strings.Contains(out, "100") || !strings.Contains(out, "200") {
		t.Fatalf("Table output missing values:\n%s", out)
	}
}

func TestOpCounter(t *testing.T) {
	o := NewOpCounter()
	o.Add("flips", 3)
	o.Add("flips", 4)
	o.Add("macs", 100)
	names := o.Names()
	if len(names) != 2 || names[0] != "flips" || names[1] != "macs" {
		t.Fatalf("Names = %v", names)
	}
	str := o.String()
	if !strings.Contains(str, "flips: 7") || !strings.Contains(str, "macs: 100") {
		t.Fatalf("String = %q", str)
	}
}
