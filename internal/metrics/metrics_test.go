package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummaryBasics(t *testing.T) {
	s := NewSeries("t")
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.add(v)
	}
	sum := s.Summarize()
	if sum.N != 5 || !almost(sum.Mean, 3) || !almost(sum.Min, 1) || !almost(sum.Max, 5) {
		t.Fatalf("summary = %+v", sum)
	}
	// Sample stddev of 1..5 is sqrt(2.5).
	if !almost(sum.Stddev, math.Sqrt(2.5)) {
		t.Fatalf("stddev = %v, want %v", sum.Stddev, math.Sqrt(2.5))
	}
	if !almost(sum.P50, 3) {
		t.Fatalf("p50 = %v", sum.P50)
	}
	if !almost(sum.Sum, 15) {
		t.Fatalf("sum = %v", sum.Sum)
	}
}

func TestEmptySummaryIsZero(t *testing.T) {
	var s Series
	if got := s.Summarize(); got.N != 0 || got.Mean != 0 {
		t.Fatalf("empty summary = %+v", got)
	}
}

func TestSingleSampleStddevZero(t *testing.T) {
	sum := summarize([]float64{7})
	if sum.Stddev != 0 || sum.Mean != 7 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestAddDuration(t *testing.T) {
	s := NewSeries("d")
	s.AddDuration(1500 * time.Millisecond)
	if s.Len() != 1 || !almost(s.At(0), 1.5) {
		t.Fatalf("series = %v", s.Values())
	}
}

func TestValuesIsCopy(t *testing.T) {
	s := NewSeries("c")
	s.add(1)
	v := s.Values()
	v[0] = 99
	if s.At(0) != 1 {
		t.Fatal("Values aliases internal storage")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if got := percentile(sorted, 50); !almost(got, 5) {
		t.Fatalf("p50 = %v, want 5", got)
	}
	if got := percentile(sorted, 0); !almost(got, 0) {
		t.Fatalf("p0 = %v", got)
	}
	if got := percentile(sorted, 100); !almost(got, 10) {
		t.Fatalf("p100 = %v", got)
	}
}

func TestPercentileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty percentile")
		}
	}()
	percentile(nil, 50)
}

func TestSummaryBoundsProperty(t *testing.T) {
	f := func(vs []float64) bool {
		clean := vs[:0]
		for _, v := range vs {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := summarize(clean)
		return s.Min <= s.Mean+1e-6 && s.Mean <= s.Max+1e-6 &&
			s.Min <= s.P50 && s.P50 <= s.Max && s.Stddev >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(vs []float64, a, b uint8) bool {
		clean := vs[:0]
		for _, v := range vs {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		sum := summarize(clean) // sorts internally; re-sort here
		_ = sum
		sorted := append([]float64(nil), clean...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return percentile(sorted, pa) <= percentile(sorted, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Method", "Time (s)")
	tb.AddRow("Glogin", "16.43")
	tb.AddRow("Virtual machine", "6.79")
	out := tb.String()
	if !strings.Contains(out, "Method") || !strings.Contains(out, "Virtual machine") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines (header, rule, 2 rows), got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("missing rule line:\n%s", out)
	}
}

func TestSummaryString(t *testing.T) {
	s := summarize([]float64{1, 2, 3})
	if !strings.Contains(s.String(), "n=3") {
		t.Fatalf("String() = %q", s.String())
	}
}
