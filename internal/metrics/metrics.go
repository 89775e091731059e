// Package metrics collects the measurement series and summary
// statistics reported by the experiment harness: per-iteration samples
// (the X/Y series in the paper's Figures 6-8) and aggregate
// mean/standard-deviation values (the numbers quoted in Table I and
// Section 6.3).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Series is an append-only sequence of float64 samples, typically one
// per experiment iteration. The zero value is ready to use.
type Series struct {
	samples []float64
}

// NewSeries returns an empty series. The name labels the call site
// only; the series does not keep it.
func NewSeries(name string) *Series { return new(Series) }

// add appends one sample.
func (s *Series) add(v float64) { s.samples = append(s.samples, v) }

// AddDuration appends a duration sample in seconds, the unit used
// throughout the paper's plots.
func (s *Series) AddDuration(d time.Duration) { s.add(d.Seconds()) }

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.samples) }

// At returns sample i.
func (s *Series) At(i int) float64 { return s.samples[i] }

// Values returns a copy of all samples.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.samples))
	copy(out, s.samples)
	return out
}

// Summary holds aggregate statistics over a sample set.
type Summary struct {
	N             int
	Mean, Stddev  float64
	Min, Max      float64
	P50, P95, P99 float64
	Sum           float64
}

// Summarize computes a Summary over the series' samples. An empty
// series yields the zero Summary.
func (s *Series) Summarize() Summary { return summarize(s.samples) }

// summarize computes aggregate statistics over samples.
func summarize(samples []float64) Summary {
	var sum Summary
	sum.N = len(samples)
	if sum.N == 0 {
		return sum
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	sum.Min, sum.Max = sorted[0], sorted[len(sorted)-1]
	for _, v := range samples {
		sum.Sum += v
	}
	sum.Mean = sum.Sum / float64(sum.N)
	var sq float64
	for _, v := range samples {
		d := v - sum.Mean
		sq += d * d
	}
	if sum.N > 1 {
		sum.Stddev = math.Sqrt(sq / float64(sum.N-1))
	}
	sum.P50 = percentile(sorted, 50)
	sum.P95 = percentile(sorted, 95)
	sum.P99 = percentile(sorted, 99)
	return sum
}

// percentile returns the p-th percentile (0-100) of sorted (ascending)
// samples using linear interpolation between closest ranks. It panics
// on an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("metrics: Percentile of empty sample set")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.3g min=%.6g p50=%.6g p95=%.6g max=%.6g",
		s.N, s.Mean, s.Stddev, s.Min, s.P50, s.P95, s.Max)
}

// Table renders aligned rows for experiment output: a header row
// followed by data rows, columns separated by two spaces, numeric
// alignment left to the caller's formatting.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells beyond the header width are kept.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.header))
	rows := append([][]string{t.header}, t.rows...)
	for _, r := range rows {
		for i, c := range r {
			if i >= len(width) {
				width = append(width, 0)
			}
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for ri, r := range rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i, w := range width {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
