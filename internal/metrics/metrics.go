// Package metrics provides the timing and reporting utilities the
// experiment harness uses: sample accumulators with summary
// statistics, and fixed-width table/series formatters that print rows
// in the shape of the paper's tables and figures.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample accumulates float64 observations.
type Sample struct {
	xs []float64
	// sorted caches a sorted copy of xs for Percentile; dirty marks it
	// stale after an Add.
	sorted []float64
	dirty  bool
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.dirty = true
}

// AddDuration appends a duration in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N returns the observation count.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean (0 for empty samples).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range s.xs {
		t += x
	}
	return t / float64(len(s.xs))
}

// Std returns the sample standard deviation.
func (s *Sample) Std() float64 {
	if len(s.xs) < 2 {
		return 0
	}
	m := s.Mean()
	var t float64
	for _, x := range s.xs {
		t += (x - m) * (x - m)
	}
	return math.Sqrt(t / float64(len(s.xs)-1))
}

// Min returns the smallest observation (0 for empty).
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation (0 for empty).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) by
// nearest-rank on a cached sorted copy, rebuilt only after new
// observations arrive.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if s.dirty || len(s.sorted) != len(s.xs) {
		s.sorted = append(s.sorted[:0], s.xs...)
		sort.Float64s(s.sorted)
		s.dirty = false
	}
	sorted := s.sorted
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Sum returns the total of all observations.
func (s *Sample) Sum() float64 {
	var t float64
	for _, x := range s.xs {
		t += x
	}
	return t
}

// Summary condenses a sample into the statistics the observability
// registry exposes for histograms.
type Summary struct {
	N                       int
	Mean, Sum               float64
	P50, P95, P99, Min, Max float64
}

// Summary computes n/mean/p50/p95/p99/min/max in one pass over the
// sorted cache.
func (s *Sample) Summary() Summary {
	return Summary{
		N:    s.N(),
		Mean: s.Mean(),
		Sum:  s.Sum(),
		P50:  s.Percentile(50),
		P95:  s.Percentile(95),
		P99:  s.Percentile(99),
		Min:  s.Min(),
		Max:  s.Max(),
	}
}

// Table prints aligned columns, paper-style.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; values are formatted with %v, float64 with %g
// precision via Cell helpers where needed.
func (t *Table) Row(cells ...string) { t.rows = append(t.rows, cells) }

// Rowf appends a row of formatted values. The format string is split
// on whitespace into one fragment per cell and each fragment is
// formatted with the arguments its verbs consume, so a formatted cell
// may itself contain spaces.
func (t *Table) Rowf(format string, args ...any) {
	fragments := strings.Fields(format)
	row := make([]string, 0, len(fragments))
	for _, frag := range fragments {
		n := countVerbs(frag)
		if n > len(args) {
			n = len(args)
		}
		row = append(row, fmt.Sprintf(frag, args[:n]...))
		args = args[n:]
	}
	t.rows = append(t.rows, row)
}

// countVerbs counts the formatting verbs in a fragment ("%%" escapes
// excluded).
func countVerbs(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '%' {
			if i+1 < len(s) && s[i+1] == '%' {
				i++
				continue
			}
			n++
		}
	}
	return n
}

// Write renders the table.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(strings.Repeat(" ", pad))
			b.WriteString(c)
		}
		b.WriteByte('\n')
		_, err := io.WriteString(w, b.String())
		return err
	}
	if err := line(t.header); err != nil {
		return err
	}
	var sep []string
	for _, w := range widths {
		sep = append(sep, strings.Repeat("-", w))
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, r := range t.rows {
		if err := line(r); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Write(&b)
	return b.String()
}

// Series is an (x, y) sequence for figure-style output.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// ArgminY returns the x at the minimum y (NaN for empty series).
func (s *Series) ArgminY() float64 {
	if len(s.Y) == 0 {
		return math.NaN()
	}
	best := 0
	for i, y := range s.Y {
		if y < s.Y[best] {
			best = i
		}
	}
	return s.X[best]
}

// WriteSeries prints one or more series sharing an x-axis as columns:
// x, then one y column per series.
func WriteSeries(w io.Writer, xLabel string, series ...*Series) error {
	if len(series) == 0 {
		return nil
	}
	header := []string{xLabel}
	for _, s := range series {
		header = append(header, s.Name)
	}
	t := NewTable(header...)
	for i := range series[0].X {
		row := []string{trimFloat(series[0].X[i])}
		for _, s := range series {
			if i < len(s.Y) {
				row = append(row, fmt.Sprintf("%.3f", s.Y[i]))
			} else {
				row = append(row, "-")
			}
		}
		t.Row(row...)
	}
	return t.Write(w)
}

func trimFloat(x float64) string {
	if x == math.Trunc(x) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}
