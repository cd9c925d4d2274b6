package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSampleStats(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Std() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample must be zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if math.Abs(s.Std()-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("std = %v", s.Std())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max %v %v", s.Min(), s.Max())
	}
}

func TestPercentile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(50); got != 50 {
		t.Fatalf("p50 = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
	if got := s.Percentile(95); got != 95 {
		t.Fatalf("p95 = %v", got)
	}
}

func TestPercentileCacheInvalidation(t *testing.T) {
	var s Sample
	for i := 1; i <= 10; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(100); got != 10 {
		t.Fatalf("p100 = %v", got)
	}
	// New observations must invalidate the sorted cache.
	s.Add(42)
	if got := s.Percentile(100); got != 42 {
		t.Fatalf("p100 after Add = %v (stale cache)", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	// The source order must be preserved (only the cache is sorted).
	s.Add(0)
	if s.xs[len(s.xs)-2] != 42 || s.xs[0] != 1 {
		t.Fatalf("xs reordered: %v", s.xs)
	}
}

func TestSummary(t *testing.T) {
	var s Sample
	if sum := s.Summary(); sum.N != 0 || sum.Mean != 0 || sum.Max != 0 {
		t.Fatalf("empty summary = %+v", sum)
	}
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	sum := s.Summary()
	if sum.N != 100 || sum.Mean != 50.5 || sum.Sum != 5050 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.P50 != 50 || sum.P95 != 95 || sum.P99 != 99 {
		t.Fatalf("quantiles = %+v", sum)
	}
	if sum.Min != 1 || sum.Max != 100 {
		t.Fatalf("min/max = %+v", sum)
	}
}

func TestRowfCellsWithSpaces(t *testing.T) {
	tab := NewTable("codec", "size", "note")
	tab.Rowf("%s %d %s", "jpeg lzo chain", 256, "two phase")
	tab.Rowf("%s %.2f%% %s", "raw", 99.5, "baseline")
	out := tab.String()
	if !strings.Contains(out, "jpeg lzo chain") {
		t.Fatalf("cell with spaces split:\n%s", out)
	}
	if !strings.Contains(out, "two phase") {
		t.Fatalf("trailing cell with spaces split:\n%s", out)
	}
	if !strings.Contains(out, "99.50%") {
		t.Fatalf("%%%% escape mishandled:\n%s", out)
	}
	// Each Rowf row must have exactly one entry per header column.
	for _, r := range tab.rows {
		if len(r) != 3 {
			t.Fatalf("row has %d cells: %q", len(r), r)
		}
	}
}

func TestAddDuration(t *testing.T) {
	var s Sample
	s.AddDuration(1500 * time.Millisecond)
	if s.Mean() != 1.5 {
		t.Fatalf("mean = %v", s.Mean())
	}
}

func TestTableAlignment(t *testing.T) {
	tab := NewTable("method", "size", "bytes")
	tab.Row("raw", "128", "49152")
	tab.Row("jpeg+lzo", "1024", "18484")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// All lines equal width (right-aligned columns).
	for _, l := range lines[1:] {
		if len(l) != len(lines[0]) {
			t.Fatalf("misaligned table:\n%s", out)
		}
	}
	if !strings.Contains(out, "jpeg+lzo") {
		t.Fatal("row missing")
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "overall"}
	s.Add(1, 100)
	s.Add(2, 60)
	s.Add(4, 40)
	s.Add(8, 55)
	if s.ArgminY() != 4 {
		t.Fatalf("argmin = %v", s.ArgminY())
	}
	empty := &Series{}
	if !math.IsNaN(empty.ArgminY()) {
		t.Fatal("empty argmin must be NaN")
	}
	var b strings.Builder
	s2 := &Series{Name: "latency", X: s.X, Y: []float64{1, 2, 3, 4}}
	if err := WriteSeries(&b, "L", s, s2); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "overall") || !strings.Contains(out, "latency") {
		t.Fatalf("headers missing:\n%s", out)
	}
	if !strings.Contains(out, "60.000") {
		t.Fatalf("values missing:\n%s", out)
	}
}
