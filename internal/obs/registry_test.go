package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c_total", "") != c {
		t.Fatal("Counter not idempotent per name")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	h := r.Histogram("h_seconds", "a histogram")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Summary()
	if s.N != 100 || s.P50 != 50 || s.P99 != 99 {
		t.Fatalf("summary = %+v", s)
	}
	h.ObserveDuration(1500 * time.Millisecond)
	if got := h.Summary().Max; got != 100 {
		t.Fatalf("max = %v, want 100", got)
	}
}

// A histogram fed for the life of a process keeps a fixed window for
// its quantiles, while its count, sum, min and max stay exact.
func TestHistogramMemoryBounded(t *testing.T) {
	var h Histogram
	const n = 1_000_000
	for i := 0; i < n; i++ {
		h.Observe(float64(i))
	}
	if len(h.recent) > histWindow || cap(h.recent) > histWindow {
		t.Fatalf("retained %d values (cap %d), want at most %d", len(h.recent), cap(h.recent), histWindow)
	}
	s := h.Summary()
	if s.N != n || s.Sum != float64(n)*(n-1)/2 || s.Min != 0 || s.Max != n-1 {
		t.Fatalf("summary = %+v", s)
	}
	// Nearest-rank p50 of the last 1024 values, n-1024 .. n-1.
	if want := float64(n - histWindow + histWindow/2 - 1); s.P50 != want {
		t.Fatalf("p50 = %v, want %v (recent window)", s.P50, want)
	}
}

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	r.Counter("x", "").Inc()
	r.Gauge("x", "").Set(1)
	r.Histogram("x", "").Observe(1)
	r.CounterFunc("x", "", func() int64 { return 0 })
	r.GaugeFunc("x", "", func() float64 { return 0 })
	r.Collect(func(Emit) {})
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
}

// TestConcurrentWriters exercises the registry under the race detector:
// many goroutines create and update the same metric names while a
// reader scrapes.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("shared_total", "shared").Inc()
				r.Gauge("shared_gauge", "shared").Set(float64(i))
				r.Histogram("shared_seconds", "shared").Observe(float64(i))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	if got := r.Counter("shared_total", "").Value(); got != 8*200 {
		t.Fatalf("shared_total = %d, want %d", got, 8*200)
	}
	if got := r.Histogram("shared_seconds", "").Summary().N; got != 8*200 {
		t.Fatalf("histogram N = %d, want %d", got, 8*200)
	}
}

// TestWritePrometheusGolden pins the exposition format: HELP/TYPE
// per base name, label handling, summary quantile/_sum/_count series,
// sorted deterministic output.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_total", "Frames delivered.").Add(3)
	r.Gauge("clients", "Connected clients.").Set(2)
	h := r.Histogram(`stage_seconds{stage="render"}`, "Stage time.")
	h.Observe(1)
	h.Observe(3)
	r.CounterFunc("acks_total", "Acks seen.", func() int64 { return 7 })
	r.GaugeFunc("depth", "Queue depth.", func() float64 { return 1.5 })
	r.Collect(func(emit Emit) {
		emit(`client_bytes{client="1"}`, "Per-client bytes.", "counter", 42)
	})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP acks_total Acks seen.
# TYPE acks_total counter
acks_total 7
# HELP client_bytes Per-client bytes.
# TYPE client_bytes counter
client_bytes{client="1"} 42
# HELP clients Connected clients.
# TYPE clients gauge
clients 2
# HELP depth Queue depth.
# TYPE depth gauge
depth 1.5
# HELP frames_total Frames delivered.
# TYPE frames_total counter
frames_total 3
# HELP stage_seconds Stage time.
# TYPE stage_seconds summary
stage_seconds_count{stage="render"} 2
stage_seconds_sum{stage="render"} 4
stage_seconds{stage="render",quantile="0.5"} 1
stage_seconds{stage="render",quantile="0.95"} 3
stage_seconds{stage="render",quantile="0.99"} 3
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSnapshotParsesValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(2)
	r.Gauge("b", "").Set(0.25)
	snap := r.Snapshot()
	if snap["a_total"] != 2.0 || snap["b"] != 0.25 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestNameHelpers(t *testing.T) {
	if got := baseName(`x{a="b"}`); got != "x" {
		t.Fatalf("baseName = %q", got)
	}
	if got := withLabel(`x{a="b"}`, "q", "1"); got != `x{a="b",q="1"}` {
		t.Fatalf("withLabel = %q", got)
	}
	if got := withLabel("x", "q", "1"); got != `x{q="1"}` {
		t.Fatalf("withLabel bare = %q", got)
	}
	if got := suffixName(`x{a="b"}`, "_sum"); got != `x_sum{a="b"}` {
		t.Fatalf("suffixName = %q", got)
	}
}
