package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 metric.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histWindow is how many of the most recent observations a Histogram
// keeps for its quantiles.
const histWindow = 1024

// Histogram accumulates observations. Count, sum, min and max cover
// every observation; p50/p95/p99 cover the last histWindow, so memory
// and scrape cost stay fixed however long the process runs.
type Histogram struct {
	mu       sync.Mutex
	n        int
	sum      float64
	min, max float64
	// recent is a ring of the last histWindow observations; slot
	// n % histWindow is the next to overwrite once it is full.
	recent []float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	if len(h.recent) < histWindow {
		if h.recent == nil {
			h.recent = make([]float64, 0, histWindow)
		}
		h.recent = append(h.recent, v)
	} else {
		h.recent[h.n%histWindow] = v
	}
	h.n++
	h.sum += v
	h.mu.Unlock()
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Summary snapshots the histogram statistics: quantiles over the
// recent window, everything else over all observations.
func (h *Histogram) Summary() metrics.Summary {
	if h == nil {
		return metrics.Summary{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var w metrics.Sample
	for _, v := range h.recent {
		w.Add(v)
	}
	s := w.Summary()
	s.N, s.Sum, s.Min, s.Max = h.n, h.sum, h.min, h.max
	if h.n > 0 {
		s.Mean = h.sum / float64(h.n)
	}
	return s
}

// Emit is the callback collectors use to publish dynamic series at
// scrape time. typ is "counter" or "gauge".
type Emit func(name, help, typ string, v float64)

// Registry is the central metric store: counters, gauges and
// histograms created on first use, plus function-backed metrics that
// bridge pre-existing instrumentation (atomic stat structs, gauge
// sets) without copying their state. Metric names may embed constant
// Prometheus labels, e.g. `pipeline_stage_seconds{stage="render"}`;
// series sharing a base name share one HELP/TYPE header.
type Registry struct {
	mu           sync.RWMutex
	counters     map[string]*Counter
	gauges       map[string]*Gauge
	counterFuncs map[string]func() int64
	gaugeFuncs   map[string]func() float64
	hists        map[string]*Histogram
	help         map[string]string // base name -> help
	collectors   []func(Emit)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:     map[string]*Counter{},
		gauges:       map[string]*Gauge{},
		counterFuncs: map[string]func() int64{},
		gaugeFuncs:   map[string]func() float64{},
		hists:        map[string]*Histogram{},
		help:         map[string]string{},
	}
}

// setHelp records help for the base name once (first writer wins).
func (r *Registry) setHelp(name, help string) {
	base := baseName(name)
	if help != "" && r.help[base] == "" {
		r.help[base] = help
	}
}

// Counter returns (creating on first use) the named counter. Safe on
// a nil registry (returns a nil, no-op counter).
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
		r.setHelp(name, help)
	}
	return c
}

// Gauge returns (creating on first use) the named gauge. Safe on a
// nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
		r.setHelp(name, help)
	}
	return g
}

// Histogram returns (creating on first use) the named histogram. Safe
// on a nil registry.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
		r.setHelp(name, help)
	}
	return h
}

// CounterFunc registers a live counter read from fn at scrape time —
// the bridge for existing atomic stat fields. Safe on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counterFuncs[name] = fn
	r.setHelp(name, help)
	r.mu.Unlock()
}

// GaugeFunc registers a live gauge read from fn at scrape time. Safe
// on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFuncs[name] = fn
	r.setHelp(name, help)
	r.mu.Unlock()
}

// Collect registers a collector invoked at scrape time to emit
// dynamic series (e.g. per-client gauges with a client label). Safe on
// a nil registry.
func (r *Registry) Collect(fn func(Emit)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// series is one exposition line.
type series struct {
	name string
	val  string
}

// family groups series under one HELP/TYPE header.
type family struct {
	typ    string
	series []series
}

// gather snapshots every metric into exposition families.
func (r *Registry) gather() (map[string]*family, map[string]string) {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	counterFuncs := make(map[string]func() int64, len(r.counterFuncs))
	for k, v := range r.counterFuncs {
		counterFuncs[k] = v
	}
	gaugeFuncs := make(map[string]func() float64, len(r.gaugeFuncs))
	for k, v := range r.gaugeFuncs {
		gaugeFuncs[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	collectors := make([]func(Emit), len(r.collectors))
	copy(collectors, r.collectors)
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.RUnlock()

	fams := map[string]*family{}
	addTo := func(famBase, name, typ, val string) {
		f := fams[famBase]
		if f == nil {
			f = &family{typ: typ}
			fams[famBase] = f
		}
		f.series = append(f.series, series{name: name, val: val})
	}
	add := func(name, typ, val string) { addTo(baseName(name), name, typ, val) }
	for name, c := range counters {
		add(name, "counter", strconv.FormatInt(c.Value(), 10))
	}
	for name, fn := range counterFuncs {
		add(name, "counter", strconv.FormatInt(fn(), 10))
	}
	for name, g := range gauges {
		add(name, "gauge", formatFloat(g.Value()))
	}
	for name, fn := range gaugeFuncs {
		add(name, "gauge", formatFloat(fn()))
	}
	for name, h := range hists {
		sum := h.Summary()
		base := baseName(name)
		addTo(base, withLabel(name, "quantile", "0.5"), "summary", formatFloat(sum.P50))
		addTo(base, withLabel(name, "quantile", "0.95"), "summary", formatFloat(sum.P95))
		addTo(base, withLabel(name, "quantile", "0.99"), "summary", formatFloat(sum.P99))
		addTo(base, suffixName(name, "_sum"), "summary", formatFloat(sum.Sum))
		addTo(base, suffixName(name, "_count"), "summary", strconv.Itoa(sum.N))
	}
	emit := func(name, hp, typ string, v float64) {
		add(name, typ, formatFloat(v))
		if base := baseName(name); hp != "" && help[base] == "" {
			help[base] = hp
		}
	}
	for _, fn := range collectors {
		fn(emit)
	}
	return fams, help
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (version 0.0.4), sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	fams, help := r.gather()
	bases := make([]string, 0, len(fams))
	for b := range fams {
		bases = append(bases, b)
	}
	sort.Strings(bases)
	for _, base := range bases {
		f := fams[base]
		if h := help[base]; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, h); err != nil {
				return err
			}
		}
		typ := f.typ
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, typ); err != nil {
			return err
		}
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].name < f.series[j].name })
		for _, s := range f.series {
			if _, err := fmt.Fprintf(w, "%s %s\n", s.name, s.val); err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot returns every series value keyed by series name, plus
// histogram summaries keyed by base name — the JSON surface of
// /debug/status.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	out := map[string]any{}
	fams, _ := r.gather()
	for _, f := range fams {
		for _, s := range f.series {
			if v, err := strconv.ParseFloat(s.val, 64); err == nil {
				out[s.name] = v
			} else {
				out[s.name] = s.val
			}
		}
	}
	return out
}

// baseName strips a label set from a series name:
// `x{stage="render"}` -> `x`, `x_sum` stays `x_sum`'s summary base via
// suffix handling at the call site.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// withLabel adds (or appends) one label to a series name.
func withLabel(name, key, val string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + key + "=\"" + val + "\"}"
	}
	return name + "{" + key + "=\"" + val + "\"}"
}

// suffixName appends a suffix to the metric base name, preserving any
// label set: suffixName(`h{a="b"}`, "_sum") -> `h_sum{a="b"}`.
func suffixName(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
