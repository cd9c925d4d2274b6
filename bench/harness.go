package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/compress"
	"repro/internal/display"
	"repro/internal/img"
	"repro/internal/vol"
	"repro/internal/volio"
)

// Pixel-check sampling: one displayed frame in checkEvery (every second
// one in the -quick windows, which are too short for that) is kept for
// comparison after the window, at most checkMax per viewer so the kept
// pixels stay a small part of peak RSS. The issue asked for 1 in 16;
// 17 is coprime to every workload's count of distinct source frames,
// so the sample walks through all of them instead of hitting the same
// one each time.
const (
	checkEvery      = 17
	checkEveryQuick = 2
	checkMax        = 16
)

// drainTimeout is how long a frame owed to a viewer may take to show
// up after the window's end before it counts as failed.
const drainTimeout = 10 * time.Second

// frameSample is one displayed frame as the viewer loop saw it.
type frameSample struct {
	id               uint32
	source           time.Time // filled in after the window from the workload's stamps
	shown            time.Time
	bytes            int
	decode, assemble time.Duration
	codec            string
}

// collector drains one display.Viewer: it stamps every first delivery
// of a frame id and keeps the sampled frames' pixels.
type collector struct {
	viewer string
	every  uint32
	off    uint32 // seed-driven phase of the 1-in-every sample

	mu      sync.Mutex
	samples []frameSample
	kept    map[uint32]*img.Frame
	keeping bool
	wake    chan struct{}
	done    chan struct{}
}

func newCollector(viewer string, e env) *collector {
	every := uint32(checkEvery)
	if e.quick {
		every = checkEveryQuick
	}
	return &collector{
		viewer: viewer,
		every:  every,
		off:    uint32(e.seed) % every,
		kept:   map[uint32]*img.Frame{},
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

// consume runs until the viewer's frame channel closes.
func (c *collector) consume(v *display.Viewer) {
	defer close(c.done)
	for fr := range v.Frames() {
		now := time.Now()
		c.mu.Lock()
		if fr.Refinement {
			// A progressive refinement repaints a frame already
			// counted; only the sharper pixels matter.
			if _, ok := c.kept[fr.ID]; ok {
				c.kept[fr.ID] = fr.Image
			}
			c.mu.Unlock()
			continue
		}
		c.samples = append(c.samples, frameSample{
			id: fr.ID, shown: now, bytes: fr.Bytes,
			decode: fr.DecodeTime, assemble: fr.AssembleTime, codec: fr.Codec,
		})
		if c.keeping && (fr.ID+c.off)%c.every == 0 && len(c.kept) < checkMax {
			c.kept[fr.ID] = fr.Image
		}
		c.mu.Unlock()
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.samples)
}

func (c *collector) setKeeping(on bool) {
	c.mu.Lock()
	c.keeping = on
	c.mu.Unlock()
}

// waitFor blocks until n frames have been displayed.
func (c *collector) waitFor(n int, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for c.count() < n {
		select {
		case <-c.wake:
		case <-c.done:
			if c.count() >= n {
				return nil
			}
			return fmt.Errorf("%s viewer closed after %d of %d frames", c.viewer, c.count(), n)
		case <-deadline.C:
			return fmt.Errorf("%s viewer displayed %d of %d frames within %v", c.viewer, c.count(), n, timeout)
		}
	}
	return nil
}

// from returns the samples displayed from index i on, and the kept
// pixels.
func (c *collector) from(i int) ([]frameSample, map[uint32]*img.Frame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]frameSample(nil), c.samples[i:]...), c.kept
}

// viewerWindow is what one viewer displayed in the timed window.
type viewerWindow struct {
	name    string
	samples []frameSample // source stamps resolved
	// begin is the instant the window opened for this viewer (the
	// display of the last warm-up frame, or the window's first due
	// instant in the open loop); rates and gaps count from it.
	begin time.Time
	// owed counts the operations attempted: frames this viewer should
	// have displayed. failed of them never arrived (or arrived broken;
	// the pixel check adds to it).
	owed, failed int
	kept         map[uint32]*img.Frame
}

// windowResult is one timed window.
type windowResult struct {
	viewers []viewerWindow // [0] is the primary viewer, the last one the LAN-side viewer
	// Traced run only: cpu is the process's user+sys CPU between the
	// window's opening and its end (drain included), wall that
	// interval's length; framesAll the frames all viewers displayed in
	// it.
	cpu       time.Duration
	framesAll int
	wall      time.Duration
	// layer holds the window-derived per-layer metrics (traced run).
	layer map[string]float64
	// renderCompositeMS is the one budget row no decorator can see:
	// core.ServerStats' render+composite time per frame (0 where no
	// core.Server runs).
	renderCompositeMS float64
	// invalid is set when the open-loop generator ran too late for the
	// latencies to mean anything.
	invalid string
}

func (w *windowResult) primary() *viewerWindow { return &w.viewers[0] }
func (w *windowResult) lan() *viewerWindow     { return &w.viewers[len(w.viewers)-1] }

// fps is frames per second over the viewer's window, first display to
// last.
func (v *viewerWindow) fps() float64 {
	if len(v.samples) == 0 {
		return 0
	}
	return ratio(float64(len(v.samples)), v.samples[len(v.samples)-1].shown.Sub(v.begin).Seconds())
}

func (v *viewerWindow) gapsMS() []float64 {
	out := make([]float64, 0, len(v.samples))
	prev := v.begin
	for _, s := range v.samples {
		out = append(out, ms(s.shown.Sub(prev)))
		prev = s.shown
	}
	return out
}

func (v *viewerWindow) latenciesMS() []float64 {
	out := make([]float64, 0, len(v.samples))
	for _, s := range v.samples {
		if !s.source.IsZero() {
			out = append(out, ms(s.shown.Sub(s.source)))
		}
	}
	return out
}

// missingIDs counts the holes in a run of frame ids that should be
// contiguous (the streaming workloads number frames 0,1,2,...).
func missingIDs(samples []frameSample) int {
	if len(samples) == 0 {
		return 0
	}
	span := int(samples[len(samples)-1].id-samples[0].id) + 1
	return span - len(samples)
}

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is ru_maxrss (KiB on Linux) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// meter brackets a traced window: wall and CPU time, the runtime's
// allocation and GC counters, and a goroutine high-water mark. The
// end-to-end run has none (a nil meter): ReadMemStats stops the world.
type meter struct {
	t0        time.Time
	cpu0      time.Duration
	mem0      runtime.MemStats
	peak      atomic.Int64
	stopPeak  chan struct{}
	peakEnded chan struct{}
}

func startMeter(traced bool) *meter {
	if !traced {
		return nil
	}
	m := &meter{t0: time.Now(), cpu0: cpuTime(), stopPeak: make(chan struct{}), peakEnded: make(chan struct{})}
	runtime.ReadMemStats(&m.mem0)
	go func() {
		defer close(m.peakEnded)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := int64(runtime.NumGoroutine()); n > m.peak.Load() {
				m.peak.Store(n)
			}
			select {
			case <-tick.C:
			case <-m.stopPeak:
				return
			}
		}
	}()
	return m
}

// stop closes the bracket; frames is the per-frame denominator of the
// rt.* metrics, which go into layer.
func (m *meter) stop(res *windowResult, frames int) {
	if m == nil {
		return
	}
	res.wall = time.Since(m.t0)
	res.cpu = cpuTime() - m.cpu0
	close(m.stopPeak)
	<-m.peakEnded
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	n := float64(frames)
	res.layer["rt.mallocs_per_frame"] = ratio(float64(mem.Mallocs-m.mem0.Mallocs), n)
	res.layer["rt.alloc_kb_per_frame"] = ratio(float64(mem.TotalAlloc-m.mem0.TotalAlloc)/1024, n)
	res.layer["rt.gc_pause_ms"] = float64(mem.PauseTotalNs-m.mem0.PauseTotalNs) / 1e6
	res.layer["rt.goroutines_peak"] = float64(m.peak.Load())
}

// stampStore decorates the volio.Store handed to core.StartSession. It
// always records when each Fetch began — the source stamp of the
// glass-to-glass latency, the k-th fetch belonging to the k-th frame —
// and in the traced run also times the fetch and records a span.
type stampStore struct {
	base volio.Store
	rec  *recorder

	mu     sync.Mutex
	starts []time.Time
	busy   time.Duration
	bytes  int64
}

func (s *stampStore) Dims() vol.Dims { return s.base.Dims() }
func (s *stampStore) Steps() int     { return s.base.Steps() }

func (s *stampStore) Fetch(t int) (*vol.Volume, error) {
	t0 := time.Now()
	s.mu.Lock()
	k := len(s.starts)
	s.starts = append(s.starts, t0)
	s.mu.Unlock()
	v, err := s.base.Fetch(t)
	if s.rec != nil && err == nil {
		t1 := time.Now()
		s.mu.Lock()
		s.busy += t1.Sub(t0)
		s.bytes += v.Dims.Bytes()
		s.mu.Unlock()
		s.rec.interval("volio", "volio.fetch", primaryViewer, k, t0, t1, map[string]any{"step": t, "bytes": v.Dims.Bytes()})
	}
	return v, err
}

// stamp returns when the k-th fetch began (zero if it never did).
func (s *stampStore) stamp(k int) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k < 0 || k >= len(s.starts) {
		return time.Time{}
	}
	return s.starts[k]
}

func (s *stampStore) totals() (fetches int, busy time.Duration, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.starts), s.busy, s.bytes
}

// connMeter decorates a net.Conn outside the wan shaper (traced run
// only): bytes written, time blocked in Write, and one wan.write span
// per call. frame, when set, names the frame a write belongs to.
type connMeter struct {
	rec    *recorder
	viewer string
	frame  func() int

	bytes   atomic.Int64
	blocked atomic.Int64 // nanoseconds
}

func (m *connMeter) wrap(c net.Conn) net.Conn { return &meteredConn{Conn: c, m: m} }

type meteredConn struct {
	net.Conn
	m *connMeter
}

func (c *meteredConn) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(b)
	t1 := time.Now()
	c.m.bytes.Add(int64(n))
	c.m.blocked.Add(int64(t1.Sub(t0)))
	frame := -1
	if c.m.frame != nil {
		frame = c.m.frame()
	}
	c.m.rec.interval("wan", "wan.write", c.m.viewer, frame, t0, t1, map[string]any{"bytes": n})
	return n, err
}

// codecCounter turns compress.SetObserver's process-wide stream of
// codec calls into spans. In the workloads where one side encodes and
// one viewer decodes in frame order, the n-th group of `pieces` calls
// belongs to frame n; otherwise (the broker) spans carry no index and
// attach by containment.
type codecCounter struct {
	rec     *recorder
	pieces  int // calls per frame; 0 = frame index unknown
	encodes atomic.Int64
	decodes atomic.Int64
}

func (c *codecCounter) install() {
	compress.SetObserver(func(o compress.CodecObservation) {
		now := time.Now()
		frame, viewer := -1, ""
		var n int64
		if o.Op == "encode" {
			n = c.encodes.Add(1)
		} else {
			n = c.decodes.Add(1)
		}
		if c.pieces > 0 {
			frame, viewer = int(n-1)/c.pieces, primaryViewer
		}
		c.rec.ended("compress", "compress."+o.Op, viewer, frame, now, o.Duration, o.Codec,
			map[string]any{"raw_bytes": o.RawBytes, "coded_bytes": o.CodedBytes})
	})
}

// sendingFrame is the frame whose pieces the encoder is on: the index a
// conn write inherits.
func (c *codecCounter) sendingFrame() int {
	n := c.encodes.Load()
	if n == 0 || c.pieces == 0 {
		return -1
	}
	return int(n-1) / c.pieces
}

func (c *codecCounter) remove() { compress.SetObserver(nil) }

// primaryViewer names the viewer whose numbers are the workload's
// headline; lanViewer the one behind the unshaped leg in broker_fanout.
const (
	primaryViewer = "viewer"
	lanViewer     = "lan"
)
