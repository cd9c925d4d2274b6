// Package sim is a deterministic virtual-time simulator of the
// paper's parallel rendering pipeline. The host machine has one CPU,
// so wall-clock speedup curves for 16–64 node machines cannot be
// measured directly; instead the pipeline's task graph — data input on
// a shared sequential path, group rendering, binary-swap compositing,
// parallel compression, wide-area image output, and viewer-side
// decompression — is scheduled greedily in dependency order against
// per-resource availability times. Stage costs come from a Calibration
// built by measuring this repository's real renderer and codecs, then
// scaled by a machine profile to the paper's hardware (a single
// processor rendering one 256x256 frame in 10–20 s).
package sim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/wan"
)

// Machine describes the parallel computer the pipeline runs on.
type Machine struct {
	Name string
	// CPUScale multiplies calibrated CPU costs (render, compress): a
	// value above 1 models a slower processor than the calibration
	// host.
	CPUScale float64
	// InputBW is the sequential data-input bandwidth (disk + LAN
	// distribution) in bytes/s — the paper's "no parallel I/O" path.
	InputBW float64
	// LinkBW and LinkLatency model the interconnect used by
	// binary-swap compositing (per-node point-to-point).
	LinkBW      float64
	LinkLatency time.Duration
	// CacheMB is the per-node working-set size above which rendering
	// slows down; CachePenalty is the per-doubling slowdown. Models
	// the paper's observation that exploiting only inter-volume
	// parallelism (whole volume per node) is limited by per-node
	// memory behaviour.
	CacheMB      float64
	CachePenalty float64
	// DistOverhead is the per-member 3D-data-distribution cost a group
	// pays each frame: the group master extracts and hands one brick
	// to each of its G members sequentially, so the charge is G *
	// DistOverhead — the paper's "when the degree of parallelism is
	// high ... 3D data distribution becomes a significant performance
	// factor".
	DistOverhead time.Duration
	// ViewerScale multiplies viewer-side decompression cost (the
	// paper's display host, an SGI O2, is "a less powerful machine").
	ViewerScale float64
}

// RWCP models the 128-node Pentium Pro / Myrinet cluster.
func RWCP() Machine {
	return Machine{
		Name:     "rwcp",
		CPUScale: 1, // set by Calibrate to match the paper's T1
		InputBW:  10e6,
		LinkBW:   60e6, LinkLatency: 30 * time.Microsecond,
		CacheMB: 1.6, CachePenalty: 0.25,
		DistOverhead: 35 * time.Millisecond,
		ViewerScale:  1,
	}
}

// O2K models the NASA Ames SGI Origin 2000.
func O2K() Machine {
	return Machine{
		Name:     "o2k",
		CPUScale: 1,
		InputBW:  12e6,
		LinkBW:   150e6, LinkLatency: 10 * time.Microsecond,
		CacheMB: 3.2, CachePenalty: 0.2,
		DistOverhead: 20 * time.Millisecond,
		ViewerScale:  1,
	}
}

// Workload describes the rendering job.
type Workload struct {
	// Steps is the number of time steps rendered.
	Steps int
	// StepBytes is the raw size of one time step.
	StepBytes int64
	// VolumeMB is the in-memory size of one volume (for the cache
	// model).
	VolumeMB float64
	// ImageW, ImageH set the output image size.
	ImageW, ImageH int
	// T1Render is the single-node time to render one step at
	// ImageW x ImageH on the TARGET machine (after CPU scaling).
	T1Render time.Duration
	// Imbalance maps group size G to the max/mean per-brick work
	// ratio (>= 1); nil means a mild default model.
	Imbalance func(g int) float64
	// CompressSecPerByte is the per-raw-byte parallel compression
	// cost on the target machine; CompressRatio is
	// compressed/raw. A ratio of 1 with zero cost models the X
	// baseline.
	CompressSecPerByte float64
	CompressRatio      float64
	// DecompressSecPerByte is the viewer-side cost per raw byte.
	DecompressSecPerByte float64
	// Link is the wide-area path from the machine to the display.
	Link wan.Profile
}

// defaultImbalance is a mild sublinear imbalance model measured from
// kd decompositions of the jet dataset (see calibrate.go for the
// measured variant).
func defaultImbalance(g int) float64 {
	if g <= 1 {
		return 1
	}
	return 1 + 0.08*math.Log2(float64(g))
}

// Config couples a machine, a workload, and the processor management
// choice.
type Config struct {
	Machine Machine
	Work    Workload
	// P is the total processor count; L the number of groups.
	P, L int
	// NoPipeline disables input/render overlap, modelling the paper's
	// first approach (L=1, "the pipeline effect is ignored"). It is
	// implied when L == 1.
	NoPipeline bool
	// Failures schedules group deaths — the virtual-time mirror of the
	// real pipeline's skip-and-continue degradation: from AtStep on, a
	// failed group's steps are marked failed and consume no resources
	// while the surviving groups keep the schedule.
	Failures []GroupFailure
}

// GroupFailure kills one processor group at the step it would start.
type GroupFailure struct {
	// Group is the group index (0..L-1); AtStep the first step it
	// fails on (the group's later steps fail too).
	Group, AtStep int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.P < 1 {
		return fmt.Errorf("sim: P = %d", c.P)
	}
	if c.L < 1 || c.L > c.P {
		return fmt.Errorf("sim: L = %d out of [1,%d]", c.L, c.P)
	}
	if c.P%c.L != 0 {
		return fmt.Errorf("sim: P=%d not divisible by L=%d", c.P, c.L)
	}
	if c.Work.Steps < 1 {
		return fmt.Errorf("sim: steps = %d", c.Work.Steps)
	}
	if c.Work.T1Render <= 0 {
		return fmt.Errorf("sim: T1Render = %v", c.Work.T1Render)
	}
	if c.Work.ImageW < 1 || c.Work.ImageH < 1 {
		return fmt.Errorf("sim: image %dx%d", c.Work.ImageW, c.Work.ImageH)
	}
	if c.Work.CompressRatio <= 0 || c.Work.CompressRatio > 1 {
		return fmt.Errorf("sim: compress ratio %v", c.Work.CompressRatio)
	}
	for _, f := range c.Failures {
		if f.Group < 0 || f.Group >= c.L {
			return fmt.Errorf("sim: failure group %d out of [0,%d)", f.Group, c.L)
		}
		if f.AtStep < 0 {
			return fmt.Errorf("sim: failure step %d", f.AtStep)
		}
	}
	return nil
}

// Result reports the three performance metrics of §3 plus per-frame
// breakdowns.
type Result struct {
	// StartupLatency is the time until the first frame appears.
	StartupLatency time.Duration
	// Overall is the time until the last frame appears.
	Overall time.Duration
	// InterFrameDelay is the mean time between consecutive frame
	// appearances (in display order).
	InterFrameDelay time.Duration
	// Arrivals are the raw frame arrival times at the viewer.
	Arrivals []time.Duration
	// Per-frame mean stage costs.
	RenderPerFrame    time.Duration // render+composite+compress on the machine
	TransportPerFrame time.Duration // WAN serialization + latency
	DecodePerFrame    time.Duration // viewer decompression
	InputPerFrame     time.Duration
	// Frames is the number of steps that completed; FailedSteps the
	// number lost to scheduled group failures.
	Frames      int
	FailedSteps int
	// Trace records every step's scheduled stage intervals (see
	// Gantt).
	Trace []StepTrace
}

// Run schedules the pipeline and returns its metrics.
func Run(c Config) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	m, w := c.Machine, c.Work
	G := c.P / c.L
	imb := w.Imbalance
	if imb == nil {
		imb = defaultImbalance
	}

	// Stage durations (seconds).
	inputT := float64(w.StepBytes) / m.InputBW
	renderT := w.T1Render.Seconds() / float64(G) * imb(G) * cachePenalty(m, w.VolumeMB/float64(G))
	compositeT := binarySwapTime(G, w.ImageW*w.ImageH*16, m)
	syncT := 0.0
	if G > 1 {
		syncT = m.DistOverhead.Seconds() * float64(G)
	}
	rawImage := float64(w.ImageW * w.ImageH * 3)
	compressT := w.CompressSecPerByte * rawImage / float64(G) * m.CPUScale
	groupT := renderT + compositeT + syncT + compressT
	compressedBytes := rawImage * w.CompressRatio
	sendT := 0.0
	if w.Link.Bandwidth > 0 {
		sendT = compressedBytes / w.Link.Bandwidth
	}
	lat := w.Link.Latency.Seconds()
	decodeT := w.DecompressSecPerByte * rawImage * m.ViewerScale

	noPipe := c.NoPipeline || c.L == 1

	// Resource availability (seconds of virtual time). One shared
	// sequential input path serializes all reads.
	diskFree := 0.0
	groupFree := make([]float64, c.L)
	wanFree := 0.0
	viewerFree := 0.0
	renderDone := make([]float64, w.Steps)
	arrive := make([]time.Duration, w.Steps)
	failed := make([]bool, w.Steps)
	trace := make([]StepTrace, w.Steps)

	// failFrom[g] is the first step group g fails on (earliest wins).
	failFrom := map[int]int{}
	for _, f := range c.Failures {
		if cur, ok := failFrom[f.Group]; !ok || f.AtStep < cur {
			failFrom[f.Group] = f.AtStep
		}
	}

	for s := 0; s < w.Steps; s++ {
		g := s % c.L
		if at, dead := failFrom[g]; dead && s >= at {
			// Skip-and-continue: a dead group's steps are lost and
			// consume no input, render, WAN, or viewer time.
			failed[s] = true
			trace[s] = StepTrace{Step: s, Group: g, Failed: true}
			continue
		}
		// Input: shared sequential path; a group's input buffer frees
		// when its previous volume has been rendered (double
		// buffering); without pipelining, input waits for the whole
		// previous frame of the group to complete.
		bufReady := 0.0
		if noPipe {
			if s >= c.L {
				bufReady = groupFree[g]
			}
		} else if s >= 2*c.L {
			bufReady = renderDone[s-2*c.L]
		}
		inputStart := math.Max(diskFree, bufReady)
		inputDone := inputStart + inputT
		diskFree = inputDone

		renderStart := math.Max(inputDone, groupFree[g])
		groupDone := renderStart + groupT
		groupFree[g] = groupDone
		renderDone[s] = groupDone

		// WAN is a shared serialized link.
		sendStart := math.Max(groupDone, wanFree)
		wanFree = sendStart + sendT

		dispStart := math.Max(wanFree+lat, viewerFree)
		arrival := dispStart + decodeT
		viewerFree = arrival
		arrive[s] = secDur(arrival)
		trace[s] = StepTrace{
			Step: s, Group: g,
			InputStart: secDur(inputStart), InputEnd: secDur(inputDone),
			RenderStart: secDur(renderStart), RenderEnd: secDur(groupDone),
			SendStart: secDur(sendStart), SendEnd: secDur(wanFree),
			Arrive: arrive[s],
		}
	}

	res := Result{
		Trace:             trace,
		Arrivals:          arrive,
		RenderPerFrame:    secDur(groupT),
		TransportPerFrame: secDur(sendT + lat),
		DecodePerFrame:    secDur(decodeT),
		InputPerFrame:     secDur(inputT),
	}
	// Frames display in step order; a frame can only appear after all
	// earlier completed ones. Failed steps never arrive and are
	// excluded from the latency series.
	display := make([]time.Duration, 0, len(arrive))
	run := time.Duration(0)
	for i, a := range arrive {
		if failed[i] {
			continue
		}
		if a > run {
			run = a
		}
		display = append(display, run)
	}
	res.Frames = len(display)
	res.FailedSteps = w.Steps - len(display)
	if len(display) > 0 {
		res.StartupLatency = display[0]
		res.Overall = display[len(display)-1]
	}
	if len(display) > 1 {
		res.InterFrameDelay = (res.Overall - res.StartupLatency) / time.Duration(len(display)-1)
	}
	return res, nil
}

func secDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// cachePenalty slows rendering when the per-node working set exceeds
// the machine's cache-friendly size, by CachePenalty per doubling.
func cachePenalty(m Machine, perNodeMB float64) float64 {
	if m.CacheMB <= 0 || perNodeMB <= m.CacheMB {
		return 1
	}
	return 1 + m.CachePenalty*math.Log2(perNodeMB/m.CacheMB)
}

// binarySwapTime models log2(G) exchange stages, each sending half the
// remaining image region and blending it.
func binarySwapTime(g int, imageBytes int, m Machine) float64 {
	if g <= 1 {
		return 0
	}
	stages := int(math.Log2(float64(g)))
	t := 0.0
	remaining := float64(imageBytes)
	for s := 0; s < stages; s++ {
		remaining /= 2
		t += remaining/m.LinkBW + m.LinkLatency.Seconds()
	}
	return t
}
