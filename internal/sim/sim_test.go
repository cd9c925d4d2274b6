package sim

import (
	"io"
	"strings"
	"testing"
	"time"

	_ "repro/internal/compress/codecs"
	"repro/internal/vol"
	"repro/internal/wan"
)

// paperWorkload builds a hand-specified workload in the paper's
// regime: jet dataset on the RWCP cluster, 128 steps, 256x256 images.
func paperWorkload(steps int) Workload {
	return Workload{
		Steps:                steps,
		StepBytes:            129 * 129 * 104 * 4,
		VolumeMB:             6.9,
		ImageW:               256,
		ImageH:               256,
		T1Render:             15 * time.Second,
		CompressSecPerByte:   2e-9,
		CompressRatio:        0.015,
		DecompressSecPerByte: 4e-9,
		Link:                 wan.JapanUCD(),
	}
}

func TestValidate(t *testing.T) {
	w := paperWorkload(8)
	cases := []Config{
		{Machine: RWCP(), Work: w, P: 0, L: 1},
		{Machine: RWCP(), Work: w, P: 8, L: 0},
		{Machine: RWCP(), Work: w, P: 8, L: 16},
		{Machine: RWCP(), Work: w, P: 8, L: 3}, // not divisible
	}
	for i, c := range cases {
		if _, err := Run(c); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
	bad := w
	bad.Steps = 0
	if _, err := Run(Config{Machine: RWCP(), Work: bad, P: 8, L: 2}); err == nil {
		t.Error("zero steps accepted")
	}
	bad = w
	bad.CompressRatio = 0
	if _, err := Run(Config{Machine: RWCP(), Work: bad, P: 8, L: 2}); err == nil {
		t.Error("zero ratio accepted")
	}
}

func TestMetricsBasicSanity(t *testing.T) {
	res, err := Run(Config{Machine: RWCP(), Work: paperWorkload(32), P: 32, L: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.StartupLatency <= 0 || res.Overall <= res.StartupLatency {
		t.Fatalf("startup %v overall %v", res.StartupLatency, res.Overall)
	}
	if res.InterFrameDelay <= 0 {
		t.Fatalf("inter-frame %v", res.InterFrameDelay)
	}
	if len(res.Arrivals) != 32 {
		t.Fatalf("%d arrivals", len(res.Arrivals))
	}
	// Overall equals last display time and must be >= every arrival.
	for _, a := range res.Arrivals {
		if a > res.Overall {
			t.Fatalf("arrival %v after overall %v", a, res.Overall)
		}
	}
}

// Figure 6 shape: an optimal L exists strictly between 1 and P.
func TestFig6InteriorOptimum(t *testing.T) {
	for _, P := range []int{16, 32, 64} {
		var ls []int
		for l := 1; l <= P; l *= 2 {
			ls = append(ls, l)
		}
		overall := map[int]time.Duration{}
		for _, l := range ls {
			res, err := Run(Config{Machine: RWCP(), Work: paperWorkload(128), P: P, L: l})
			if err != nil {
				t.Fatal(err)
			}
			overall[l] = res.Overall
		}
		best := ls[0]
		for _, l := range ls {
			if overall[l] < overall[best] {
				best = l
			}
		}
		if best != 4 {
			t.Errorf("P=%d: optimum at L=%d, paper reports 4: %v", P, best, overall)
		}
		// L=1 (no pipelining) must be clearly worse than the optimum.
		if float64(overall[1]) < 1.1*float64(overall[best]) {
			t.Errorf("P=%d: L=1 (%v) not clearly worse than optimum (%v)", P, overall[1], overall[best])
		}
	}
}

// Figure 7 shape: start-up latency increases monotonically with L.
func TestFig7StartupMonotone(t *testing.T) {
	const P = 32
	var prev time.Duration
	for l := 1; l <= P; l *= 2 {
		res, err := Run(Config{Machine: RWCP(), Work: paperWorkload(64), P: P, L: l})
		if err != nil {
			t.Fatal(err)
		}
		if res.StartupLatency < prev {
			t.Fatalf("startup decreased at L=%d: %v < %v", l, res.StartupLatency, prev)
		}
		prev = res.StartupLatency
	}
}

// Inter-frame delay tracks overall time (same argmin region).
func TestFig7InterFrameTracksOverall(t *testing.T) {
	const P = 32
	type point struct {
		overall, ifd time.Duration
	}
	pts := map[int]point{}
	for l := 1; l <= P; l *= 2 {
		res, err := Run(Config{Machine: RWCP(), Work: paperWorkload(128), P: P, L: l})
		if err != nil {
			t.Fatal(err)
		}
		pts[l] = point{res.Overall, res.InterFrameDelay}
	}
	bestO, bestI := 1, 1
	for l, p := range pts {
		if p.overall < pts[bestO].overall {
			bestO = l
		}
		if p.ifd < pts[bestI].ifd {
			bestI = l
		}
	}
	// "The inter-frame delay exhibits a somewhat similar curve":
	// the IFD at the overall optimum must be within 5% of the best
	// IFD anywhere (the curve can be flat across the plateau, so
	// argmin positions alone are not meaningful).
	atOpt := pts[bestO].ifd.Seconds()
	best := pts[bestI].ifd.Seconds()
	if atOpt > 1.05*best {
		t.Fatalf("IFD at overall optimum (L=%d: %.3fs) not near best IFD (L=%d: %.3fs)",
			bestO, atOpt, bestI, best)
	}
}

// Compression must cut transport time roughly by the compression
// ratio; the X baseline (raw) is transport-dominated at large sizes.
func TestCompressionReducesTransport(t *testing.T) {
	w := paperWorkload(16)
	raw := w
	raw.CompressRatio = 1
	raw.CompressSecPerByte = 0
	raw.DecompressSecPerByte = 0
	cRes, err := Run(Config{Machine: RWCP(), Work: w, P: 16, L: 4})
	if err != nil {
		t.Fatal(err)
	}
	rRes, err := Run(Config{Machine: RWCP(), Work: raw, P: 16, L: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cRes.TransportPerFrame*10 > rRes.TransportPerFrame {
		t.Fatalf("compressed transport %v not ≪ raw %v", cRes.TransportPerFrame, rRes.TransportPerFrame)
	}
	if rRes.Overall <= cRes.Overall {
		t.Fatalf("raw overall %v not worse than compressed %v", rRes.Overall, cRes.Overall)
	}
}

func TestCachePenalty(t *testing.T) {
	m := RWCP()
	if cachePenalty(m, 0.1) != 1 {
		t.Fatal("small working set penalized")
	}
	if cachePenalty(m, 8) <= 1 {
		t.Fatal("large working set not penalized")
	}
	if cachePenalty(Machine{}, 100) != 1 {
		t.Fatal("zero cache model must be neutral")
	}
}

func TestBinarySwapTimeGrowsWithG(t *testing.T) {
	m := RWCP()
	t2 := binarySwapTime(2, 256*256*16, m)
	t16 := binarySwapTime(16, 256*256*16, m)
	if t2 <= 0 || t16 <= t2 {
		t.Fatalf("swap times %v %v", t2, t16)
	}
	if binarySwapTime(1, 1000, m) != 0 {
		t.Fatal("single node swap must be free")
	}
}

func TestCalibrateSmoke(t *testing.T) {
	cal, err := Calibrate(CalibrationOptions{Scale: 0.15, ImageSize: 48})
	if err != nil {
		t.Fatal(err)
	}
	if cal.SecPerSample <= 0 || cal.SecPerRay <= 0 {
		t.Fatalf("%+v", cal)
	}
	if cal.Ratio <= 0 || cal.Ratio >= 1 {
		t.Fatalf("ratio %v", cal.Ratio)
	}
	dims := vol.Dims{NX: 129, NY: 129, NZ: 104}
	t1 := cal.EstimateT1(dims, 256, 256, 0.8)
	if t1 <= 0 {
		t.Fatal("T1 estimate non-positive")
	}
	// Bigger images cost more.
	if cal.EstimateT1(dims, 512, 512, 0.8) <= t1 {
		t.Fatal("T1 not increasing with image size")
	}
	m, paperT1 := cal.ScaleToPaper(RWCP(), dims)
	if m.CPUScale <= 0 || paperT1 != PaperT1 {
		t.Fatalf("scale %v t1 %v", m.CPUScale, paperT1)
	}
	imb := cal.MeasuredImbalance(dims)
	if imb(1) != 1 {
		t.Fatal("imbalance(1) != 1")
	}
	if imb(8) < 1 {
		t.Fatalf("imbalance(8) = %v < 1", imb(8))
	}
	w := cal.WorkloadFor(m, dims, 16, 256, 256)
	if w.T1Render != PaperT1 {
		t.Fatalf("workload T1 %v", w.T1Render)
	}
	w.Link = wan.JapanUCD()
	if _, err := Run(Config{Machine: m, Work: w, P: 16, L: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestImbalanceCached(t *testing.T) {
	cal := &Calibration{}
	f := cal.MeasuredImbalance(vol.Dims{NX: 64, NY: 64, NZ: 64})
	a := f(8)
	b := f(8)
	if a != b {
		t.Fatal("cache broken")
	}
}

func BenchmarkRunPipeline(b *testing.B) {
	cfg := Config{Machine: RWCP(), Work: paperWorkload(128), P: 64, L: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTraceAndGantt(t *testing.T) {
	res, err := Run(Config{Machine: RWCP(), Work: paperWorkload(8), P: 8, L: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 8 {
		t.Fatalf("%d trace rows", len(res.Trace))
	}
	for i, s := range res.Trace {
		if s.Step != i {
			t.Fatalf("trace step %d at row %d", s.Step, i)
		}
		if !(s.InputStart <= s.InputEnd && s.InputEnd <= s.RenderStart &&
			s.RenderStart <= s.RenderEnd && s.RenderEnd <= s.SendStart &&
			s.SendStart <= s.SendEnd && s.SendEnd <= s.Arrive) {
			t.Fatalf("row %d intervals out of order: %+v", i, s)
		}
		if s.Group != i%2 {
			t.Fatalf("row %d group %d", i, s.Group)
		}
	}
	out := GanttString(res.Trace, 60)
	if !strings.Contains(out, "#") || !strings.Contains(out, "*") || !strings.Contains(out, "step   0") {
		t.Fatalf("gantt output malformed:\n%s", out)
	}
	// Error paths.
	if err := Gantt(io.Discard, nil, 60); err == nil {
		t.Fatal("empty trace accepted")
	}
	if err := Gantt(io.Discard, res.Trace, 4); err == nil {
		t.Fatal("tiny width accepted")
	}
}
