package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

func quickCtx() (*Context, *strings.Builder) {
	var b strings.Builder
	return New(&b, true), &b
}

func TestTable1Shapes(t *testing.T) {
	c, out := quickCtx()
	res, err := c.Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Sizes {
		raw := res.Bytes["raw"][s]
		if raw != s*s*3 {
			t.Fatalf("raw bytes %d at %d", raw, s)
		}
		lzo := res.Bytes["lzo"][s]
		bz := res.Bytes["bzip"][s]
		jp := res.Bytes["jpeg"][s]
		jl := res.Bytes["jpeg+lzo"][s]
		// Paper Table 1 ordering: raw > lzo > bzip > jpeg, and the
		// two-phase chain shaves more off.
		if !(raw > lzo && lzo > bz && bz > jp) {
			t.Fatalf("ordering broken at %d: raw=%d lzo=%d bzip=%d jpeg=%d", s, raw, lzo, bz, jp)
		}
		if jl >= jp {
			t.Fatalf("jpeg+lzo (%d) not smaller than jpeg (%d) at %d", jl, jp, s)
		}
		// "The compression rates we have achieved are 96% and up."
		if r := res.Ratio("jpeg", s); r > 0.04 {
			t.Fatalf("jpeg ratio %.3f at %d — paper reports >=96%% reduction", r, s)
		}
	}
	if !strings.Contains(out.String(), "Table 1") {
		t.Fatal("table not printed")
	}
}

func TestFig8Table2Shapes(t *testing.T) {
	c, _ := quickCtx()
	res, err := c.Table2()
	if err != nil {
		t.Fatal(err)
	}
	prevAdvantage := 0.0
	for _, s := range res.Sizes {
		x, cp := res.X[s], res.Comp[s]
		if cp.Total() >= x.Total() {
			t.Fatalf("at %d: compression display %v not faster than X %v", s, cp.Total(), x.Total())
		}
		if cp.FPS() <= x.FPS() {
			t.Fatalf("at %d: compression fps %.2f not above X %.2f", s, cp.FPS(), x.FPS())
		}
		// "as the image size increases, the benefit of using
		// compression becomes even more dramatic."
		adv := x.Total().Seconds() / cp.Total().Seconds()
		if adv < prevAdvantage*0.8 {
			t.Fatalf("advantage shrank with size: %.1f after %.1f", adv, prevAdvantage)
		}
		prevAdvantage = adv
	}
}

func TestFig6Shapes(t *testing.T) {
	c, _ := quickCtx()
	res, err := c.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fig6Ps {
		// "An optimal partition does exist and it is four for all
		// three processor sizes."
		if res.OptimalL[p] != 4 {
			t.Errorf("P=%d: optimal L = %d, paper reports 4", p, res.OptimalL[p])
		}
		if res.Overall[p][1] <= res.Overall[p][4] {
			t.Errorf("P=%d: L=1 not worse than L=4", p)
		}
		if res.Overall[p][p] <= res.Overall[p][4] {
			t.Errorf("P=%d: L=P not worse than L=4", p)
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	c, _ := quickCtx()
	res, err := c.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	// Startup latency monotonically increases with L.
	for i := 1; i < len(res.Ls); i++ {
		if res.Startup[res.Ls[i]] < res.Startup[res.Ls[i-1]] {
			t.Fatalf("startup not monotone at L=%d", res.Ls[i])
		}
	}
	// Inter-frame delay exhibits a curve similar to overall time: the
	// IFD at the overall optimum is within 5% of the best IFD
	// anywhere (the curve flattens across the input-bound plateau, so
	// comparing argmin positions alone is meaningless).
	bestO, bestI := res.Ls[0], res.Ls[0]
	for _, l := range res.Ls {
		if res.Overall[l] < res.Overall[bestO] {
			bestO = l
		}
		if res.InterFrame[l] < res.InterFrame[bestI] {
			bestI = l
		}
	}
	if res.InterFrame[bestO].Seconds() > 1.05*res.InterFrame[bestI].Seconds() {
		t.Fatalf("IFD at overall optimum (L=%d: %v) not near best IFD (L=%d: %v)",
			bestO, res.InterFrame[bestO], bestI, res.InterFrame[bestI])
	}
}

func TestFig9Shapes(t *testing.T) {
	c, _ := quickCtx()
	res, err := c.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	last := len(res.X) - 1
	// X: at the largest size the display time is comparable to (or
	// exceeds) the render time.
	if res.X[last].Display.Seconds() < 0.5*res.X[last].Render.Seconds() {
		t.Fatalf("X display %v ≪ render %v at %d — paper shows display ~ render",
			res.X[last].Display, res.X[last].Render, res.X[last].Size)
	}
	// Daemon: rendering dominates, not transmission.
	for _, r := range res.Daemon {
		if r.Display.Seconds() > 0.5*r.Render.Seconds() {
			t.Fatalf("daemon display %v not ≪ render %v at %d", r.Display, r.Render, r.Size)
		}
	}
}

func TestFig10Shapes(t *testing.T) {
	c, _ := quickCtx()
	res, err := c.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 4 {
		t.Fatalf("%d points", len(res.Points))
	}
	single := res.Points[0].Decode
	many := res.Points[len(res.Points)-1]
	// "the decompression time increases significantly with 16 or more
	// processors" — the most-pieces case must cost more than the
	// single image.
	if many.Decode <= single {
		t.Fatalf("decoding %d pieces (%v) not slower than one image (%v)",
			many.Pieces, many.Decode, single)
	}
}

func TestFig11Shapes(t *testing.T) {
	c, _ := quickCtx()
	res, err := c.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Sizes {
		if res.Comp[s].Total() >= res.X[s].Total() {
			t.Fatalf("at %d: daemon %v not faster than X %v", s, res.Comp[s].Total(), res.X[s].Total())
		}
	}
}

// Japan X transfers take roughly twice the NASA ones (paper: "almost
// twice longer").
func TestJapanVsNASARatio(t *testing.T) {
	c, _ := quickCtx()
	nasa, err := c.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	japan, err := c.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	s := nasa.Sizes[len(nasa.Sizes)-1]
	ratio := japan.X[s].Transfer.Seconds() / nasa.X[s].Transfer.Seconds()
	if ratio < 1.5 || ratio > 3 {
		t.Fatalf("Japan/NASA X transfer ratio %.2f outside [1.5,3]", ratio)
	}
}

func TestDatasetsShapes(t *testing.T) {
	c, _ := quickCtx()
	res, err := c.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	jet, vortex, mixing := res.Row("jet"), res.Row("vortex"), res.Row("mixing")
	if jet == nil || vortex == nil || mixing == nil {
		t.Fatal("missing rows")
	}
	// Vortex images have more pixel coverage and compress worse.
	if vortex.CompressedBytes <= jet.CompressedBytes {
		t.Fatalf("vortex frame (%d B) not larger than jet (%d B)", vortex.CompressedBytes, jet.CompressedBytes)
	}
	// Mixing renders much slower than transport ("the image transport
	// time is only one tenth of the rendering time" at paper scale;
	// require a clear dominance here).
	if mixing.RenderPerFrame.Seconds() < 2*mixing.TransportPerFrame.Seconds() {
		t.Fatalf("mixing render %v not ≫ transport %v", mixing.RenderPerFrame, mixing.TransportPerFrame)
	}
	// Mixing renders slower than the small datasets (16x more data).
	if mixing.RenderPerFrame <= jet.RenderPerFrame {
		t.Fatalf("mixing render %v not slower than jet %v", mixing.RenderPerFrame, jet.RenderPerFrame)
	}
}

func TestHybridSweep(t *testing.T) {
	c, _ := quickCtx()
	res, err := c.Hybrid()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("%d points", len(res.Points))
	}
	// More pieces -> more total bytes (per-piece codec overhead), the
	// cost the hybrid grouping controls.
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.BytesPerFrame <= first.BytesPerFrame {
		t.Fatalf("bytes did not grow with pieces: %d (k=%d) vs %d (k=%d)",
			first.BytesPerFrame, first.Pieces, last.BytesPerFrame, last.Pieces)
	}
	for _, p := range res.Points {
		if p.DecodePerFrame <= 0 || p.WirePerFrame <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
}

func TestAdaptiveStreaming(t *testing.T) {
	c, out := quickCtx()
	res, err := c.Adaptive()
	if err != nil {
		t.Fatal(err)
	}
	// Acceptance: adaptive quality holds >= 2x the fixed-baseline frame
	// rate on the Japan-UCD link. The ratio is a wall-clock measurement,
	// so it is only asserted without the race detector's slowdown (the
	// encode stage becomes the bottleneck instead of the link).
	if raceEnabled {
		t.Logf("race detector on: japan speedup %.2fx measured, >=2x assertion skipped", res.JapanSpeedup)
	} else if res.JapanSpeedup < 2 {
		t.Fatalf("japan speedup %.2fx (adaptive %.2f fps, fixed %.2f fps), want >= 2x",
			res.JapanSpeedup, res.JapanAdaptiveFPS, res.JapanFixedFPS)
	}
	// Acceptance: the fan-out cache cuts encode invocations >= 4x for 8
	// same-profile clients vs encode-per-client.
	if res.EncodeSavings < 4 {
		t.Fatalf("encode savings %.2fx (%d cached vs %d uncached), want >= 4x",
			res.EncodeSavings, res.CacheEncodes, res.NoCacheEncodes)
	}
	// Acceptance: the cold-start preview probe paints the Japan link
	// sub-second while the fixed lossless baseline needs seconds
	// (wall-clock, so race runs only log it).
	if raceEnabled {
		t.Logf("race detector on: japan first frame %.2fs vs fixed %.2fs, assertion skipped",
			res.JapanPreviewS, res.JapanFixedFirstS)
	} else {
		if res.JapanPreviewS <= 0 || res.JapanPreviewS >= 1 {
			t.Errorf("japan adaptive first frame %.2fs, want sub-second", res.JapanPreviewS)
		}
		if res.JapanFixedFirstS < res.JapanPreviewS {
			t.Errorf("fixed first frame %.2fs faster than adaptive %.2fs",
				res.JapanFixedFirstS, res.JapanPreviewS)
		}
	}
	// Slow clients under the fixed baseline shed frames instead of
	// backlogging (the bound itself is asserted in the stream package).
	for _, cl := range res.Fixed {
		if cl.Link == "japan-ucd" && cl.Drops == 0 {
			t.Errorf("fixed japan client dropped nothing: %+v", cl)
		}
	}
	for _, want := range []string{"japan-ucd frame rate", "fan-out cache"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q", want)
		}
	}
	// The result is what paperbench -json emits; it must round-trip.
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"japan_speedup", "encode_savings", "adaptive"} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("JSON missing %q: %s", key, data)
		}
	}
}

func TestCodecLadder(t *testing.T) {
	c, out := quickCtx()
	res, err := c.Codec()
	if err != nil {
		t.Fatal(err)
	}
	// Size-denominated acceptance (deterministic, race-safe): error
	// bounds hold, jls beats lzo's lossless ratio at every NEAR, the
	// progressive preview is a small fraction of the full stream, and
	// its modeled Japan-link time is sub-second.
	if !res.NearBoundHolds {
		t.Error("a codec exceeded its configured error bound")
	}
	if !res.JlsBeatsLzoRatio {
		t.Errorf("jls ratio %.2f did not beat lzo %.2f", res.JlsRatioN0, res.LzoRatio)
	}
	if res.PreviewFraction <= 0 || res.PreviewFraction > 0.25 {
		t.Errorf("preview fraction %.3f, want (0, 0.25]", res.PreviewFraction)
	}
	if res.JapanPreviewS <= 0 || res.JapanPreviewS >= 1 {
		t.Errorf("modeled japan preview %.2fs, want sub-second", res.JapanPreviewS)
	}
	// Throughput contrast is wall-clock; only assert without the race
	// detector's slowdown.
	if raceEnabled {
		t.Logf("race detector on: jls %.1f MB/s vs bzip %.1f MB/s, assertion skipped",
			res.JlsEncMBs, res.BzipEncMBs)
	} else if !res.JlsBeatsBzipEnc {
		t.Errorf("jls encode %.1f MB/s did not beat bzip %.1f MB/s", res.JlsEncMBs, res.BzipEncMBs)
	}
	if !strings.Contains(out.String(), "jls lossless ratio") {
		t.Fatalf("output missing summary: %s", out.String())
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"jls_beats_lzo_ratio", "preview_fraction", "japan_preview_s", "near_bound_holds"} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("JSON missing %q", key)
		}
	}
}
