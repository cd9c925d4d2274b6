package codecs

import (
	"math"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/compress/jls"
	"repro/internal/compress/prog"
	"repro/internal/img"
	"repro/internal/testutil"
	"repro/internal/wan"
)

func renderedStyleFrame(n int) *img.Frame {
	f := img.NewFrame(n, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			dx := float64(x-n/2) / float64(n)
			dy := float64(y-n/2) / float64(n)
			v := math.Exp(-(dx*dx + dy*dy) * 10)
			f.Set(x, y, byte(250*v), byte(180*v*v), byte(90*v))
		}
	}
	return f
}

func TestAllRegistered(t *testing.T) {
	all, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 8 {
		t.Fatalf("got %d codecs", len(all))
	}
	wantNames := []string{"raw", "lzo", "bzip", "jpeg", "jpeg+lzo", "jpeg+bzip", "jls", "prog"}
	for i, c := range all {
		if c.Name() != wantNames[i] {
			t.Fatalf("codec %d named %q, want %q", i, c.Name(), wantNames[i])
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := compress.ByName("snappy"); err == nil {
		t.Fatal("want unknown codec error")
	}
}

func TestLosslessCodecsRoundTripExactly(t *testing.T) {
	f := renderedStyleFrame(96)
	for _, name := range []string{"raw", "lzo", "bzip", "jls", "prog"} {
		c, err := compress.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Lossless() {
			t.Fatalf("%s must be lossless", name)
		}
		data, err := c.EncodeFrame(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := c.DecodeFrame(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Equal(f) {
			t.Fatalf("%s: lossless round trip mismatch", name)
		}
	}
}

func TestLossyCodecsVisuallyClose(t *testing.T) {
	f := renderedStyleFrame(96)
	for _, name := range []string{"jpeg", "jpeg+lzo", "jpeg+bzip"} {
		c, err := compress.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Lossless() {
			t.Fatalf("%s must be lossy", name)
		}
		data, err := c.EncodeFrame(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := c.DecodeFrame(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := img.PSNR(f, got)
		if err != nil {
			t.Fatal(err)
		}
		if p < 30 {
			t.Fatalf("%s: PSNR %.1f dB", name, p)
		}
	}
}

// The paper's Table 1 size ordering on rendered-style content:
// raw > lzo > bzip > jpeg, and the two-phase chains shave a further
// slice off plain jpeg.
func TestTable1SizeOrdering(t *testing.T) {
	f := renderedStyleFrame(256)
	size := map[string]int{}
	for _, name := range []string{"raw", "lzo", "bzip", "jpeg", "jpeg+lzo"} {
		c, err := compress.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := c.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		size[name] = len(data)
	}
	if !(size["raw"] > size["lzo"] && size["lzo"] > size["bzip"] && size["bzip"] > size["jpeg"]) {
		t.Fatalf("size ordering violated: %v", size)
	}
	if size["jpeg+lzo"] >= size["jpeg"] {
		t.Fatalf("two-phase did not help: jpeg %d, jpeg+lzo %d", size["jpeg"], size["jpeg+lzo"])
	}
}

// texturedFrame overlays value noise on f: amplitude amp on a lattice
// step pixels apart, bilinearly interpolated, one lattice per channel.
// The result has fine-scale detail that is spatially correlated, like
// full-resolution turbulence, rather than iid noise, which no
// predictive codec can predict.
func texturedFrame(f *img.Frame, amp, step int) *img.Frame {
	gw, gh := f.W/step+2, f.H/step+2
	grid := make([]int, 3*gw*gh)
	state := uint32(0x9e3779b9)
	for i := range grid {
		state = state*1664525 + 1013904223
		grid[i] = int(state>>24)%(2*amp+1) - amp
	}
	out := img.NewFrame(f.W, f.H)
	for y := 0; y < f.H; y++ {
		gy, fy := y/step, y%step
		for x := 0; x < f.W; x++ {
			gx, fx := x/step, x%step
			for ch := 0; ch < 3; ch++ {
				g := grid[ch*gw*gh:]
				top := g[gy*gw+gx]*(step-fx) + g[gy*gw+gx+1]*fx
				bot := g[(gy+1)*gw+gx]*(step-fx) + g[(gy+1)*gw+gx+1]*fx
				n := (top*(step-fy) + bot*fy) / (step * step)
				i := (y*f.W+x)*3 + ch
				out.Pix[i] = byte(min(max(int(f.Pix[i])+n, 0), 255))
			}
		}
	}
	return out
}

// ladderFrames are the contents the ladder-placement claims must hold
// on: a smooth rendered-style frame and the same with correlated
// texture.
func ladderFrames() map[string]*img.Frame {
	f := renderedStyleFrame(256)
	return map[string]*img.Frame{"smooth": f, "textured": texturedFrame(f, 24, 4)}
}

// TestJlsBeatsLzoRatio pins the ladder-placement claim: on
// rendered-style content, jls at NEAR 0/2/4 always produces fewer
// bytes than LZO (the codec it outranks in the quality ladder), within
// its error bound.
func TestJlsBeatsLzoRatio(t *testing.T) {
	lzoC, err := compress.ByName("lzo")
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range ladderFrames() {
		lzoData, err := lzoC.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, near := range []int{0, 2, 4} {
			data, err := (jls.Codec{Near: near}).EncodeFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) >= len(lzoData) {
				t.Fatalf("%s: jls near=%d %d bytes >= lzo %d", name, near, len(data), len(lzoData))
			}
			got, err := (jls.Codec{}).DecodeFrame(data)
			if err != nil {
				t.Fatal(err)
			}
			for i := range f.Pix {
				d := int(f.Pix[i]) - int(got.Pix[i])
				if d < 0 {
					d = -d
				}
				if d > near {
					t.Fatalf("%s: near=%d: pixel byte %d off by %d", name, near, i, d)
				}
			}
		}
	}
}

// TestJlsEncodesFasterThanBzip pins the other half of jls's ladder
// placement: it out-compresses LZO while encoding faster than BZIP.
func TestJlsEncodesFasterThanBzip(t *testing.T) {
	f := ladderFrames()["textured"]
	bz, err := compress.ByName("bzip")
	if err != nil {
		t.Fatal(err)
	}
	encodeTime := func(c compress.FrameCodec) time.Duration {
		var total time.Duration
		for i := 0; i < 2; i++ {
			start := time.Now()
			if _, err := c.EncodeFrame(f); err != nil {
				t.Fatal(err)
			}
			total += time.Since(start)
		}
		return total
	}
	jlsT, bzT := encodeTime(jls.Codec{}), encodeTime(bz)
	t.Logf("two 256² encodes: jls %v, bzip %v", jlsT, bzT)
	if testutil.RaceEnabled {
		t.Skip("race detector on: encode-speed comparison skipped")
	}
	if jlsT >= bzT {
		t.Errorf("jls encode %v not faster than bzip %v", jlsT, bzT)
	}
}

// TestProgPreviewFraction pins the progressive claim: the first pass
// alone decodes, costs at most 25% of the full stream, and would land
// on the 45 KB/s Japan–UCD link in under a second.
func TestProgPreviewFraction(t *testing.T) {
	c, err := compress.ByName("prog")
	if err != nil {
		t.Fatal(err)
	}
	japan := wan.JapanUCD()
	for name, f := range ladderFrames() {
		full, err := c.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		preview, err := prog.Truncate(full, 1)
		if err != nil {
			t.Fatal(err)
		}
		if 4*len(preview) > len(full) {
			t.Fatalf("%s: preview %d bytes > 25%% of full %d", name, len(preview), len(full))
		}
		if s := japan.Latency.Seconds() + float64(len(preview))/japan.Bandwidth; s >= 1 {
			t.Fatalf("%s: preview needs %.2fs on %s, want under 1s", name, s, japan.Name)
		}
		pf, err := c.DecodeFrame(preview)
		if err != nil {
			t.Fatal(err)
		}
		if p, _ := img.PSNR(f, pf); p < 20 {
			t.Fatalf("%s: preview PSNR %.1f dB not usable", name, p)
		}
	}
}

func TestChainNameComposition(t *testing.T) {
	c, err := compress.ByName("jpeg+bzip")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "jpeg+bzip" {
		t.Fatalf("chain name %q", c.Name())
	}
}

func TestRawRejectsCorrupt(t *testing.T) {
	c, _ := compress.ByName("raw")
	if _, err := c.DecodeFrame([]byte{1, 2, 3}); err == nil {
		t.Fatal("short raw accepted")
	}
	bad := make([]byte, 8+5)
	bad[0] = 4 // claims 4x0
	if _, err := c.DecodeFrame(bad); err == nil {
		t.Fatal("inconsistent raw accepted")
	}
}
