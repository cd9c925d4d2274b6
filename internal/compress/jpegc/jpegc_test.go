package jpegc

import (
	"bytes"
	"image"
	"image/jpeg"
	"math"
	"math/rand"
	"testing"

	"repro/internal/img"
)

// testFrame builds a frame resembling a rendered volume: dark
// background, smooth colored structure.
func testFrame(w, h int) *img.Frame {
	f := img.NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dx := float64(x-w/2) / float64(w)
			dy := float64(y-h/2) / float64(h)
			r2 := dx*dx + dy*dy
			v := math.Exp(-r2*8) * 255
			f.Set(x, y,
				byte(v),
				byte(v*math.Abs(math.Sin(10*dx))),
				byte(v*0.6+40*math.Exp(-r2*30)),
			)
		}
	}
	return f
}

func framePSNR(t *testing.T, a, b *img.Frame) float64 {
	t.Helper()
	p, err := img.PSNR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestZigzagIsPermutation(t *testing.T) {
	var seen [64]bool
	for _, n := range zigzag {
		if n < 0 || n > 63 || seen[n] {
			t.Fatalf("zigzag invalid at %d", n)
		}
		seen[n] = true
	}
	for z, n := range zigzag {
		if unzigzag[n] != z {
			t.Fatal("unzigzag inconsistent")
		}
	}
	// Spot checks of the standard order.
	if zigzag[1] != 1 || zigzag[2] != 8 || zigzag[63] != 63 || zigzag[8] != 17 {
		t.Fatalf("zigzag order wrong: %v", zigzag[:9])
	}
}

func TestDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var b, orig [64]float64
		for i := range b {
			b[i] = rng.Float64()*255 - 128
			orig[i] = b[i]
		}
		fdct2d(&b)
		idct2dAccurate(&b)
		for i := range b {
			if math.Abs(b[i]-orig[i]) > 1e-9 {
				t.Fatalf("trial %d: DCT round trip error %v at %d", trial, b[i]-orig[i], i)
			}
		}
	}
}

func TestDCTDCCoefficient(t *testing.T) {
	var b [64]float64
	for i := range b {
		b[i] = 100
	}
	fdct2d(&b)
	// DC of a constant block: 8 * value (orthonormal scaling).
	if math.Abs(b[0]-800) > 1e-9 {
		t.Fatalf("DC = %v, want 800", b[0])
	}
	for i := 1; i < 64; i++ {
		if math.Abs(b[i]) > 1e-9 {
			t.Fatalf("AC %d = %v, want 0", i, b[i])
		}
	}
}

func TestMagnitudeCoding(t *testing.T) {
	cases := []struct {
		v    int
		size byte
	}{{0, 0}, {1, 1}, {-1, 1}, {2, 2}, {3, 2}, {-3, 2}, {7, 3}, {-8, 4}, {255, 8}, {-255, 8}, {1023, 10}}
	for _, c := range cases {
		if got := magnitudeBits(c.v); got != c.size {
			t.Fatalf("magnitudeBits(%d) = %d, want %d", c.v, got, c.size)
		}
		if c.size == 0 {
			continue
		}
		// extend must invert magnitudeValue.
		code := magnitudeValue(c.v, c.size)
		if got := extend(int32(code), c.size); got != int32(c.v) {
			t.Fatalf("extend(magnitudeValue(%d)) = %d", c.v, got)
		}
	}
}

func TestScaleQuant(t *testing.T) {
	q50 := scaleQuant(&baseLumaQuant, 50)
	for i := range q50 {
		if int(q50[i]) != baseLumaQuant[i] {
			t.Fatalf("quality 50 must reproduce the base table at %d: %d != %d", i, q50[i], baseLumaQuant[i])
		}
	}
	q100 := scaleQuant(&baseLumaQuant, 100)
	q10 := scaleQuant(&baseLumaQuant, 10)
	for i := range q100 {
		if q100[i] > q50[i] || q10[i] < q50[i] {
			t.Fatal("quality scaling not monotone")
		}
		if q100[i] < 1 {
			t.Fatal("quant value below 1")
		}
	}
}

func TestEncodeDecodeSelf(t *testing.T) {
	for _, sz := range [][2]int{{64, 64}, {128, 96}, {17, 23}, {8, 8}, {1, 1}, {15, 9}} {
		f := testFrame(sz[0], sz[1])
		data, err := Encode(f, 85)
		if err != nil {
			t.Fatalf("%v: %v", sz, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%v: decode: %v", sz, err)
		}
		if got.W != f.W || got.H != f.H {
			t.Fatalf("%v: decoded size %dx%d", sz, got.W, got.H)
		}
		// Tiny frames have legitimately lower PSNR (4:2:0 loss on
		// high-frequency chroma); measured parity with image/jpeg is
		// 25.6 dB at 17x23.
		min := 30.0
		if sz[0] < 32 || sz[1] < 32 {
			min = 24.0
		}
		if sz[0] < 16 || sz[1] < 16 {
			min = 15.0 // single-MCU frames: dominated by 4:2:0 loss
		}
		if p := framePSNR(t, f, got); p < min {
			t.Fatalf("%v: self round-trip PSNR %.1f dB", sz, p)
		}
	}
}

func TestQualityMonotone(t *testing.T) {
	f := testFrame(128, 128)
	var lastSize int
	var lastPSNR float64
	for i, q := range []int{10, 50, 90} {
		data, err := Encode(f, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		p := framePSNR(t, f, got)
		if i > 0 {
			if len(data) <= lastSize {
				t.Fatalf("q=%d size %d not larger than %d", q, len(data), lastSize)
			}
			if p <= lastPSNR {
				t.Fatalf("q=%d PSNR %.1f not better than %.1f", q, p, lastPSNR)
			}
		}
		lastSize, lastPSNR = len(data), p
	}
}

// Interop 1: the standard library must decode our output.
func TestStdlibDecodesOurOutput(t *testing.T) {
	f := testFrame(96, 80)
	data, err := Encode(f, 85)
	if err != nil {
		t.Fatal(err)
	}
	stdImg, err := jpeg.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("stdlib rejected our JPEG: %v", err)
	}
	got := img.FromImage(stdImg)
	if p := framePSNR(t, f, got); p < 30 {
		t.Fatalf("stdlib decode PSNR %.1f dB", p)
	}
}

// Interop 2: we must decode the standard library's output.
func TestWeDecodeStdlibOutput(t *testing.T) {
	f := testFrame(96, 80)
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, f.ToImage(), &jpeg.Options{Quality: 85}); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("we rejected stdlib JPEG: %v", err)
	}
	if p := framePSNR(t, f, got); p < 30 {
		t.Fatalf("our decode of stdlib PSNR %.1f dB", p)
	}
}

// Interop 3: our decoder must agree with the stdlib decoder on the
// same compressed stream.
func TestDecodersAgree(t *testing.T) {
	f := testFrame(64, 64)
	data, err := Encode(f, 75)
	if err != nil {
		t.Fatal(err)
	}
	ours, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	stdImg, err := jpeg.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	theirs := img.FromImage(stdImg)
	if p := framePSNR(t, ours, theirs); p < 40 {
		t.Fatalf("decoders disagree: PSNR %.1f dB", p)
	}
}

func TestGrayscaleDecode(t *testing.T) {
	gray := image.NewGray(image.Rect(0, 0, 40, 30))
	for y := 0; y < 30; y++ {
		for x := 0; x < 40; x++ {
			gray.Pix[y*gray.Stride+x] = byte(x*4 + y)
		}
	}
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, gray, &jpeg.Options{Quality: 90}); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("grayscale decode: %v", err)
	}
	if got.W != 40 || got.H != 30 {
		t.Fatalf("size %dx%d", got.W, got.H)
	}
	r, g, b := got.At(20, 15)
	if r != g || g != b {
		t.Fatal("grayscale decoded to non-gray pixel")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0xff},
		{0x00, 0x00, 0x00},
		{0xff, 0xd8},             // SOI only
		{0xff, 0xd8, 0xff, 0xd9}, // SOI+EOI, no scan
		bytes.Repeat([]byte{0xab}, 100),
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Truncated valid stream.
	f := testFrame(32, 32)
	data, err := Encode(f, 75)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data[:len(data)/3]); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := Encode(img.NewFrame(0, 0), 75); err == nil {
		t.Fatal("want error for empty frame")
	}
}

func TestCodecInterface(t *testing.T) {
	c := Codec{Quality: 80}
	if c.Name() != "jpeg" || c.Lossless() {
		t.Fatal("metadata wrong")
	}
	f := testFrame(48, 48)
	data, err := c.EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.DecodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if p := framePSNR(t, f, got); p < 30 {
		t.Fatalf("codec PSNR %.1f", p)
	}
	// Default quality kicks in at 0.
	if _, err := (Codec{}).EncodeFrame(f); err != nil {
		t.Fatal(err)
	}
}

// Restart markers: stdlib doesn't emit them, so synthesize by
// re-encoding with a DRI segment via a hand-built stream is complex;
// instead verify the decoder path using our own encoder extended with
// restarts is exercised in the decoder tests of transportable streams.
// Here, check the compression ratio expectation from the paper: a
// rendered-style image at 256x256 should compress far below raw size.
func TestCompressionRatioOnRenderedStyle(t *testing.T) {
	f := testFrame(256, 256)
	data, err := Encode(f, 75)
	if err != nil {
		t.Fatal(err)
	}
	raw := 256 * 256 * 3
	if len(data)*10 > raw {
		t.Fatalf("jpeg size %d not < 10%% of raw %d", len(data), raw)
	}
}

func BenchmarkEncode256(b *testing.B) {
	f := testFrame(256, 256)
	b.SetBytes(int64(len(f.Pix)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(f, 75); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeAccurate256(b *testing.B) {
	f := testFrame(256, 256)
	data, err := Encode(f, 75)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(f.Pix)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRestartIntervalSelfDecode(t *testing.T) {
	f := testFrame(96, 80) // 6x5 MCUs
	for _, ri := range []int{1, 3, 7} {
		data, err := EncodeRestart(f, 85, ri)
		if err != nil {
			t.Fatalf("ri=%d: %v", ri, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("ri=%d: decode: %v", ri, err)
		}
		if p := framePSNR(t, f, got); p < 30 {
			t.Fatalf("ri=%d: PSNR %.1f", ri, p)
		}
		// The restart stream must be equivalent to the plain one.
		plain, err := Decode(mustEncode(t, f, 85))
		if err != nil {
			t.Fatal(err)
		}
		if p, _ := img.PSNR(plain, got); p < 50 {
			t.Fatalf("ri=%d: differs from plain encode: %.1f dB", ri, p)
		}
	}
}

func TestRestartIntervalStdlibDecodes(t *testing.T) {
	f := testFrame(64, 64)
	data, err := EncodeRestart(f, 85, 2)
	if err != nil {
		t.Fatal(err)
	}
	stdImg, err := jpeg.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("stdlib rejected restart-marker stream: %v", err)
	}
	if p := framePSNR(t, f, img.FromImage(stdImg)); p < 30 {
		t.Fatalf("stdlib decode PSNR %.1f", p)
	}
}

func TestRestartIntervalValidation(t *testing.T) {
	f := testFrame(16, 16)
	if _, err := EncodeRestart(f, 85, -1); err == nil {
		t.Fatal("negative interval accepted")
	}
	if _, err := EncodeRestart(f, 85, 1<<16); err == nil {
		t.Fatal("oversized interval accepted")
	}
}

func mustEncode(t *testing.T, f *img.Frame, q int) []byte {
	t.Helper()
	data, err := Encode(f, q)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
