package jpegc

import (
	"bytes"
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/jpeg"
	"math"
	"math/rand"
	"testing"

	"repro/internal/img"
)

// refDecodeSafe is refDecode with its one known crash — a scan naming
// Huffman table 4..15 indexes past the table array — reported as the
// rejection it should have been.
func refDecodeSafe(data []byte) (f *img.Frame, err error) {
	defer func() {
		if r := recover(); r != nil {
			f, err = nil, fmt.Errorf("%w: reference panicked: %v", ErrFormat, r)
		}
	}()
	return refDecode(data)
}

// checkAgainstReference holds Decode to the reference decoder on one
// stream: the same accept/reject, and the same pixels when accepted.
func checkAgainstReference(t testing.TB, what string, data []byte) {
	t.Helper()
	want, wantErr := refDecodeSafe(data)
	got, err := Decode(data)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: Decode error %v, reference error %v", what, err, wantErr)
	}
	if err != nil {
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: error %v does not wrap ErrFormat", what, err)
		}
		return
	}
	if !got.Equal(want) {
		t.Fatalf("%s: %dx%d frame differs from the reference decode", what, got.W, got.H)
	}
}

// contentFrame builds one of five content classes; class 2 and 4 are
// what rendered frames look like, the others stress dense blocks.
func contentFrame(rng *rand.Rand, class, w, h int) *img.Frame {
	f := img.NewFrame(w, h)
	switch class {
	case 0: // noise
		rng.Read(f.Pix)
	case 1: // gradient
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				f.Set(x, y, byte(x*255/w), byte(y*255/h), byte((x+y)*255/(w+h)))
			}
		}
	case 2: // blank with one blob
		cx, cy, r := rng.Intn(w), rng.Intn(h), 2+rng.Intn(12)
		for y := max(0, cy-r); y < min(h, cy+r); y++ {
			for x := max(0, cx-r); x < min(w, cx+r); x++ {
				if d2 := (x-cx)*(x-cx) + (y-cy)*(y-cy); d2 < r*r {
					v := byte(255 - 255*d2/(r*r))
					f.Set(x, y, v, v/2, 255-v)
				}
			}
		}
	case 3: // sparse dots on a coloured ground
		for i := 0; i < len(f.Pix); i += 3 {
			f.Pix[i], f.Pix[i+1], f.Pix[i+2] = 20, 40, 90
		}
		for i := 0; i < 1+w*h/50; i++ {
			f.Set(rng.Intn(w), rng.Intn(h), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
	default: // rendered style
		return testFrame(w, h)
	}
	return f
}

// sampling is the (h,v) factors of Y, Cb and Cr.
type sampling [3][2]int

// encodeSampled is a minimal baseline encoder for any sampling layout:
// point-sampled components, the standard tables, optional restarts. It
// exists to put layouts the real encoder never emits in front of the
// decoder.
func encodeSampled(f *img.Frame, quality int, s sampling, restartInterval int) []byte {
	lumaQ := scaleQuant(&baseLumaQuant, quality)
	chromaQ := scaleQuant(&baseChromaQuant, quality)
	out := []byte{0xff, 0xd8}
	out = appendDQT(out, 0, &lumaQ)
	out = appendDQT(out, 1, &chromaQ)
	out = appendMarker(out, 0xc0, []byte{
		8, byte(f.H >> 8), byte(f.H), byte(f.W >> 8), byte(f.W), 3,
		1, byte(s[0][0]<<4 | s[0][1]), 0,
		2, byte(s[1][0]<<4 | s[1][1]), 1,
		3, byte(s[2][0]<<4 | s[2][1]), 1,
	})
	out = appendDHT(out, 0, 0, dcLumaSpec)
	out = appendDHT(out, 1, 0, acLumaSpec)
	out = appendDHT(out, 0, 1, dcChromaSpec)
	out = appendDHT(out, 1, 1, acChromaSpec)
	if restartInterval > 0 {
		out = appendMarker(out, 0xdd, []byte{byte(restartInterval >> 8), byte(restartInterval)})
	}
	out = appendSOS(out)

	maxH, maxV := 1, 1
	for _, c := range s {
		maxH, maxV = max(maxH, c[0]), max(maxV, c[1])
	}
	bs := &bitstream{buf: out}
	var pred [3]int
	mcu, rst := 0, 0
	for my := 0; my*8*maxV < f.H; my++ {
		for mx := 0; mx*8*maxH < f.W; mx++ {
			if restartInterval > 0 && mcu > 0 && mcu%restartInterval == 0 {
				bs.finish()
				bs.buf = append(bs.buf, 0xff, byte(0xd0+rst))
				rst = (rst + 1) % 8
				pred = [3]int{}
			}
			mcu++
			for ci, c := range s {
				q, dcT, acT := &lumaQ, dcLumaEnc, acLumaEnc
				if ci > 0 {
					q, dcT, acT = &chromaQ, dcChromaEnc, acChromaEnc
				}
				for by := 0; by < c[1]; by++ {
					for bx := 0; bx < c[0]; bx++ {
						var blk [64]float64
						for y := 0; y < 8; y++ {
							for x := 0; x < 8; x++ {
								// Component sample -> the full-resolution pixel it covers.
								px := clampi(((mx*c[0]+bx)*8+x)*maxH/c[0], 0, f.W-1)
								py := clampi(((my*c[1]+by)*8+y)*maxV/c[1], 0, f.H-1)
								var ycc [3]float64
								ycc[0], ycc[1], ycc[2] = rgbToYCbCr(f.At(px, py))
								blk[y*8+x] = ycc[ci] - 128
							}
						}
						pred[ci] = encodeBlock(bs, &blk, q, dcT, acT, pred[ci])
					}
				}
			}
		}
	}
	bs.finish()
	return append(bs.buf, 0xff, 0xd9)
}

var testLayouts = []struct {
	name string
	s    sampling
}{
	{"4:4:4", sampling{{1, 1}, {1, 1}, {1, 1}}},
	{"4:2:2", sampling{{2, 1}, {1, 1}, {1, 1}}},
	{"4:4:0", sampling{{1, 2}, {1, 1}, {1, 1}}},
	{"4:2:0", sampling{{2, 2}, {1, 1}, {1, 1}}},
	// The rest leave the block walk for the per-pixel sample() loop.
	{"4:1:1", sampling{{4, 1}, {1, 1}, {1, 1}}},
	{"chroma over luma", sampling{{1, 1}, {2, 2}, {2, 1}}},
	{"3x3 luma", sampling{{3, 3}, {1, 1}, {1, 3}}},
}

func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 240; i++ {
		w, h := 1+rng.Intn(90), 1+rng.Intn(90)
		class, q, ri := i%5, 1+rng.Intn(100), rng.Intn(9)
		data, err := EncodeRestart(contentFrame(rng, class, w, h), q, ri)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, fmt.Sprintf("frame %d (class %d, %dx%d, q%d, restart %d)", i, class, w, h, q, ri), data)
	}
	for _, l := range testLayouts {
		for i := 0; i < 15; i++ {
			w, h := 1+rng.Intn(90), 1+rng.Intn(90)
			class, q, ri := i%5, 1+rng.Intn(100), rng.Intn(4)
			data := encodeSampled(contentFrame(rng, class, w, h), q, l.s, ri)
			checkAgainstReference(t, fmt.Sprintf("%s frame %d (class %d, %dx%d, q%d, restart %d)", l.name, i, class, w, h, q, ri), data)
		}
	}
	// Streams from an encoder that is not ours.
	for i := 0; i < 10; i++ {
		w, h := 1+rng.Intn(90), 1+rng.Intn(90)
		fr := contentFrame(rng, i%5, w, h)
		var buf bytes.Buffer
		if err := jpeg.Encode(&buf, fr.ToImage(), &jpeg.Options{Quality: 1 + rng.Intn(100)}); err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, fmt.Sprintf("stdlib colour %d (%dx%d)", i, w, h), buf.Bytes())
		gray := image.NewGray(image.Rect(0, 0, w, h))
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				r, g, b := fr.At(x, y)
				gray.Set(x, y, color.RGBA{r, g, b, 255})
			}
		}
		buf.Reset()
		if err := jpeg.Encode(&buf, gray, &jpeg.Options{Quality: 1 + rng.Intn(100)}); err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, fmt.Sprintf("stdlib gray %d (%dx%d)", i, w, h), buf.Bytes())
	}
}

func TestSparseIDCTExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		var want, got [64]float64
		var colMask uint8
		for n := rng.Intn(65); n > 0; n-- {
			i := rng.Intn(64)
			want[i] = float64(rng.Intn(4001) - 2000)
			if want[i] != 0 {
				colMask |= 1 << (i & 7)
			}
		}
		if trial%4 == 0 {
			colMask |= uint8(rng.Intn(256)) // a column may be named and empty
		}
		got = want
		idct2dAccurate(&want)
		idct2dSparse(&got, colMask)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: sample %d = %v (%#x), full IDCT %v (%#x)",
					trial, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// TestHuffLookMatchesWalk checks the 8-bit look-ahead table against the
// bit-by-bit walk for every prefix, over tables that need not be valid
// prefix codes — a DHT is network input.
func TestHuffLookMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		var counts [16]byte
		total := 0
		for l := range counts {
			switch trial % 3 {
			case 0: // sparse, mostly valid
				counts[l] = byte(rng.Intn(3))
			case 1: // oversubscribed
				counts[l] = byte(rng.Intn(40))
			default: // at most as many codes as the length can spell
				counts[l] = byte(rng.Intn(min(1<<l, 8) + 1))
			}
			total += int(counts[l])
		}
		vals := make([]byte, total)
		rng.Read(vals)
		var h decHuff
		h.build(counts, vals)
		ref := refBuildHuff(counts, vals)
		for p := 0; p < 256; p++ {
			src := []byte{byte(p), 0x00, 0x12, 0x34}
			if p == 0xff {
				src = []byte{0xff, 0x00, 0x00, 0x12, 0x34}
			}
			r := &refScanReader{src: src}
			sym, err := r.decodeSym(ref)
			used := uint(0)
			if err == nil {
				used = 8*uint(r.pos) - r.nAcc
				if p == 0xff {
					used -= 8 // the stuffed zero
				}
			}
			e := h.look[p]
			if err != nil || used > 8 {
				if e != 0 {
					t.Fatalf("trial %d prefix %02x: look %04x, walk needs more than 8 bits (err %v)", trial, p, e, err)
				}
				continue
			}
			if e != uint16(sym)<<8|uint16(used) {
				t.Fatalf("trial %d prefix %02x: look %04x, walk sym %02x in %d bits", trial, p, e, sym, used)
			}
		}
	}
}

// TestDecodeErrorsMatchReference: damaged streams must be accepted or
// refused exactly as before, to the pixel — the table look-ups and the
// prefetch may not move the point at which a scan runs dry.
func TestDecodeErrorsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fr := contentFrame(rng, 3, 40, 33)
	var streams [][]byte
	for _, ri := range []int{0, 1, 3} {
		data, err := EncodeRestart(fr, 60, ri)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, data)
	}
	streams = append(streams, encodeSampled(fr, 80, sampling{{1, 1}, {2, 2}, {2, 1}}, 2))
	for si, data := range streams {
		for n := 0; n <= len(data); n++ {
			checkAgainstReference(t, fmt.Sprintf("stream %d prefix %d", si, n), data[:n])
		}
	}
	for i := 0; i < 1500; i++ {
		src := streams[i%len(streams)]
		at := rng.Intn(len(src))
		var data []byte
		switch i % 3 {
		case 0: // replace
			data = append([]byte(nil), src...)
			data[at] = byte(rng.Intn(256))
		case 1: // insert, as garbage ahead of a restart marker would be
			data = append(append(append([]byte(nil), src[:at]...), byte(rng.Intn(256))), src[at:]...)
		default: // delete
			data = append(append([]byte(nil), src[:at]...), src[at+1:]...)
		}
		checkAgainstReference(t, fmt.Sprintf("corruption %d (kind %d at %d of stream %d)", i, i%3, at, i%len(streams)), data)
	}
}

// TestDecodeRejectsUnknownHuffmanTable: table selectors are a nibble
// but there are four tables; 4..15 used to index past the array.
func TestDecodeRejectsUnknownHuffmanTable(t *testing.T) {
	data := mustEncode(t, testFrame(16, 16), 75)
	sos := bytes.Index(data, []byte{0xff, 0xda})
	for _, tabs := range []byte{0x40, 0x04, 0xff} {
		bad := append([]byte(nil), data...)
		bad[sos+6] = tabs // first component's Td/Ta
		if _, err := Decode(bad); !errors.Is(err, ErrFormat) {
			t.Fatalf("table selector %02x: got %v, want ErrFormat", tabs, err)
		}
	}
}

func TestDecodeAllocs(t *testing.T) {
	data := mustEncode(t, pieceFrame(), 75)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	// The frame and its pixels, the band planes, the flat flags.
	if allocs > 8 {
		t.Fatalf("Decode of a 4:2:0 stream allocates %v times, want <= 8", allocs)
	}
}

// pieceFrame is one piece of a rendered frame as the viewer receives
// it: 256x128, blank but for one blob.
func pieceFrame() *img.Frame {
	f := img.NewFrame(256, 128)
	for y := 40; y < 100; y++ {
		for x := 150; x < 220; x++ {
			dx, dy := float64(x-185)/35, float64(y-70)/30
			if r2 := dx*dx + dy*dy; r2 < 1 {
				v := 255 * (1 - r2)
				f.Set(x, y, byte(v), byte(v*math.Abs(math.Sin(6*dx))), byte(v*0.6))
			}
		}
	}
	return f
}

func BenchmarkDecodePiece(b *testing.B) {
	f := pieceFrame()
	data, err := Encode(f, 75)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(f.Pix)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
