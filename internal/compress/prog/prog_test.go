package prog

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/img"
)

func renderedStyleFrame(n int) *img.Frame {
	f := img.NewFrame(n, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			dx, dy := float64(x-n/2), float64(y-n/2)
			g := math.Exp(-(dx*dx + dy*dy) / float64(n*n/8))
			f.Set(x, y, byte(float64(x)/float64(n)*255), byte(g*255), byte(float64(y)/float64(n)*255))
		}
	}
	return f
}

func noiseFrame(w, h int, seed int64) *img.Frame {
	rng := rand.New(rand.NewSource(seed))
	f := img.NewFrame(w, h)
	rng.Read(f.Pix)
	return f
}

func TestTransform1DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 33; n++ {
		seg := make([]int32, n)
		for i := range seg {
			seg[i] = int32(rng.Intn(1021) - 510)
		}
		orig := append([]int32(nil), seg...)
		tmp := make([]int32, n)
		fwd1D(seg, tmp)
		inv1D(seg, tmp)
		for i := range seg {
			if seg[i] != orig[i] {
				t.Fatalf("n=%d: index %d: %d != %d", n, i, seg[i], orig[i])
			}
		}
	}
}

func TestFullStreamLossless(t *testing.T) {
	for _, f := range []*img.Frame{
		renderedStyleFrame(129), // odd size
		noiseFrame(64, 64, 2),
		noiseFrame(5, 200, 3), // extreme aspect, few levels
		img.NewFrame(1, 1),
		img.NewFrame(2, 2),
	} {
		data, err := (Codec{}).EncodeFrame(f)
		if err != nil {
			t.Fatalf("encode %dx%d: %v", f.W, f.H, err)
		}
		got, err := (Codec{}).DecodeFrame(data)
		if err != nil {
			t.Fatalf("decode %dx%d: %v", f.W, f.H, err)
		}
		if !got.Equal(f) {
			t.Fatalf("%dx%d: full stream not lossless", f.W, f.H)
		}
	}
}

func TestEncodeBitIdenticalAcrossWorkers(t *testing.T) {
	f := renderedStyleFrame(160)
	ref, err := (Codec{Workers: 1}).EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 8, 16} {
		got, err := (Codec{Workers: workers}).EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref, got) {
			t.Fatalf("workers=%d: encode not bit-identical to serial", workers)
		}
	}
}

func TestTruncatedPrefixesDecodeAndRefine(t *testing.T) {
	f := renderedStyleFrame(128)
	full, err := (Codec{}).EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	si, err := parseStream(full, false)
	if err != nil {
		t.Fatal(err)
	}
	if si.Passes != si.TotalPasses {
		t.Fatalf("full stream has %d of %d passes", si.Passes, si.TotalPasses)
	}
	prevPSNR := 0.0
	for p := 1; p <= si.Passes; p++ {
		prefix, err := Truncate(full, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := (Codec{}).DecodeFrame(prefix)
		if err != nil {
			t.Fatalf("pass %d: %v", p, err)
		}
		if got.W != f.W || got.H != f.H {
			t.Fatalf("pass %d: got %dx%d", p, got.W, got.H)
		}
		psnr, err := img.PSNR(f, got)
		if err != nil {
			t.Fatal(err)
		}
		if p == si.Passes {
			if !got.Equal(f) {
				t.Fatal("final pass not lossless")
			}
		} else if psnr < prevPSNR {
			t.Fatalf("pass %d: PSNR regressed %.1f -> %.1f", p, prevPSNR, psnr)
		}
		prevPSNR = psnr
	}
	// The preview must be usable — a real image, not garbage — and
	// cheap: <= 25% of the full stream.
	preview, _ := Truncate(full, 1)
	got, err := (Codec{}).DecodeFrame(preview)
	if err != nil {
		t.Fatal(err)
	}
	if psnr, _ := img.PSNR(f, got); psnr < 20 {
		t.Fatalf("preview PSNR %.1f too low to be usable", psnr)
	}
	if 4*len(preview) > len(full) {
		t.Fatalf("preview %d bytes > 25%% of full %d", len(preview), len(full))
	}
}

func TestPreviewMatchesTruncatedEncode(t *testing.T) {
	// Encoding with Passes=k must equal truncating the full stream
	// at pass k — the cache and the wire layer rely on this.
	f := renderedStyleFrame(96)
	full, err := (Codec{}).EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	si, _ := parseStream(full, false)
	for p := 1; p < si.Passes; p++ {
		direct, err := (Codec{Passes: p}).EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		cut, err := Truncate(full, p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct, cut) {
			t.Fatalf("pass %d: direct encode != truncated full stream", p)
		}
	}
}

func TestSplitPreviewAndDecoder(t *testing.T) {
	f := renderedStyleFrame(128)
	full, _ := (Codec{}).EncodeFrame(f)
	head, tail, ok := SplitPreview(full)
	if !ok {
		t.Fatal("split failed")
	}
	if len(head)+len(tail) != len(full) {
		t.Fatal("split lost bytes")
	}
	d := NewDecoder()
	preview, err := d.Add(head)
	if err != nil || preview == nil {
		t.Fatalf("preview: %v %v", preview, err)
	}
	if d.Complete() {
		t.Fatal("complete after preview alone")
	}
	final, err := d.Add(tail)
	if err != nil || final == nil {
		t.Fatalf("final: %v %v", final, err)
	}
	if !d.Complete() {
		t.Fatal("not complete after tail")
	}
	if !final.Equal(f) {
		t.Fatal("refined frame not lossless")
	}
	pp, _ := img.PSNR(f, preview)
	fp, _ := img.PSNR(f, final)
	if fp <= pp {
		t.Fatalf("refinement did not improve PSNR: %.1f -> %.1f", pp, fp)
	}

	// Byte-dribbled delivery: feeding tiny chunks must produce the
	// same refinement sequence, never an error.
	d2 := NewDecoder()
	frames := 0
	for i := 0; i < len(full); i += 97 {
		end := i + 97
		if end > len(full) {
			end = len(full)
		}
		fr, err := d2.Add(full[i:end])
		if err != nil {
			t.Fatalf("chunk at %d: %v", i, err)
		}
		if fr != nil {
			frames++
		}
	}
	if !d2.Complete() || frames < 2 {
		t.Fatalf("dribble: complete=%v frames=%d", d2.Complete(), frames)
	}

	// An orphan tail (preview lost upstream) must error, not panic.
	if _, err := NewDecoder().Add(tail); err == nil {
		t.Fatal("orphan tail accepted")
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	f := renderedStyleFrame(64)
	data, _ := (Codec{}).EncodeFrame(f)
	cases := map[string][]byte{
		"empty":       {},
		"short":       data[:6],
		"bad magic":   append([]byte("XXXX"), data[4:]...),
		"header only": data[:headerLen],
		"mid-record":  data[:headerLen+3],
		"cut payload": data[:len(data)-5],
		"extra tail":  append(bytes.Clone(data), 9, 9, 9),
		"huge dims":   {'P', 'G', 'F', '1', 0xff, 0xff, 0xff, 0xff, 4, 5, 0, 0},
		"level overrun": func() []byte {
			d := bytes.Clone(data)
			d[8], d[9] = 200, 201
			return d
		}(),
	}
	for name, d := range cases {
		if _, err := (Codec{}).DecodeFrame(d); err == nil {
			t.Fatalf("%s: decode accepted corrupt stream", name)
		}
	}
}

func FuzzDecodeFrame(f *testing.F) {
	frame := renderedStyleFrame(48)
	seed, err := (Codec{}).EncodeFrame(frame)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	if head, tail, ok := SplitPreview(seed); ok {
		f.Add(head)
		f.Add(tail)
	}
	f.Add([]byte("PGF1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := (Codec{}).DecodeFrame(data)
		if err == nil && out != nil {
			if out.W <= 0 || out.H <= 0 || len(out.Pix) != out.W*out.H*3 {
				t.Fatalf("accepted stream produced malformed frame %dx%d", out.W, out.H)
			}
		}
	})
}

func FuzzDecoderAdd(f *testing.F) {
	frame := renderedStyleFrame(48)
	seed, _ := (Codec{}).EncodeFrame(frame)
	f.Add(seed, 17)
	f.Add(seed, 1)
	f.Fuzz(func(t *testing.T, data []byte, step int) {
		if step <= 0 {
			step = 1
		}
		d := NewDecoder()
		for i := 0; i < len(data); i += step {
			end := i + step
			if end > len(data) {
				end = len(data)
			}
			if _, err := d.Add(data[i:end]); err != nil {
				return // errors are fine; panics are not
			}
		}
	})
}
