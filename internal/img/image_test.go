package img

import (
	"math"
	"math/rand"
	"os"
	"testing"
	"testing/quick"
)

func TestRGBASetAt(t *testing.T) {
	im := NewRGBA(4, 3)
	im.Set(2, 1, 0.1, 0.2, 0.3, 0.4)
	r, g, b, a := im.At(2, 1)
	if r != 0.1 || g != 0.2 || b != 0.3 || a != 0.4 {
		t.Fatalf("got %v %v %v %v", r, g, b, a)
	}
}

func TestOverPixelOpaqueFrontWins(t *testing.T) {
	dst := []float32{0.5, 0.25, 0, 1} // opaque front
	src := []float32{1, 1, 1, 1}
	OverPixel(dst, src)
	if dst[0] != 0.5 || dst[3] != 1 {
		t.Fatalf("opaque front changed: %v", dst)
	}
}

func TestOverPixelTransparentFrontPassesBack(t *testing.T) {
	dst := []float32{0, 0, 0, 0}
	src := []float32{0.3, 0.6, 0.9, 0.5}
	OverPixel(dst, src)
	if dst[0] != 0.3 || dst[1] != 0.6 || dst[2] != 0.9 || dst[3] != 0.5 {
		t.Fatalf("transparent front did not pass back: %v", dst)
	}
}

// The over operator must be associative: (a over b) over c == a over (b over c).
func TestOverAssociativityProperty(t *testing.T) {
	f := func(av, bv, cv [4]uint8) bool {
		mk := func(v [4]uint8) []float32 {
			a := float32(v[3]) / 255
			// Premultiplied: color channels cannot exceed alpha.
			return []float32{float32(v[0]) / 255 * a, float32(v[1]) / 255 * a, float32(v[2]) / 255 * a, a}
		}
		a1, b1, c1 := mk(av), mk(bv), mk(cv)
		a2 := append([]float32(nil), a1...)
		b2 := append([]float32(nil), b1...)
		c2 := append([]float32(nil), c1...)

		// Left: (a over b) over c.
		OverPixel(a1, b1)
		OverPixel(a1, c1)
		// Right: a over (b over c).
		OverPixel(b2, c2)
		OverPixel(a2, b2)
		for i := 0; i < 4; i++ {
			if math.Abs(float64(a1[i]-a2[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOverImageSizeMismatch(t *testing.T) {
	if err := NewRGBA(2, 2).Over(NewRGBA(3, 2)); err == nil {
		t.Fatal("want size mismatch error")
	}
}

func TestToFrameBackgroundBlend(t *testing.T) {
	im := NewRGBA(1, 1)
	im.Set(0, 0, 0, 0, 0, 0) // fully transparent
	f := im.ToFrame(1.0)     // white background
	r, g, b := f.At(0, 0)
	if r != 255 || g != 255 || b != 255 {
		t.Fatalf("transparent over white = %d,%d,%d", r, g, b)
	}
	im.Set(0, 0, 0.5, 0.5, 0.5, 1) // opaque gray
	f = im.ToFrame(0)
	r, _, _ = f.At(0, 0)
	if r != 128 {
		t.Fatalf("opaque 0.5 quantized to %d, want 128", r)
	}
}

func TestQuantizeClamps(t *testing.T) {
	if quantize(-1) != 0 || quantize(2) != 255 || quantize(0) != 0 || quantize(1) != 255 {
		t.Fatal("quantize clamp failure")
	}
}

func TestSubFrameBlitRoundTrip(t *testing.T) {
	f := NewFrame(16, 12)
	rng := rand.New(rand.NewSource(3))
	for i := range f.Pix {
		f.Pix[i] = byte(rng.Intn(256))
	}
	r := Region{3, 2, 11, 9}
	sub, err := f.SubFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if sub.W != 8 || sub.H != 7 {
		t.Fatalf("sub dims %dx%d", sub.W, sub.H)
	}
	g := NewFrame(16, 12)
	if err := g.Blit(sub, r); err != nil {
		t.Fatal(err)
	}
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			ar, ag, ab := f.At(x, y)
			br, bg, bb := g.At(x, y)
			if ar != br || ag != bg || ab != bb {
				t.Fatalf("pixel (%d,%d) mismatch", x, y)
			}
		}
	}
}

func TestSubFrameErrors(t *testing.T) {
	f := NewFrame(4, 4)
	if _, err := f.SubFrame(Region{0, 0, 5, 4}); err == nil {
		t.Fatal("want out-of-bounds error")
	}
	if _, err := f.SubFrame(Region{2, 2, 2, 4}); err == nil {
		t.Fatal("want empty-region error")
	}
}

func TestBlitErrors(t *testing.T) {
	f := NewFrame(4, 4)
	if err := f.Blit(NewFrame(2, 2), Region{0, 0, 3, 3}); err == nil {
		t.Fatal("want size mismatch error")
	}
	if err := f.Blit(NewFrame(2, 2), Region{3, 3, 5, 5}); err == nil {
		t.Fatal("want out-of-bounds error")
	}
}

func TestSplitRowsTiling(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16} {
		regs, err := SplitRows(64, 37, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != n {
			t.Fatalf("got %d regions", len(regs))
		}
		total := 0
		prevY1 := 0
		for _, r := range regs {
			if r.Empty() {
				t.Fatalf("empty band %v with n=%d", r, n)
			}
			if r.Y0 != prevY1 {
				t.Fatalf("gap/overlap at %v", r)
			}
			prevY1 = r.Y1
			total += r.Pixels()
		}
		if total != 64*37 {
			t.Fatalf("bands cover %d pixels, want %d", total, 64*37)
		}
	}
	if _, err := SplitRows(10, 4, 5); err == nil {
		t.Fatal("want error when n > rows")
	}
}

func TestMSEPSNR(t *testing.T) {
	a := NewFrame(4, 4)
	b := NewFrame(4, 4)
	mse, err := MSE(a, b)
	if err != nil || mse != 0 {
		t.Fatalf("identical MSE = %v, %v", mse, err)
	}
	p, err := PSNR(a, b)
	if err != nil || !math.IsInf(p, 1) {
		t.Fatalf("identical PSNR = %v, %v", p, err)
	}
	b.Pix[0] = 255
	mse, _ = MSE(a, b)
	want := 255.0 * 255.0 / float64(len(a.Pix))
	if math.Abs(mse-want) > 1e-9 {
		t.Fatalf("MSE = %v, want %v", mse, want)
	}
	if _, err := MSE(a, NewFrame(2, 2)); err == nil {
		t.Fatal("want size mismatch")
	}
}

func TestImageRoundTrip(t *testing.T) {
	f := NewFrame(6, 4)
	rng := rand.New(rand.NewSource(9))
	for i := range f.Pix {
		f.Pix[i] = byte(rng.Intn(256))
	}
	g := FromImage(f.ToImage())
	if !g.Equal(f) {
		t.Fatal("image conversion round trip mismatch")
	}
}

func BenchmarkOverImage(b *testing.B) {
	front := NewRGBA(256, 256)
	back := NewRGBA(256, 256)
	for i := range front.Pix {
		front.Pix[i] = 0.25
		back.Pix[i] = 0.5
	}
	b.SetBytes(int64(len(front.Pix) * 4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := front.Over(back); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRGBAClone(t *testing.T) {
	im := NewRGBA(3, 3)
	im.Set(1, 1, 0.5, 0.5, 0.5, 1)
	c := im.Clone()
	im.Set(1, 1, 0, 0, 0, 0)
	if _, _, _, a := c.At(1, 1); a != 1 {
		t.Fatal("clone affected by a write to the original")
	}
}

func TestBlitRGBA(t *testing.T) {
	im := NewRGBA(8, 8)
	for i := range im.Pix {
		im.Pix[i] = float32(i) / float32(len(im.Pix))
	}
	r := Region{2, 2, 6, 5}
	sub := NewRGBA(r.W(), r.H())
	for y := 0; y < sub.H; y++ {
		for x := 0; x < sub.W; x++ {
			cr, cg, cb, ca := im.At(r.X0+x, r.Y0+y)
			sub.Set(x, y, cr, cg, cb, ca)
		}
	}
	dst := NewRGBA(8, 8)
	if err := dst.BlitRGBA(sub, r); err != nil {
		t.Fatal(err)
	}
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			ar, _, _, _ := im.At(x, y)
			br, _, _, _ := dst.At(x, y)
			if ar != br {
				t.Fatalf("mismatch at (%d,%d)", x, y)
			}
		}
	}
	// Error paths.
	if err := dst.BlitRGBA(sub, Region{0, 0, 1, 1}); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if err := dst.BlitRGBA(sub, Region{6, 6, 10, 9}); err == nil {
		t.Fatal("oob blit accepted")
	}
}

func TestSplitRegion(t *testing.T) {
	lo, hi := SplitRegion(Region{0, 0, 10, 4}) // wide: split columns
	if lo.X1 != 5 || hi.X0 != 5 || lo.Y1 != 4 {
		t.Fatalf("wide split %v %v", lo, hi)
	}
	lo, hi = SplitRegion(Region{0, 0, 4, 10}) // tall: split rows
	if lo.Y1 != 5 || hi.Y0 != 5 {
		t.Fatalf("tall split %v %v", lo, hi)
	}
	// Halves tile the region.
	if lo.Pixels()+hi.Pixels() != 40 {
		t.Fatal("split does not tile")
	}
}

func TestRegionIntersectUnion(t *testing.T) {
	a, b := Region{0, 0, 10, 4}, Region{6, 2, 12, 9}
	if got := a.Intersect(b); got != (Region{6, 2, 10, 4}) {
		t.Fatalf("intersect %v", got)
	}
	if got := a.Intersect(Region{10, 0, 12, 4}); got != (Region{}) {
		t.Fatalf("touching regions intersect in %v, want the zero region", got)
	}
	if got := a.Union(b); got != (Region{0, 0, 12, 9}) {
		t.Fatalf("union %v", got)
	}
	// Empty regions add nothing, wherever they sit.
	if got := a.Union(Region{20, 20, 20, 30}); got != a {
		t.Fatalf("union with empty %v", got)
	}
	if got := (Region{}).Union(b); got != b {
		t.Fatalf("empty union %v", got)
	}
}

func TestSavePNGAndRegionString(t *testing.T) {
	f := NewFrame(4, 4)
	path := t.TempDir() + "/x.png"
	if err := f.SavePNG(path); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil || st.Size() == 0 {
		t.Fatalf("png not written: %v", err)
	}
	if (Region{1, 2, 3, 4}).String() == "" {
		t.Fatal("empty region string")
	}
	if (Region{}).Pixels() != 0 {
		t.Fatal("empty region pixels")
	}
}
