package vol

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadDims(t *testing.T) {
	for _, d := range []Dims{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-2, 3, 3}} {
		if _, err := New(d); err == nil {
			t.Errorf("New(%v): want error", d)
		}
	}
}

func TestNewAllocates(t *testing.T) {
	v, err := New(Dims{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(v.Data); got != 60 {
		t.Fatalf("len(Data)=%d want 60", got)
	}
}

func TestFromDataLengthCheck(t *testing.T) {
	if _, err := FromData(Dims{2, 2, 2}, make([]float32, 7)); err == nil {
		t.Fatal("want length mismatch error")
	}
	v, err := FromData(Dims{2, 2, 2}, []float32{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	if v.Min != 1 || v.Max != 8 {
		t.Fatalf("range = [%v,%v], want [1,8]", v.Min, v.Max)
	}
}

func TestIndexRoundTrip(t *testing.T) {
	v := MustNew(Dims{5, 7, 3})
	seen := map[int]bool{}
	for z := 0; z < 3; z++ {
		for y := 0; y < 7; y++ {
			for x := 0; x < 5; x++ {
				i := v.Index(x, y, z)
				if i < 0 || i >= 105 {
					t.Fatalf("index out of range: %d", i)
				}
				if seen[i] {
					t.Fatalf("duplicate index %d for (%d,%d,%d)", i, x, y, z)
				}
				seen[i] = true
			}
		}
	}
}

func TestSetAt(t *testing.T) {
	v := MustNew(Dims{4, 4, 4})
	v.Set(1, 2, 3, 42)
	if got := v.At(1, 2, 3); got != 42 {
		t.Fatalf("At=%v want 42", got)
	}
	if got := v.AtClamped(-5, 2, 3); got != v.At(0, 2, 3) {
		t.Fatalf("AtClamped low clamp failed: %v", got)
	}
	if got := v.AtClamped(1, 2, 99); got != v.At(1, 2, 3) {
		t.Fatalf("AtClamped high clamp failed: %v", got)
	}
}

// whole views all of v, the brick Render samples a volume through.
func whole(v *Volume) *Brick {
	b, err := v.Extract(v.Bounds(), 0)
	if err != nil {
		panic(err)
	}
	return b
}

func TestSampleAtGridPointsIsExact(t *testing.T) {
	v := MustNew(Dims{4, 3, 5})
	v.Fill(func(x, y, z int) float32 { return float32(x*100 + y*10 + z) })
	b := whole(v)
	for z := 0; z < 5; z++ {
		for y := 0; y < 3; y++ {
			for x := 0; x < 4; x++ {
				got := b.Sample(float64(x), float64(y), float64(z))
				want := v.At(x, y, z)
				if math.Abs(float64(got-want)) > 1e-5 {
					t.Fatalf("Sample(%d,%d,%d)=%v want %v", x, y, z, got, want)
				}
			}
		}
	}
}

// Trilinear interpolation of a linear field must reproduce the field
// exactly (up to float rounding) at every interior point.
func TestSampleReproducesLinearField(t *testing.T) {
	v := MustNew(Dims{8, 8, 8})
	f := func(x, y, z float64) float64 { return 2*x - 3*y + 0.5*z + 1 }
	v.Fill(func(x, y, z int) float32 { return float32(f(float64(x), float64(y), float64(z))) })
	b := whole(v)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		x := rng.Float64() * 7
		y := rng.Float64() * 7
		z := rng.Float64() * 7
		got := float64(b.Sample(x, y, z))
		want := f(x, y, z)
		if math.Abs(got-want) > 1e-4 {
			t.Fatalf("Sample(%v,%v,%v)=%v want %v", x, y, z, got, want)
		}
	}
}

func TestSampleClampsOutside(t *testing.T) {
	v := MustNew(Dims{3, 3, 3})
	v.Fill(func(x, y, z int) float32 { return float32(x) })
	if got := whole(v).Sample(-10, 1, 1); got != 0 {
		t.Fatalf("low clamp: %v", got)
	}
	if got := whole(v).Sample(50, 1, 1); got != 2 {
		t.Fatalf("high clamp: %v", got)
	}
}

func TestGradientOfLinearField(t *testing.T) {
	v := MustNew(Dims{10, 10, 10})
	v.Fill(func(x, y, z int) float32 { return float32(3*x - 2*y + 5*z) })
	gx, gy, gz := whole(v).Gradient(4.5, 4.5, 4.5)
	if math.Abs(float64(gx)-3) > 1e-4 || math.Abs(float64(gy)+2) > 1e-4 || math.Abs(float64(gz)-5) > 1e-4 {
		t.Fatalf("gradient = (%v,%v,%v), want (3,-2,5)", gx, gy, gz)
	}
}

func TestNormalize(t *testing.T) {
	v := MustNew(Dims{2, 1, 1})
	v.Data[0], v.Data[1] = 10, 30
	v.UpdateRange()
	cases := []struct{ in, want float32 }{{10, 0}, {30, 1}, {20, 0.5}, {-5, 0}, {100, 1}}
	for _, c := range cases {
		if got := v.Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%v)=%v want %v", c.in, got, c.want)
		}
	}
	// Degenerate range.
	v.Data[1] = 10
	v.UpdateRange()
	if got := v.Normalize(10); got != 0 {
		t.Errorf("degenerate Normalize = %v, want 0", got)
	}
}

func TestCloneAndEqual(t *testing.T) {
	v := MustNew(Dims{4, 4, 4})
	v.Fill(func(x, y, z int) float32 { return float32(x + y*z) })
	c := v.Clone()
	if !v.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Data[10] += 1
	if v.Equal(c) {
		t.Fatal("mutated clone still equal")
	}
	o := MustNew(Dims{4, 4, 2})
	if v.Equal(o) {
		t.Fatal("different dims reported equal")
	}
}

func TestBoxIntersect(t *testing.T) {
	a := Box{0, 0, 0, 10, 10, 10}
	b := Box{5, 5, 5, 20, 20, 20}
	got := a.Intersect(b)
	want := Box{5, 5, 5, 10, 10, 10}
	if got != want {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	c := Box{10, 0, 0, 12, 10, 10} // touching, no overlap
	if !a.Intersect(c).Empty() {
		t.Fatal("touching boxes should not intersect")
	}
}

func TestBoxContains(t *testing.T) {
	b := Box{1, 1, 1, 3, 3, 3}
	if !b.Contains(1, 1, 1) || !b.Contains(2, 2, 2) {
		t.Fatal("Contains false negative")
	}
	if b.Contains(3, 2, 2) || b.Contains(0, 2, 2) {
		t.Fatal("Contains false positive")
	}
}

// SplitKD must produce exactly n disjoint boxes that tile the volume.
func TestSplitKDTilesExactly(t *testing.T) {
	for _, tc := range []struct {
		d Dims
		n int
	}{
		{Dims{16, 16, 16}, 1},
		{Dims{16, 16, 16}, 2},
		{Dims{16, 16, 16}, 7},
		{Dims{16, 16, 16}, 8},
		{Dims{16, 16, 16}, 64},
		{Dims{129, 129, 104}, 16},
		{Dims{129, 129, 104}, 32},
		{Dims{5, 3, 2}, 6},
		{Dims{100, 1, 1}, 10},
	} {
		boxes, err := SplitKD(tc.d, tc.n)
		if err != nil {
			t.Fatalf("SplitKD(%v,%d): %v", tc.d, tc.n, err)
		}
		if len(boxes) != tc.n {
			t.Fatalf("SplitKD(%v,%d): got %d boxes", tc.d, tc.n, len(boxes))
		}
		total := 0
		for i, b := range boxes {
			if b.Empty() {
				t.Fatalf("box %d empty: %v", i, b)
			}
			total += b.Count()
			for j := i + 1; j < len(boxes); j++ {
				if !b.Intersect(boxes[j]).Empty() {
					t.Fatalf("boxes %d and %d overlap: %v %v", i, j, b, boxes[j])
				}
			}
		}
		if total != tc.d.Count() {
			t.Fatalf("SplitKD(%v,%d): covers %d of %d points", tc.d, tc.n, total, tc.d.Count())
		}
	}
}

func TestSplitKDBalance(t *testing.T) {
	boxes, err := SplitKD(Dims{64, 64, 64}, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := 64 * 64 * 64 / 16
	for _, b := range boxes {
		c := b.Count()
		if c < want/2 || c > want*2 {
			t.Fatalf("imbalanced box %v: %d points, ideal %d", b, c, want)
		}
	}
}

func TestSplitKDErrors(t *testing.T) {
	if _, err := SplitKD(Dims{2, 2, 2}, 0); err == nil {
		t.Fatal("want error for n=0")
	}
	if _, err := SplitKD(Dims{2, 2, 2}, 9); err == nil {
		t.Fatal("want error for n > point count")
	}
}

func TestExtractWithGhost(t *testing.T) {
	v := MustNew(Dims{8, 8, 8})
	v.Fill(func(x, y, z int) float32 { return float32(v.Index(x, y, z)) })
	br, err := v.Extract(Box{2, 2, 2, 6, 6, 6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if br.Dims != (Dims{6, 6, 6}) {
		t.Fatalf("ghosted dims = %v, want 6x6x6", br.Dims)
	}
	if br.Origin != [3]int{1, 1, 1} {
		t.Fatalf("origin = %v", br.Origin)
	}
	// Brick sampling in parent coordinates matches the parent volume.
	for _, p := range [][3]float64{{2, 2, 2}, {3.5, 4.2, 5.9}, {5.99, 2.01, 3}} {
		got := br.Sample(p[0], p[1], p[2])
		want := whole(v).Sample(p[0], p[1], p[2])
		if math.Abs(float64(got-want)) > 1e-4 {
			t.Fatalf("brick sample at %v = %v, parent %v", p, got, want)
		}
	}
}

func TestExtractClampsAtVolumeEdge(t *testing.T) {
	v := MustNew(Dims{4, 4, 4})
	v.Fill(func(x, y, z int) float32 { return 1 })
	br, err := v.Extract(Box{0, 0, 0, 2, 2, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if br.Origin != [3]int{0, 0, 0} {
		t.Fatalf("origin = %v, want 0,0,0", br.Origin)
	}
	if br.Dims != (Dims{4, 4, 4}) {
		t.Fatalf("dims = %v", br.Dims)
	}
}

func TestExtractEmptyRegion(t *testing.T) {
	v := MustNew(Dims{4, 4, 4})
	if _, err := v.Extract(Box{5, 5, 5, 9, 9, 9}, 0); err == nil {
		t.Fatal("want error for out-of-volume region")
	}
}

func TestBrickNormalizeUsesParentRange(t *testing.T) {
	v := MustNew(Dims{4, 4, 4})
	v.Fill(func(x, y, z int) float32 { return float32(x) }) // range [0,3]
	br, err := v.Extract(Box{0, 0, 0, 2, 4, 4}, 0)          // local range [0,1]
	if err != nil {
		t.Fatal(err)
	}
	if got := br.Normalize(3); got != 1 {
		t.Fatalf("Normalize(3)=%v, want 1 (parent range)", got)
	}
	if got := br.Normalize(1.5); got != 0.5 {
		t.Fatalf("Normalize(1.5)=%v, want 0.5", got)
	}
}

// Property: for random dims and split counts, SplitKD tiles exactly.
func TestSplitKDProperty(t *testing.T) {
	f := func(a, b, c uint8, n uint8) bool {
		d := Dims{int(a%30) + 2, int(b%30) + 2, int(c%30) + 2}
		k := int(n%16) + 1
		boxes, err := SplitKD(d, k)
		if err != nil {
			return false
		}
		total := 0
		for _, bx := range boxes {
			if bx.Empty() {
				return false
			}
			total += bx.Count()
		}
		return total == d.Count() && len(boxes) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Sample never exceeds the data range (interpolation is a
// convex combination).
func TestSampleWithinRangeProperty(t *testing.T) {
	v := MustNew(Dims{9, 9, 9})
	rng := rand.New(rand.NewSource(7))
	v.Fill(func(x, y, z int) float32 { return rng.Float32()*200 - 100 })
	b := whole(v)
	f := func(xr, yr, zr uint16) bool {
		x := float64(xr) / 65535 * 8
		y := float64(yr) / 65535 * 8
		z := float64(zr) / 65535 * 8
		s := b.Sample(x, y, z)
		return s >= v.Min-1e-3 && s <= v.Max+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSample(b *testing.B) {
	v := MustNew(Dims{64, 64, 64})
	v.Fill(func(x, y, z int) float32 { return float32(x ^ y ^ z) })
	br := whole(v)
	b.ReportAllocs()
	var s float32
	for i := 0; i < b.N; i++ {
		s += br.Sample(31.3, 17.8, 42.1)
	}
	_ = s
}

func BenchmarkGradient(b *testing.B) {
	v := MustNew(Dims{64, 64, 64})
	v.Fill(func(x, y, z int) float32 { return float32(x ^ y ^ z) })
	br := whole(v)
	b.ReportAllocs()
	var s float32
	for i := 0; i < b.N; i++ {
		gx, gy, gz := br.Gradient(31.3, 17.8, 42.1)
		s += gx + gy + gz
	}
	_ = s
}
