package tf

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRequiresTwoPoints(t *testing.T) {
	if _, err := New([]Point{{V: 0}}); err == nil {
		t.Fatal("want error for 1 point")
	}
	if _, err := New(nil); err == nil {
		t.Fatal("want error for nil")
	}
}

func TestClassifyEndpoints(t *testing.T) {
	g := Grayscale()
	r, _, _, a := g.Classify(0)
	if r != 0 || a != 0 {
		t.Fatalf("Classify(0) = %v,%v", r, a)
	}
	r, _, _, a = g.Classify(1)
	if r != 1 || a != 1 {
		t.Fatalf("Classify(1) = %v,%v", r, a)
	}
}

func TestClassifyMidpointLinear(t *testing.T) {
	g := Grayscale()
	r, gg, b, a := g.Classify(0.5)
	for _, v := range []float32{r, gg, b, a} {
		if math.Abs(float64(v)-0.5) > 2.0/LUTSize {
			t.Fatalf("Classify(0.5) = %v, want ~0.5", v)
		}
	}
}

func TestClassifyClampsInput(t *testing.T) {
	g := Grayscale()
	r0, _, _, _ := g.Classify(-3)
	r1, _, _, _ := g.Classify(7)
	if r0 != 0 || r1 != 1 {
		t.Fatalf("clamp failed: %v %v", r0, r1)
	}
}

func TestUnsortedPointsAreSorted(t *testing.T) {
	u := MustNew([]Point{
		{V: 1, R: 1, G: 1, B: 1, A: 1},
		{V: 0, R: 0, G: 0, B: 0, A: 0},
	})
	r, _, _, _ := u.Classify(1)
	if r != 1 {
		t.Fatalf("sorting failed, Classify(1).R = %v", r)
	}
}

func TestValuesClampedIntoUnit(t *testing.T) {
	u := MustNew([]Point{
		{V: -2, R: -1, G: 2, B: 0.5, A: 3},
		{V: 5, R: 0, G: 0, B: 0, A: 0},
	})
	pts := u.points
	if pts[0].V != 0 || pts[0].R != 0 || pts[0].G != 1 || pts[0].A != 1 {
		t.Fatalf("clamping failed: %+v", pts[0])
	}
	if pts[1].V != 1 {
		t.Fatalf("V clamp failed: %+v", pts[1])
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, name := range []string{"jet", "vortex", "mixing", "gray"} {
		orig, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(orig.Marshal())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		op, gp := orig.points, got.points
		if len(op) != len(gp) {
			t.Fatalf("%s: point count %d != %d", name, len(gp), len(op))
		}
		for i := range op {
			if op[i] != gp[i] {
				t.Fatalf("%s: point %d: %+v != %+v", name, i, gp[i], op[i])
			}
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("want error for empty")
	}
	if _, err := Unmarshal([]byte{1, 0, 0, 0}); err == nil {
		t.Fatal("want error for count 1")
	}
	if _, err := Unmarshal([]byte{2, 0, 0, 0, 1, 2, 3}); err == nil {
		t.Fatal("want error for truncated points")
	}
	// NaN payload.
	tfn := Grayscale()
	b := tfn.Marshal()
	b[4], b[5], b[6], b[7] = 0, 0, 0xc0, 0x7f // NaN little-endian
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("want error for NaN value")
	}
}

func TestPresetUnknown(t *testing.T) {
	if _, err := Preset("nope"); err == nil {
		t.Fatal("want error for unknown preset")
	}
}

// Property: classification output always lies in [0,1]^4 and opacity
// is monotone for the monotone grayscale ramp.
func TestClassifyRangeProperty(t *testing.T) {
	j := Jet()
	f := func(x uint16) bool {
		v := float32(x) / 65535
		r, g, b, a := j.Classify(v)
		for _, c := range []float32{r, g, b, a} {
			if c < 0 || c > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestGrayscaleMonotone(t *testing.T) {
	g := Grayscale()
	prev := float32(-1)
	for i := 0; i <= 100; i++ {
		_, _, _, a := g.Classify(float32(i) / 100)
		if a < prev {
			t.Fatalf("opacity not monotone at %d: %v < %v", i, a, prev)
		}
		prev = a
	}
}

func TestLUTMatchesExactEvaluation(t *testing.T) {
	j := Vortex()
	for i := 0; i <= 200; i++ {
		v := float32(i) / 200
		lr, lg, lb, la := j.Classify(v)
		er, eg, eb, ea := j.evalExact(v)
		tol := float32(2.0 / LUTSize * 4) // LUT quantization error bound
		for k, pair := range [][2]float32{{lr, er}, {lg, eg}, {lb, eb}, {la, ea}} {
			if d := pair[0] - pair[1]; d > tol || d < -tol {
				t.Fatalf("v=%v channel %d: lut %v vs exact %v", v, k, pair[0], pair[1])
			}
		}
	}
}

func BenchmarkClassify(b *testing.B) {
	j := Jet()
	b.ReportAllocs()
	var s float32
	for i := 0; i < b.N; i++ {
		_, _, _, a := j.Classify(float32(i%1000) / 1000)
		s += a
	}
	_ = s
}

func TestMaxAlpha(t *testing.T) {
	// Opacity 0 below 0.5, ramping to 1 above.
	u := MustNew([]Point{
		{V: 0, A: 0},
		{V: 0.5, A: 0},
		{V: 1, A: 1},
	})
	if got := u.MaxAlpha(0, 0.4); got != 0 {
		t.Fatalf("MaxAlpha(0,0.4) = %v, want 0", got)
	}
	if got := u.MaxAlpha(0, 1); got < 0.99 {
		t.Fatalf("MaxAlpha(0,1) = %v, want ~1", got)
	}
	mid := u.MaxAlpha(0.5, 0.75)
	if mid < 0.45 || mid > 0.55 {
		t.Fatalf("MaxAlpha(0.5,0.75) = %v, want ~0.5", mid)
	}
	// Reversed and out-of-range arguments behave.
	if u.MaxAlpha(0.4, 0) != u.MaxAlpha(0, 0.4) {
		t.Fatal("reversed range differs")
	}
	if got := u.MaxAlpha(-5, 0.4); got != 0 {
		t.Fatalf("clamped low = %v", got)
	}
	// Narrow in-block range.
	if got := u.MaxAlpha(0.9, 0.9); got < 0.75 {
		t.Fatalf("point query = %v", got)
	}
}

// MaxAlpha must upper-bound Classify's alpha over the range.
func TestMaxAlphaBoundsClassify(t *testing.T) {
	j := Jet()
	for lo := float32(0); lo < 1; lo += 0.07 {
		for hi := lo; hi <= 1; hi += 0.11 {
			bound := j.MaxAlpha(lo, hi)
			for v := lo; v <= hi; v += 0.005 {
				_, _, _, a := j.Classify(v)
				if a > bound+1e-6 {
					t.Fatalf("Classify(%v).A = %v > MaxAlpha(%v,%v) = %v", v, a, lo, hi, bound)
				}
			}
		}
	}
}
