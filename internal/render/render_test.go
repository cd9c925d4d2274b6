package render

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/accel"
	"repro/internal/datagen"
	"repro/internal/img"
	"repro/internal/tf"
	"repro/internal/vol"
)

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if got := a.Add(b); got != (Vec3{5, 7, 9}) {
		t.Fatalf("Add = %v", got)
	}
	if got := b.Sub(a); got != (Vec3{3, 3, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	if got := (Vec3{1, 0, 0}).Cross(Vec3{0, 1, 0}); got != (Vec3{0, 0, 1}) {
		t.Fatalf("Cross = %v", got)
	}
	if n := (Vec3{3, 4, 0}).Norm(); n != 5 {
		t.Fatalf("Norm = %v", n)
	}
	u := (Vec3{0, 0, 7}).Normalized()
	if u != (Vec3{0, 0, 1}) {
		t.Fatalf("Normalized = %v", u)
	}
	if z := (Vec3{}).Normalized(); z != (Vec3{}) {
		t.Fatalf("zero Normalized = %v", z)
	}
}

func TestCameraFinishErrors(t *testing.T) {
	c := &Camera{Eye: Vec3{1, 1, 1}, Center: Vec3{1, 1, 1}, Up: Vec3{0, 0, 1}, FovY: 1}
	if err := c.Finish(); err == nil {
		t.Fatal("want eye==center error")
	}
	c = &Camera{Eye: Vec3{0, 0, 0}, Center: Vec3{1, 0, 0}, Up: Vec3{1, 0, 0}, FovY: 1}
	if err := c.Finish(); err == nil {
		t.Fatal("want up-parallel error")
	}
	c = &Camera{Eye: Vec3{0, 0, 0}, Center: Vec3{1, 0, 0}, Up: Vec3{0, 0, 1}, FovY: 0}
	if err := c.Finish(); err == nil {
		t.Fatal("want fov error")
	}
}

func TestOrbitCameraLooksAtCenter(t *testing.T) {
	d := vol.Dims{NX: 64, NY: 64, NZ: 64}
	for _, az := range []float64{0, 1, 2.5} {
		for _, el := range []float64{-1.2, 0, 0.9, math.Pi / 2} {
			c, err := NewOrbitCamera(d, az, el, 2)
			if err != nil {
				t.Fatalf("az=%v el=%v: %v", az, el, err)
			}
			// The central ray must point from eye toward the volume center.
			orig, dir := c.Ray(127, 127, 256, 256)
			toCenter := c.Center.Sub(orig).Normalized()
			if dir.Dot(toCenter) < 0.99 {
				t.Fatalf("az=%v el=%v: central ray off target (dot=%v)", az, el, dir.Dot(toCenter))
			}
		}
	}
}

func TestRayDirectionsUnit(t *testing.T) {
	c, err := NewOrbitCamera(vol.Dims{NX: 32, NY: 32, NZ: 32}, 0.3, 0.4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]int{{0, 0}, {255, 0}, {0, 255}, {255, 255}, {128, 128}} {
		_, dir := c.Ray(p[0], p[1], 256, 256)
		if math.Abs(dir.Norm()-1) > 1e-12 {
			t.Fatalf("ray at %v not unit: %v", p, dir.Norm())
		}
	}
}

func TestIntersectBox(t *testing.T) {
	b := vol.Box{X0: 0, Y0: 0, Z0: 0, X1: 10, Y1: 10, Z1: 10}
	// Straight through the middle along +x.
	tn, tfar, ok := IntersectBox(Vec3{-5, 5, 5}, Vec3{1, 0, 0}, b)
	if !ok || math.Abs(tn-5) > 1e-12 || math.Abs(tfar-15) > 1e-12 {
		t.Fatalf("got %v %v %v", tn, tfar, ok)
	}
	// Miss.
	if _, _, ok := IntersectBox(Vec3{-5, 20, 5}, Vec3{1, 0, 0}, b); ok {
		t.Fatal("want miss")
	}
	// Ray starting inside: tNear clamps to 0.
	tn, tfar, ok = IntersectBox(Vec3{5, 5, 5}, Vec3{0, 0, 1}, b)
	if !ok || tn != 0 || math.Abs(tfar-5) > 1e-12 {
		t.Fatalf("inside: %v %v %v", tn, tfar, ok)
	}
	// Box behind the eye.
	if _, _, ok := IntersectBox(Vec3{20, 5, 5}, Vec3{1, 0, 0}, b); ok {
		t.Fatal("want miss for box behind eye")
	}
	// Parallel ray outside a slab.
	if _, _, ok := IntersectBox(Vec3{-5, -3, 5}, Vec3{1, 0, 0}, b); ok {
		t.Fatal("want miss for parallel outside")
	}
}

func testVolume(t *testing.T) *vol.Volume {
	t.Helper()
	g := datagen.NewJetScaled(0.25, 3)
	v, err := g.Step(1)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestRenderProducesNonEmptyImage(t *testing.T) {
	v := testVolume(t)
	cam, err := NewOrbitCamera(v.Dims, 0.5, 0.3, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	im, st, err := Render(v, cam, tf.Jet(), DefaultOptions(), 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rays == 0 || st.Samples == 0 || st.Pixels == 0 {
		t.Fatalf("no work done: %+v", st)
	}
	var sum float32
	for _, p := range im.Pix {
		sum += p
	}
	if sum == 0 {
		t.Fatal("image all zero")
	}
}

func TestRenderOptionValidation(t *testing.T) {
	v := testVolume(t)
	cam, _ := NewOrbitCamera(v.Dims, 0, 0, 2)
	if _, _, err := Render(v, cam, tf.Jet(), Options{Step: 0}, 16, 16); err == nil {
		t.Fatal("want step error")
	}
	if _, _, err := Render(v, cam, tf.Jet(), Options{Step: 1, TerminationAlpha: 2}, 16, 16); err == nil {
		t.Fatal("want termination alpha error")
	}
	_, st, err := RenderBrick(mustBrick(t, v, v.Bounds()), cam, tf.Jet(), DefaultOptions(), 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rays == 0 {
		t.Fatal("brick render did no work")
	}
}

// wholeBrick views all of v without ghost cells: what Render samples.
func wholeBrick(t testing.TB, v *vol.Volume) *vol.Brick {
	t.Helper()
	br, err := v.Extract(v.Bounds(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return br
}

func mustBrick(t *testing.T, v *vol.Volume, b vol.Box) *vol.Brick {
	t.Helper()
	br, err := v.Extract(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	return br
}

// The fundamental parallel-rendering invariant: rendering bricks
// separately and compositing the partial images in front-to-back
// order must reproduce the single-volume rendering.
func TestBrickCompositionMatchesWholeRender(t *testing.T) {
	v := testVolume(t)
	cam, err := NewOrbitCamera(v.Dims, 0.7, 0.35, 1.8)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.TerminationAlpha = 1 // disable early termination for exact comparison
	const W, H = 48, 48

	want, _, err := Render(v, cam, tf.Jet(), opt, W, H)
	if err != nil {
		t.Fatal(err)
	}

	boxes, err := vol.SplitKD(v.Dims, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Render each brick into a partial image.
	partials := make([]*img.RGBA, len(boxes))
	for i, b := range boxes {
		br := mustBrick(t, v, b)
		im, _, err := RenderBrick(br, cam, tf.Jet(), opt, W, H)
		if err != nil {
			t.Fatal(err)
		}
		partials[i] = im
	}
	// Composite in per-ray depth order: order boxes by distance from
	// the eye to box center (valid for this convex decomposition and
	// outside eye).
	order := make([]int, len(boxes))
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if distToBox(cam.Eye, boxes[order[j]]) < distToBox(cam.Eye, boxes[order[i]]) {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	got := img.NewRGBA(W, H)
	for _, idx := range order {
		if err := got.Over(partials[idx]); err != nil {
			t.Fatal(err)
		}
	}
	var maxDiff float64
	for i := range got.Pix {
		d := math.Abs(float64(got.Pix[i] - want.Pix[i]))
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 5e-3 {
		t.Fatalf("max channel difference %v between composited bricks and whole render", maxDiff)
	}
}

func distToBox(eye Vec3, b vol.Box) float64 {
	cx, cy, cz := b.Center()
	return eye.Sub(Vec3{cx, cy, cz}).Norm()
}

// Early ray termination must not change the image appreciably but must
// reduce the sample count on opaque data.
func TestEarlyTermination(t *testing.T) {
	v := vol.MustNew(vol.Dims{NX: 32, NY: 32, NZ: 32})
	v.Fill(func(x, y, z int) float32 { return 1 }) // fully opaque volume
	// Opaque transfer function.
	opaque := tf.MustNew([]tf.Point{
		{V: 0, R: 1, G: 1, B: 1, A: 0.9},
		{V: 1, R: 1, G: 1, B: 1, A: 0.9},
	})
	cam, _ := NewOrbitCamera(v.Dims, 0.4, 0.2, 2)
	optFull := DefaultOptions()
	optFull.Shading = false
	optFull.TerminationAlpha = 1
	_, stFull, err := Render(v, cam, opaque, optFull, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	optET := optFull
	optET.TerminationAlpha = 0.98
	imET, stET, err := Render(v, cam, opaque, optET, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if stET.Samples*2 > stFull.Samples {
		t.Fatalf("early termination saved too little: %d vs %d samples", stET.Samples, stFull.Samples)
	}
	// Image still essentially opaque white where the volume projects.
	_, _, _, a := imET.At(16, 16)
	if a < 0.97 {
		t.Fatalf("central pixel alpha %v", a)
	}
}

func TestEmptyRegionError(t *testing.T) {
	v := testVolume(t)
	cam, _ := NewOrbitCamera(v.Dims, 0, 0, 2)
	dst := img.NewRGBA(8, 8)
	if _, err := RenderRegion(wholeBrick(t, v), vol.Box{}, cam, tf.Jet(), DefaultOptions(), dst); err == nil {
		t.Fatal("want empty region error")
	}
}

func TestShadingChangesImage(t *testing.T) {
	v := testVolume(t)
	cam, _ := NewOrbitCamera(v.Dims, 0.5, 0.3, 1.8)
	o1 := DefaultOptions()
	o1.Shading = false
	a, _, err := Render(v, cam, tf.Jet(), o1, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	o2 := o1
	o2.Shading = true
	b, _, err := Render(v, cam, tf.Jet(), o2, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("shading had no effect")
	}
}

// Rendering a transparent (all-zero opacity) volume must produce an
// empty image but still cast rays.
func TestTransparentVolume(t *testing.T) {
	v := vol.MustNew(vol.Dims{NX: 16, NY: 16, NZ: 16})
	v.Fill(func(x, y, z int) float32 { return 0.5 })
	clear := tf.MustNew([]tf.Point{{V: 0, A: 0}, {V: 1, A: 0}})
	cam, _ := NewOrbitCamera(v.Dims, 0.2, 0.2, 2)
	im, st, err := Render(v, cam, clear, DefaultOptions(), 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rays == 0 {
		t.Fatal("no rays cast")
	}
	if st.Pixels != 0 {
		t.Fatal("transparent volume produced pixels")
	}
	for _, p := range im.Pix {
		if p != 0 {
			t.Fatal("nonzero pixel in transparent render")
		}
	}
}

func BenchmarkRender64(b *testing.B) {
	g := datagen.NewJetScaled(0.25, 2)
	v, err := g.Step(1)
	if err != nil {
		b.Fatal(err)
	}
	cam, _ := NewOrbitCamera(v.Dims, 0.5, 0.3, 1.8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Render(v, cam, tf.Jet(), DefaultOptions(), 64, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// Empty-space leaping is conservative: accelerated rendering must be
// bit-identical and must skip a meaningful share of samples on sparse
// data.
func TestAccelIdenticalAndFaster(t *testing.T) {
	v := testVolume(t)
	cam, err := NewOrbitCamera(v.Dims, 0.6, 0.35, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := accel.Build(wholeBrick(t, v), 8)
	if err != nil {
		t.Fatal(err)
	}
	plain := DefaultOptions()
	fast := plain
	fast.Accel = grid
	ref, refStats, err := Render(v, cam, tf.Jet(), plain, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := Render(v, cam, tf.Jet(), fast, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Pix {
		if ref.Pix[i] != got.Pix[i] {
			t.Fatalf("accelerated image differs at %d: %v vs %v", i, got.Pix[i], ref.Pix[i])
		}
	}
	if gotStats.Rays >= refStats.Rays {
		t.Fatalf("accel did not clip rays on a sparse volume: %d vs %d", gotStats.Rays, refStats.Rays)
	}
	if gotStats.Samples >= refStats.Samples {
		t.Fatalf("accel did not reduce samples: %d vs %d", gotStats.Samples, refStats.Samples)
	}
	// On the sparse jet the majority of background samples vanish.
	if gotStats.Samples*2 > refStats.Samples {
		t.Logf("note: accel saved only %d of %d samples", refStats.Samples-gotStats.Samples, refStats.Samples)
	}
}

// Bricks with accel grids must still compose to the whole-volume image.
func TestAccelWithBricks(t *testing.T) {
	v := testVolume(t)
	cam, err := NewOrbitCamera(v.Dims, 0.7, 0.3, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.TerminationAlpha = 1
	const W, H = 40, 40
	want, _, err := Render(v, cam, tf.Jet(), opt, W, H)
	if err != nil {
		t.Fatal(err)
	}
	boxes, err := vol.SplitKD(v.Dims, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := img.NewRGBA(W, H)
	// Composite by center distance (valid for this view).
	type part struct {
		im *img.RGBA
		d  float64
	}
	var parts []part
	for _, b := range boxes {
		br := mustBrick(t, v, b)
		grid, err := accel.Build(br, 8)
		if err != nil {
			t.Fatal(err)
		}
		o := opt
		o.Accel = grid
		im := img.NewRGBA(W, H)
		if _, err := RenderRegion(br, br.Region, cam, tf.Jet(), o, im); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part{im, distToBox(cam.Eye, b)})
	}
	for i := 0; i < len(parts); i++ {
		for j := i + 1; j < len(parts); j++ {
			if parts[j].d < parts[i].d {
				parts[i], parts[j] = parts[j], parts[i]
			}
		}
	}
	for _, p := range parts {
		if err := got.Over(p.im); err != nil {
			t.Fatal(err)
		}
	}
	var maxDiff float64
	for i := range want.Pix {
		d := math.Abs(float64(want.Pix[i] - got.Pix[i]))
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 5e-3 {
		t.Fatalf("accelerated brick composition differs by %v", maxDiff)
	}
}

// RenderBrickRect renders exactly RenderBrick's pixels, but only
// inside its rectangle; RenderBrick is transparent outside it. Jet is
// sparse (the grid clips most of the frame), vortex dense (the grid is
// dropped and the rectangle is the whole frame).
func TestRenderBrickRectMatchesRenderBrick(t *testing.T) {
	jet := testVolume(t)
	vortex, err := datagen.NewVortexScaled(0.25, 2).Step(1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		v    *vol.Volume
		tf   *tf.TF
		opt  Options
		// sparse cases must clip at least one brick's rectangle.
		sparse bool
	}{
		{"jet", jet, tf.Jet(), DefaultOptions(), true},
		{"vortex", vortex, tf.Vortex(), DefaultOptions(), false},
	}
	const W, H = 53, 47
	frame := img.Region{X1: W, Y1: H}
	for _, c := range cases {
		cam, err := NewOrbitCamera(c.v.Dims, 0.7, 0.35, 1.8)
		if err != nil {
			t.Fatal(err)
		}
		boxes, err := vol.SplitKD(c.v.Dims, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			clipped := false
			for bi, box := range boxes {
				br := mustBrick(t, c.v, box)
				grid, err := accel.Build(br, 0)
				if err != nil {
					t.Fatal(err)
				}
				opt := c.opt
				opt.Workers = workers
				opt.Accel = grid
				full, fullSt, err := RenderBrick(br, cam, c.tf, opt, W, H)
				if err != nil {
					t.Fatal(err)
				}
				rect, part, st, err := RenderBrickRect(br, cam, c.tf, opt, W, H)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("%s workers=%d brick %d rect %v", c.name, workers, bi, rect)
				// RenderBrick is built on RenderBrickRect, so pin it to
				// RenderRegion, which writes a whole frame directly.
				want := img.NewRGBA(W, H)
				if _, err := RenderRegion(br, br.Region, cam, c.tf, opt, want); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(full.Pix, want.Pix) {
					t.Fatalf("%s: RenderBrick differs from RenderRegion", where)
				}
				if st != fullSt {
					t.Fatalf("%s: stats %+v, RenderBrick %+v", where, st, fullSt)
				}
				if rect.Intersect(frame) != rect || part.W != rect.W() || part.H != rect.H() {
					t.Fatalf("%s: image %dx%d does not cover the rectangle inside the frame", where, part.W, part.H)
				}
				if !c.sparse && rect != frame {
					t.Fatalf("%s: want the whole frame", where)
				}
				clipped = clipped || rect != frame
				for y := 0; y < H; y++ {
					for x := 0; x < W; x++ {
						fr, fg, fb, fa := full.At(x, y)
						var r, g, b, a float32
						if x >= rect.X0 && x < rect.X1 && y >= rect.Y0 && y < rect.Y1 {
							r, g, b, a = part.At(x-rect.X0, y-rect.Y0)
						}
						if r != fr || g != fg || b != fb || a != fa {
							t.Fatalf("%s: pixel (%d,%d) = %v %v %v %v, RenderBrick %v %v %v %v", where, x, y, r, g, b, a, fr, fg, fb, fa)
						}
					}
				}
			}
			if c.sparse && !clipped {
				t.Fatalf("%s workers=%d: no brick's rectangle was clipped", c.name, workers)
			}
		}
	}

	// A brick with no active cell casts nothing and covers nothing.
	br := mustBrick(t, jet, jet.Bounds())
	grid, err := accel.Build(br, 0)
	if err != nil {
		t.Fatal(err)
	}
	cam, err := NewOrbitCamera(jet.Dims, 0.7, 0.35, 1.8)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Accel = grid
	clear := tf.MustNew([]tf.Point{{V: 0, A: 0}, {V: 1, A: 0}})
	rect, part, st, err := RenderBrickRect(br, cam, clear, opt, W, H)
	if err != nil {
		t.Fatal(err)
	}
	if !rect.Empty() || len(part.Pix) != 0 || st != (Stats{}) {
		t.Fatalf("all-empty brick: rect %v, %d floats, stats %+v", rect, len(part.Pix), st)
	}
}
