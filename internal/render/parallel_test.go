package render

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/datagen"
	"repro/internal/img"
	"repro/internal/tf"
	"repro/internal/vol"
)

// The tentpole invariant of the multicore engine: the parallel tile
// renderer must be byte-identical to the serial path for every
// supported option combination — shading on/off, with and without
// empty-space acceleration.
func TestParallelGoldenIdentical(t *testing.T) {
	v := testVolume(t)
	cam, err := NewOrbitCamera(v.Dims, 0.6, 0.35, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := accel.Build(wholeBrick(t, v), 8)
	if err != nil {
		t.Fatal(err)
	}
	const W, H = 48, 48
	for _, shading := range []bool{false, true} {
		for _, useAccel := range []bool{false, true} {
			// The caster no longer takes a pixel mask or a mode; the
			// "mode=0" and "mask=false" parts keep the subtest names
			// stable.
			name := fmt.Sprintf("mode=0/shading=%v/accel=%v/mask=false", shading, useAccel)
			t.Run(name, func(t *testing.T) {
				opt := DefaultOptions()
				opt.Shading = shading
				if useAccel {
					opt.Accel = grid
				}
				serial := opt
				serial.Workers = 1
				ref := img.NewRGBA(W, H)
				refSt, err := RenderRegion(wholeBrick(t, v), v.Bounds(), cam, tf.Jet(), serial, ref)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 3, 4, 7} {
					par := opt
					par.Workers = workers
					got := img.NewRGBA(W, H)
					gotSt, err := RenderRegion(wholeBrick(t, v), v.Bounds(), cam, tf.Jet(), par, got)
					if err != nil {
						t.Fatal(err)
					}
					for i := range ref.Pix {
						if ref.Pix[i] != got.Pix[i] {
							t.Fatalf("workers=%d: pixel float %d differs: %v vs %v", workers, i, got.Pix[i], ref.Pix[i])
						}
					}
					if gotSt != refSt {
						t.Fatalf("workers=%d: stats %+v != serial %+v", workers, gotSt, refSt)
					}
				}
			})
		}
	}
}

// Empty-space leaping — per-sample cell skipping, the active-box clip
// and its screen rectangle — must leave every pixel float exactly what
// the grid-less serial caster writes: over orbit views, a camera
// inside the volume (a clip corner behind the eye forces the
// whole-image fallback), ghosted bricks whose grid is larger than the
// region, shading and worker counts.
func TestAccelGoldenIdentical(t *testing.T) {
	v := testVolume(t)
	inside := &Camera{
		Eye:    Vec3{float64(v.Dims.NX) * 0.3, float64(v.Dims.NY) * 0.4, float64(v.Dims.NZ) * 0.5},
		Center: Vec3{float64(v.Dims.NX), float64(v.Dims.NY) * 0.6, float64(v.Dims.NZ) * 0.4},
		Up:     Vec3{0, 0, 1}, FovY: 1.2,
	}
	if err := inside.Finish(); err != nil {
		t.Fatal(err)
	}
	cams := map[string]*Camera{"inside": inside}
	for _, view := range [][2]float64{{0.6, 0.35}, {2.1, -0.4}, {3.9, 1.1}, {5.3, 0}} {
		cam, err := NewOrbitCamera(v.Dims, view[0], view[1], 1.5)
		if err != nil {
			t.Fatal(err)
		}
		cams[fmt.Sprintf("orbit=%v,%v", view[0], view[1])] = cam
	}
	boxes, err := vol.SplitKD(v.Dims, 4)
	if err != nil {
		t.Fatal(err)
	}
	type target struct {
		b      *vol.Brick
		region vol.Box
		grid   *accel.Grid
	}
	whole, err := accel.Build(wholeBrick(t, v), 8)
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]target{"whole": {wholeBrick(t, v), v.Bounds(), whole}}
	for i, b := range boxes {
		br := mustBrick(t, v, b)
		g, err := accel.Build(br, 0)
		if err != nil {
			t.Fatal(err)
		}
		targets[fmt.Sprintf("brick%d", i)] = target{br, br.Region, g}
	}
	const W, H = 48, 40
	for camName, cam := range cams {
		for tgtName, tgt := range targets {
			for _, shading := range []bool{false, true} {
				// "mask=false" keeps the subtest names stable (see
				// TestParallelGoldenIdentical).
				t.Run(fmt.Sprintf("%s/%s/shading=%v/mask=false", camName, tgtName, shading), func(t *testing.T) {
					opt := DefaultOptions()
					opt.Shading = shading
					opt.Workers = 1
					ref := img.NewRGBA(W, H)
					refSt, err := RenderRegion(tgt.b, tgt.region, cam, tf.Jet(), opt, ref)
					if err != nil {
						t.Fatal(err)
					}
					opt.Accel = tgt.grid
					for _, workers := range []int{1, 2, 8} {
						opt.Workers = workers
						got := img.NewRGBA(W, H)
						st, err := RenderRegion(tgt.b, tgt.region, cam, tf.Jet(), opt, got)
						if err != nil {
							t.Fatal(err)
						}
						for i := range ref.Pix {
							if got.Pix[i] != ref.Pix[i] {
								t.Fatalf("workers=%d: pixel float %d differs: %v vs %v", workers, i, got.Pix[i], ref.Pix[i])
							}
						}
						if st.Pixels != refSt.Pixels || st.Samples > refSt.Samples || st.Rays > refSt.Rays {
							t.Fatalf("workers=%d: stats %+v against grid-less %+v", workers, st, refSt)
						}
					}
				})
			}
		}
	}
}

// A brick the transfer function leaves wholly transparent casts no ray
// and writes no pixel.
func TestAccelAllEmptyBrick(t *testing.T) {
	v := vol.MustNew(vol.Dims{NX: 20, NY: 24, NZ: 17})
	grid, err := accel.Build(wholeBrick(t, v), 8)
	if err != nil {
		t.Fatal(err)
	}
	cam, err := NewOrbitCamera(v.Dims, 0.6, 0.35, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	const W, H = 32, 33
	for _, workers := range []int{1, 2, 8} {
		opt := DefaultOptions()
		opt.Accel = grid
		opt.Workers = workers
		dst := img.NewRGBA(W, H)
		for i := range dst.Pix {
			dst.Pix[i] = 0.25
		}
		st, err := RenderRegion(wholeBrick(t, v), v.Bounds(), cam, tf.Jet(), opt, dst)
		if err != nil {
			t.Fatal(err)
		}
		if st != (Stats{}) {
			t.Fatalf("workers=%d: all-empty brick did work: %+v", workers, st)
		}
		for i, p := range dst.Pix {
			if p != 0.25 {
				t.Fatalf("workers=%d: dst float %d touched: %v", workers, i, p)
			}
		}
	}
}

// Dense data — no macrocell the transfer function leaves transparent —
// drops the grid and runs the plain loop: identical work counts, not
// just identical pixels.
func TestAccelDroppedOnDenseVolume(t *testing.T) {
	v, err := datagen.NewVortexScaled(0.25, 2).Step(1)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := accel.Build(wholeBrick(t, v), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, empty := range grid.EmptyMask(tf.Vortex().MaxAlpha) {
		if empty {
			t.Fatal("test volume is not dense under tf.Vortex")
		}
	}
	cam, err := NewOrbitCamera(v.Dims, 0.6, 0.35, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	ref, refSt, err := Render(v, cam, tf.Vortex(), opt, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	opt.Accel = grid
	got, st, err := Render(v, cam, tf.Vortex(), opt, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	if st != refSt || st.Skipped != 0 {
		t.Fatalf("dense volume stats %+v, grid-less %+v", st, refSt)
	}
	for i := range ref.Pix {
		if got.Pix[i] != ref.Pix[i] {
			t.Fatalf("pixel float %d differs", i)
		}
	}
}

// A grid that does not cover the region would let the clip drop
// samples the grid knows nothing about; it is rejected instead.
func TestAccelMustCoverRegion(t *testing.T) {
	v := testVolume(t)
	br := mustBrick(t, v, vol.Box{X1: v.Dims.NX / 2, Y1: v.Dims.NY, Z1: v.Dims.NZ})
	grid, err := accel.Build(br, 0)
	if err != nil {
		t.Fatal(err)
	}
	cam, _ := NewOrbitCamera(v.Dims, 0.6, 0.35, 1.5)
	opt := DefaultOptions()
	opt.Accel = grid
	if _, _, err := Render(v, cam, tf.Jet(), opt, 16, 16); err == nil {
		t.Fatal("want error for a grid smaller than the region")
	}
}

func TestWorkersValidation(t *testing.T) {
	v := testVolume(t)
	cam, _ := NewOrbitCamera(v.Dims, 0.4, 0.3, 1.8)
	opt := DefaultOptions()
	opt.Workers = -1
	if _, _, err := Render(v, cam, tf.Jet(), opt, 16, 16); err == nil {
		t.Fatal("want error for negative workers")
	}
	// Workers 0 clamps to GOMAXPROCS and renders normally.
	opt.Workers = 0
	if _, st, err := Render(v, cam, tf.Jet(), opt, 16, 16); err != nil || st.Rays == 0 {
		t.Fatalf("workers=0 render: %v stats %+v", err, st)
	}
	// More workers than scanlines must not deadlock, drop rows, or
	// diverge from the serial result.
	opt.Workers = 1
	ref, refSt, err := Render(v, cam, tf.Jet(), opt, 24, 8)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 64
	im, st, err := Render(v, cam, tf.Jet(), opt, 24, 8)
	if err != nil || st != refSt {
		t.Fatalf("workers>rows render: %v stats %+v want %+v", err, st, refSt)
	}
	for i := range ref.Pix {
		if im.Pix[i] != ref.Pix[i] {
			t.Fatalf("pixel float %d differs with worker surplus", i)
		}
	}
}

// The tile observer must see every scanline exactly once and observe
// the configured worker count.
func TestTileObserverCoverage(t *testing.T) {
	v := testVolume(t)
	cam, _ := NewOrbitCamera(v.Dims, 0.5, 0.3, 1.6)
	const H = 33
	var mu sync.Mutex
	seen := make([]int, H)
	var dur time.Duration
	SetTileObserver(func(o TileObservation) {
		mu.Lock()
		defer mu.Unlock()
		for y := o.Y0; y < o.Y1; y++ {
			seen[y]++
		}
		dur += o.Duration
	})
	defer SetTileObserver(nil)
	opt := DefaultOptions()
	opt.Workers = 4
	if _, _, err := Render(v, cam, tf.Jet(), opt, 32, H); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for y, n := range seen {
		if n != 1 {
			t.Fatalf("row %d rendered %d times", y, n)
		}
	}
	if dur <= 0 {
		t.Fatal("observer saw no tile durations")
	}
}
