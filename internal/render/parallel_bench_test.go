package render

import (
	"fmt"
	"testing"

	"repro/internal/accel"
	"repro/internal/datagen"
	"repro/internal/img"
	"repro/internal/tf"
	"repro/internal/vol"
)

func testVolumeB(b *testing.B) *vol.Volume {
	b.Helper()
	g := datagen.NewJetScaled(0.25, 3)
	v, err := g.Step(1)
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// BenchmarkRenderWorkers measures the tile-parallel ray caster at
// several worker counts — the one place worker scaling is measured.
func BenchmarkRenderWorkers(b *testing.B) {
	v := testVolumeB(b)
	cam, err := NewOrbitCamera(v.Dims, 0.6, 0.35, 1.5)
	if err != nil {
		b.Fatal(err)
	}
	wb := wholeBrick(b, v)
	const size = 128
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := DefaultOptions()
			opt.Workers = workers
			dst := img.NewRGBA(size, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RenderRegion(wb, v.Bounds(), cam, tf.Jet(), opt, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRenderPooledFrame measures the full pooled frame path:
// render into a reused RGBA, quantize into a pooled Frame, recycle.
func BenchmarkRenderPooledFrame(b *testing.B) {
	v := testVolumeB(b)
	cam, err := NewOrbitCamera(v.Dims, 0.6, 0.35, 1.5)
	if err != nil {
		b.Fatal(err)
	}
	wb := wholeBrick(b, v)
	const size = 128
	opt := DefaultOptions()
	opt.Workers = 1
	dst := img.NewRGBA(size, size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RenderRegion(wb, v.Bounds(), cam, tf.Jet(), opt, dst); err != nil {
			b.Fatal(err)
		}
		f := dst.ToFrameInto(img.GetFrameRaw(size, size), 0)
		img.PutFrame(f)
	}
}

// BenchmarkRenderBrickGrid renders one rank's brick of the sparse jet
// the way the pipeline does — grid built per brick, clip and screen
// rectangle applied — against the grid-less caster on the same brick.
func BenchmarkRenderBrickGrid(b *testing.B) {
	v := testVolumeB(b)
	cam, err := NewOrbitCamera(v.Dims, 0.6, 0.35, 1.5)
	if err != nil {
		b.Fatal(err)
	}
	boxes, err := vol.SplitKD(v.Dims, 4)
	if err != nil {
		b.Fatal(err)
	}
	br, err := v.Extract(boxes[0], 2)
	if err != nil {
		b.Fatal(err)
	}
	grid, err := accel.Build(br, 0)
	if err != nil {
		b.Fatal(err)
	}
	const size = 256
	for _, useGrid := range []bool{false, true} {
		b.Run(fmt.Sprintf("grid=%v", useGrid), func(b *testing.B) {
			opt := DefaultOptions()
			opt.Workers = 1
			if useGrid {
				opt.Accel = grid
			}
			dst := img.NewRGBA(size, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RenderRegion(br, br.Region, cam, tf.Jet(), opt, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
