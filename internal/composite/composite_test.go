package composite

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/img"
	"repro/internal/render"
	"repro/internal/tf"
	"repro/internal/vol"

	"repro/internal/testutil"
)

func TestVisibilityOrderSimpleSplit(t *testing.T) {
	testutil.CheckGoroutines(t)
	boxes := []vol.Box{
		{X0: 0, Y0: 0, Z0: 0, X1: 5, Y1: 10, Z1: 10},
		{X0: 5, Y0: 0, Z0: 0, X1: 10, Y1: 10, Z1: 10},
	}
	// Eye on the low-x side: box 0 first.
	order, err := VisibilityOrder(boxes, render.Vec3{X: -20, Y: 5, Z: 5})
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != 0 || order[1] != 1 {
		t.Fatalf("order %v", order)
	}
	// Eye on the high-x side: box 1 first.
	order, err = VisibilityOrder(boxes, render.Vec3{X: 30, Y: 5, Z: 5})
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != 1 || order[1] != 0 {
		t.Fatalf("order %v", order)
	}
}

func TestVisibilityOrderKD(t *testing.T) {
	testutil.CheckGoroutines(t)
	boxes, err := vol.SplitKD(vol.Dims{NX: 32, NY: 32, NZ: 32}, 8)
	if err != nil {
		t.Fatal(err)
	}
	eye := render.Vec3{X: -50, Y: -20, Z: 70}
	order, err := VisibilityOrder(boxes, eye)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 8 {
		t.Fatalf("order length %d", len(order))
	}
	// Every index exactly once.
	seen := map[int]bool{}
	for _, i := range order {
		if seen[i] {
			t.Fatalf("duplicate %d in %v", i, order)
		}
		seen[i] = true
	}
	// Distances from the eye must be achievable front-to-back: the
	// first box must be no farther than the last box (necessary
	// condition of a correct visibility order from an outside eye).
	d := func(b vol.Box) float64 {
		cx, cy, cz := b.Center()
		return eye.Sub(render.Vec3{X: cx, Y: cy, Z: cz}).Norm()
	}
	if d(boxes[order[0]]) > d(boxes[order[len(order)-1]]) {
		t.Fatalf("first box farther than last: %v", order)
	}
}

func TestVisibilityOrderRejectsNonBSP(t *testing.T) {
	testutil.CheckGoroutines(t)
	// A pinwheel of 4 boxes in the plane has no separating plane.
	boxes := []vol.Box{
		{X0: 0, Y0: 0, Z0: 0, X1: 6, Y1: 4, Z1: 1},
		{X0: 6, Y0: 0, Z0: 0, X1: 10, Y1: 6, Z1: 1},
		{X0: 4, Y0: 6, Z0: 0, X1: 10, Y1: 10, Z1: 1},
		{X0: 0, Y0: 4, Z0: 0, X1: 4, Y1: 10, Z1: 1},
	}
	if _, err := VisibilityOrder(boxes, render.Vec3{X: -5, Y: -5, Z: 5}); err == nil {
		t.Fatal("want error for pinwheel decomposition")
	}
}

// partialScene is the jet volume, camera and render options the
// compositing tests render their partials with.
func partialScene(t testing.TB) (*vol.Volume, *render.Camera, render.Options) {
	v, err := datagen.NewJetScaled(0.2, 2).Step(1)
	if err != nil {
		t.Fatal(err)
	}
	cam, err := render.NewOrbitCamera(v.Dims, 0.8, 0.4, 1.8)
	if err != nil {
		t.Fatal(err)
	}
	opt := render.DefaultOptions()
	opt.TerminationAlpha = 1
	return v, cam, opt
}

// renderPartials renders one brick per rank and returns the reference
// whole-volume rendering along with the partials.
func renderPartials(t testing.TB, p, w, h int) (ref *img.RGBA, partials []*img.RGBA, boxes []vol.Box, cam *render.Camera) {
	v, cam, opt := partialScene(t)
	ref, _, err := render.Render(v, cam, tf.Jet(), opt, w, h)
	if err != nil {
		t.Fatal(err)
	}
	boxes, err = vol.SplitKD(v.Dims, p)
	if err != nil {
		t.Fatal(err)
	}
	partials = make([]*img.RGBA, p)
	for i, b := range boxes {
		br, err := v.Extract(b, 2)
		if err != nil {
			t.Fatal(err)
		}
		partials[i], _, err = render.RenderBrick(br, cam, tf.Jet(), opt, w, h)
		if err != nil {
			t.Fatal(err)
		}
	}
	return ref, partials, boxes, cam
}

func maxDiff(a, b *img.RGBA) float64 {
	var m float64
	for i := range a.Pix {
		d := math.Abs(float64(a.Pix[i] - b.Pix[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestDirectSendMatchesReference(t *testing.T) {
	testutil.CheckGoroutines(t)
	const P, W, H = 6, 40, 40
	ref, partials, boxes, cam := renderPartials(t, P, W, H)
	var got *img.RGBA
	var mu sync.Mutex
	err := comm.Run(P, func(c *comm.Comm) error {
		out, err := DirectSend(c, partials[c.Rank()], boxes, cam.Eye, 0, 500)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			got = out
			mu.Unlock()
		} else if out != nil {
			return fmt.Errorf("non-root rank got an image")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("no output image")
	}
	if d := maxDiff(ref, got); d > 5e-3 {
		t.Fatalf("direct-send differs from reference by %v", d)
	}
}

func TestBinarySwapMatchesReference(t *testing.T) {
	testutil.CheckGoroutines(t)
	for _, P := range []int{2, 4, 8, 16} {
		P := P
		t.Run(fmt.Sprint(P), func(t *testing.T) {
			const W, H = 40, 40
			ref, partials, boxes, cam := renderPartials(t, P, W, H)
			var got *img.RGBA
			var mu sync.Mutex
			err := comm.Run(P, func(c *comm.Comm) error {
				reg, piece, err := BinarySwap(c, partials[c.Rank()], boxes, cam.Eye, 100)
				if err != nil {
					return err
				}
				out, err := FinalGather(c, reg, piece, W, H, 0, 900)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					mu.Lock()
					got = out
					mu.Unlock()
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got == nil {
				t.Fatal("no output")
			}
			if d := maxDiff(ref, got); d > 5e-3 {
				t.Fatalf("binary-swap differs from reference by %v", d)
			}
		})
	}
}

// Binary-swap and direct-send must agree with each other for many
// viewpoints — the eye position drives the front/back decisions.
func TestBinarySwapManyViewpoints(t *testing.T) {
	testutil.CheckGoroutines(t)
	const P, W, H = 8, 32, 32
	g := datagen.NewVortexScaled(0.15, 2)
	v, err := g.Step(0)
	if err != nil {
		t.Fatal(err)
	}
	boxes, err := vol.SplitKD(v.Dims, P)
	if err != nil {
		t.Fatal(err)
	}
	opt := render.DefaultOptions()
	opt.TerminationAlpha = 1
	opt.Shading = false
	for _, view := range [][2]float64{{0, 0}, {1.2, 0.5}, {3.0, -0.8}, {4.5, 1.3}, {2.2, -1.4}} {
		cam, err := render.NewOrbitCamera(v.Dims, view[0], view[1], 2)
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := render.Render(v, cam, tf.Vortex(), opt, W, H)
		if err != nil {
			t.Fatal(err)
		}
		partials := make([]*img.RGBA, P)
		for i, b := range boxes {
			br, err := v.Extract(b, 2)
			if err != nil {
				t.Fatal(err)
			}
			partials[i], _, err = render.RenderBrick(br, cam, tf.Vortex(), opt, W, H)
			if err != nil {
				t.Fatal(err)
			}
		}
		var got *img.RGBA
		var mu sync.Mutex
		err = comm.Run(P, func(c *comm.Comm) error {
			reg, piece, err := BinarySwap(c, partials[c.Rank()], boxes, cam.Eye, 0)
			if err != nil {
				return err
			}
			out, err := FinalGather(c, reg, piece, W, H, 0, 800)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				mu.Lock()
				got = out
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("view %v: %v", view, err)
		}
		if d := maxDiff(ref, got); d > 5e-3 {
			t.Fatalf("view %v: binary-swap differs by %v", view, d)
		}
	}
}

func TestBinarySwapRejectsNonPowerOfTwo(t *testing.T) {
	testutil.CheckGoroutines(t)
	err := comm.Run(3, func(c *comm.Comm) error {
		_, _, err := BinarySwap(c, img.NewRGBA(8, 8), make([]vol.Box, 3), render.Vec3{}, 0)
		if err == nil {
			return fmt.Errorf("want power-of-two error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBinarySwapRejectsBoxCountMismatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	err := comm.Run(2, func(c *comm.Comm) error {
		_, _, err := BinarySwap(c, img.NewRGBA(8, 8), make([]vol.Box, 3), render.Vec3{}, 0)
		if err == nil {
			return fmt.Errorf("want box count error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The per-rank regions after binary-swap must tile the image.
func TestBinarySwapRegionsTile(t *testing.T) {
	testutil.CheckGoroutines(t)
	const P, W, H = 8, 64, 48
	_, partials, boxes, cam := renderPartials(t, P, W, H)
	regions := make([]img.Region, P)
	err := comm.Run(P, func(c *comm.Comm) error {
		reg, _, err := BinarySwap(c, partials[c.Rank()], boxes, cam.Eye, 0)
		if err != nil {
			return err
		}
		regions[c.Rank()] = reg
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for i, r := range regions {
		if r.Empty() {
			t.Fatalf("rank %d region empty", i)
		}
		covered += r.Pixels()
		for j := i + 1; j < P; j++ {
			o := regions[j]
			if r.X0 < o.X1 && o.X0 < r.X1 && r.Y0 < o.Y1 && o.Y0 < r.Y1 {
				t.Fatalf("regions %d and %d overlap: %v %v", i, j, r, o)
			}
		}
	}
	if covered != W*H {
		t.Fatalf("regions cover %d of %d pixels", covered, W*H)
	}
}

func BenchmarkBinarySwap8(b *testing.B) {
	const P, W, H = 8, 128, 128
	_, partials, boxes, cam := renderPartials(b, P, W, H)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Clone partials: BinarySwap consumes them.
		ps := make([]*img.RGBA, P)
		for j := range ps {
			ps[j] = partials[j].Clone()
		}
		err := comm.Run(P, func(c *comm.Comm) error {
			_, _, err := BinarySwap(c, ps[c.Rank()], boxes, cam.Eye, 0)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: direct-send funnels (P-1) full partial images into the
// root's single incoming link, while binary-swap spreads the exchange
// across all links, with the busiest node receiving only about one
// image's worth. This link-bottleneck relief is why the paper's
// renderer composites with binary-swap [16].
func TestBinarySwapRelievesRootLink(t *testing.T) {
	testutil.CheckGoroutines(t)
	const P, W, H = 8, 64, 64
	_, partials, boxes, cam := renderPartials(t, P, W, H)

	// rootRecv measures the bytes the root rank's incoming link
	// carries, using the fabric's per-rank traffic accounting.
	rootRecv := func(useSwap bool) int64 {
		ps := make([]*img.RGBA, P)
		for i := range ps {
			ps[i] = partials[i].Clone()
		}
		var root int64
		err := comm.Run(P, func(c *comm.Comm) error {
			if useSwap {
				reg, piece, err := BinarySwap(c, ps[c.Rank()], boxes, cam.Eye, 0)
				if err != nil {
					return err
				}
				if _, err := FinalGather(c, reg, piece, W, H, 0, 700); err != nil {
					return err
				}
			} else {
				if _, err := DirectSend(c, ps[c.Rank()], boxes, cam.Eye, 0, 800); err != nil {
					return err
				}
			}
			c.Barrier()
			if c.Rank() == 0 {
				root = c.World().BytesReceivedBy(0)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return root
	}
	swap := rootRecv(true)
	direct := rootRecv(false)
	// Binary-swap's root receives ~ (1 - 1/P) + (P-1)/P images' worth;
	// direct-send's receives P-1 full images.
	if swap*2 > direct {
		t.Fatalf("binary-swap root link %d not ≪ direct-send %d", swap, direct)
	}
}
