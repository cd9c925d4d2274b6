package composite

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/accel"
	"repro/internal/comm"
	"repro/internal/img"
	"repro/internal/render"
	"repro/internal/testutil"
	"repro/internal/tf"
	"repro/internal/vol"
)

// refBinarySwap is dense binary-swap, the oracle of BinarySwapRect:
// every rank starts from a full-frame partial and every stage sends a
// whole half. Unlike the production code it copies with plain
// allocations and allows empty halves (frames smaller than the group).
func refBinarySwap(c *comm.Comm, im *img.RGBA, boxes []vol.Box, eye render.Vec3, step int) (img.Region, *img.RGBA, error) {
	rank := c.Rank()
	reg := img.Region{X1: im.W, Y1: im.H}
	cur := im
	for s := 0; s < bits.TrailingZeros(uint(c.Size())); s++ {
		partner := rank ^ (1 << s)
		lo, hi := img.SplitRegion(reg)
		keep, give := lo, hi
		if rank&(1<<s) != 0 {
			keep, give = hi, lo
		}
		keepIm := denseSub(cur, relRegion(keep, reg))
		c.Send(partner, tagSwap.Tag(step, s), denseSub(cur, relRegion(give, reg)), 0)
		got, _ := c.Recv(partner, tagSwap.Tag(step, s))
		theirs := got.(*img.RGBA)
		front, err := iAmFront(boxes, rank, partner, s, eye)
		if err != nil {
			return img.Region{}, nil, err
		}
		if front {
			err = keepIm.Over(theirs)
			cur = keepIm
		} else {
			err = theirs.Over(keepIm)
			cur = theirs
		}
		if err != nil {
			return img.Region{}, nil, err
		}
		reg = keep
	}
	return reg, cur, nil
}

// denseSub copies region r (relative to src) into a new image.
func denseSub(src *img.RGBA, r img.Region) *img.RGBA {
	s := img.NewRGBA(r.W(), r.H())
	for y := 0; y < s.H; y++ {
		so := ((r.Y0+y)*src.W + r.X0) * 4
		copy(s.Pix[y*s.W*4:(y+1)*s.W*4], src.Pix[so:so+s.W*4])
	}
	return s
}

// randPartial returns a w x h partial that is transparent outside rect
// and holds random non-negative premultiplied pixels inside it, some
// of them transparent too.
func randPartial(rng *rand.Rand, w, h int, rect img.Region) *img.RGBA {
	im := img.NewRGBA(w, h)
	for y := rect.Y0; y < rect.Y1; y++ {
		for x := rect.X0; x < rect.X1; x++ {
			if rng.Intn(4) == 0 {
				continue
			}
			a := rng.Float32()
			im.Set(x, y, a*rng.Float32(), a*rng.Float32(), a*rng.Float32(), a)
		}
	}
	return im
}

// randRect returns a random rectangle of a w x h frame; about one in
// five is empty.
func randRect(rng *rand.Rand, w, h int) img.Region {
	if rng.Intn(5) == 0 {
		return img.Region{}
	}
	x0, y0 := rng.Intn(w), rng.Intn(h)
	return img.Region{X0: x0, Y0: y0, X1: x0 + 1 + rng.Intn(w-x0), Y1: y0 + 1 + rng.Intn(h-y0)}
}

// checkRectSwap runs BinarySwapRect on the rect parts of the dense
// partials and refBinarySwap on the partials themselves, and requires
// every rank's region and every float of its piece to be equal, and
// every rank's input to be left as it was.
func checkRectSwap(rects []img.Region, dense []*img.RGBA, boxes []vol.Box, eye render.Vec3) error {
	p, w, h := len(dense), dense[0].W, dense[0].H
	type result struct {
		reg img.Region
		im  *img.RGBA
	}
	want := make([]result, p)
	err := comm.Run(p, func(c *comm.Comm) error {
		reg, im, err := refBinarySwap(c, dense[c.Rank()], boxes, eye, 0)
		want[c.Rank()] = result{reg, im}
		return err
	})
	if err != nil {
		return fmt.Errorf("dense oracle: %w", err)
	}
	parts := make([]*img.RGBA, p)
	for i, r := range rects {
		parts[i] = denseSub(dense[i], r)
	}
	inputs := make([][]float32, p)
	for i, im := range parts {
		inputs[i] = slices.Clone(im.Pix)
	}
	got := make([]result, p)
	err = comm.Run(p, func(c *comm.Comm) error {
		reg, im, err := BinarySwapRect(c, rects[c.Rank()], parts[c.Rank()], w, h, boxes, eye, 0)
		got[c.Rank()] = result{reg, im}
		return err
	})
	if err != nil {
		return err
	}
	for i := range got {
		g, wt := got[i], want[i]
		if g.reg != wt.reg {
			return fmt.Errorf("rank %d: region %v, dense %v", i, g.reg, wt.reg)
		}
		if g.im.W != wt.im.W || g.im.H != wt.im.H {
			return fmt.Errorf("rank %d: piece %dx%d, dense %dx%d", i, g.im.W, g.im.H, wt.im.W, wt.im.H)
		}
		for j := range g.im.Pix {
			if g.im.Pix[j] != wt.im.Pix[j] {
				return fmt.Errorf("rank %d region %v: float %d = %v, dense %v", i, g.reg, j, g.im.Pix[j], wt.im.Pix[j])
			}
		}
		if !slices.Equal(parts[i].Pix, inputs[i]) {
			return fmt.Errorf("rank %d: input image modified", i)
		}
	}
	return nil
}

func TestBinarySwapRectMatchesDense(t *testing.T) {
	testutil.CheckGoroutines(t)
	rng := rand.New(rand.NewSource(34))
	for _, p := range []int{2, 4, 8} {
		for _, size := range [][2]int{{67, 45}, {64, 64}, {9, 31}} {
			w, h := size[0], size[1]
			lo, hi := img.SplitRegion(img.Region{X1: w, Y1: h})
			frame := img.Region{X1: w, Y1: h}
			shapes := map[string]func(rank int) img.Region{
				"empty":       func(int) img.Region { return img.Region{} },
				"whole":       func(int) img.Region { return frame },
				"in-low-half": func(int) img.Region { return img.Region{X0: lo.X0 + 1, Y0: lo.Y0, X1: lo.X1, Y1: lo.Y1 - 1} },
				"in-high-half": func(int) img.Region {
					return img.Region{X0: hi.X0, Y0: hi.Y0 + 1, X1: hi.X1 - 1, Y1: hi.Y1}
				},
				"edges": func(rank int) img.Region {
					if rank%2 == 0 {
						return img.Region{X1: w/3 + 1, Y1: h}
					}
					return img.Region{X0: w - w/4 - 1, Y0: h / 2, X1: w, Y1: h}
				},
				"random": func(int) img.Region { return randRect(rng, w, h) },
				"mixed": func(rank int) img.Region {
					return [...]img.Region{{}, frame, lo, hi, randRect(rng, w, h)}[rank%5]
				},
			}
			for name, shape := range shapes {
				t.Run(fmt.Sprintf("p=%d/%dx%d/%s", p, w, h, name), func(t *testing.T) {
					boxes, err := vol.SplitKD(vol.Dims{NX: 16, NY: 12, NZ: 20}, p)
					if err != nil {
						t.Fatal(err)
					}
					rects := make([]img.Region, p)
					dense := make([]*img.RGBA, p)
					for i := range rects {
						rects[i] = shape(i)
						dense[i] = randPartial(rng, w, h, rects[i])
					}
					for _, eye := range []render.Vec3{{X: -30, Y: 5, Z: 9}, {X: 40, Y: 50, Z: -20}, {X: 8, Y: -25, Z: 60}} {
						if err := checkRectSwap(rects, dense, boxes, eye); err != nil {
							t.Fatalf("eye %v, rects %v: %v", eye, rects, err)
						}
					}
				})
			}
		}
	}
}

// FuzzBinarySwapRect checks the rect swap against the dense oracle on
// random groups, frame sizes, rectangles and pixels.
func FuzzBinarySwapRect(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(66), uint8(44))
	f.Add(int64(2), uint8(3), uint8(0), uint8(0))
	f.Add(int64(3), uint8(2), uint8(5), uint8(63))
	f.Add(int64(4), uint8(0), uint8(31), uint8(31))
	f.Fuzz(func(t *testing.T, seed int64, gexp, wb, hb uint8) {
		p := 1 << (gexp % 4)
		w, h := 1+int(wb)%64, 1+int(hb)%64
		rng := rand.New(rand.NewSource(seed))
		boxes, err := vol.SplitKD(vol.Dims{NX: 16, NY: 16, NZ: 16}, p)
		if err != nil {
			t.Fatal(err)
		}
		rects := make([]img.Region, p)
		dense := make([]*img.RGBA, p)
		for i := range rects {
			rects[i] = randRect(rng, w, h)
			dense[i] = randPartial(rng, w, h, rects[i])
		}
		eye := render.Vec3{X: rng.Float64()*96 - 40, Y: rng.Float64()*96 - 40, Z: rng.Float64()*96 - 40}
		if err := checkRectSwap(rects, dense, boxes, eye); err != nil {
			t.Fatalf("p=%d %dx%d rects %v: %v", p, w, h, rects, err)
		}
	})
}

// On renderPartials' scene rendered with a macrocell grid, each rank
// sends only what its rays reached, so the rect swap plus FinalGather
// moves fewer bytes than the full-frame call on the same partials —
// with equal pixels.
func TestBinarySwapRectSendsFewerBytes(t *testing.T) {
	testutil.CheckGoroutines(t)
	const P, W, H = 8, 64, 64
	v, cam, opt := partialScene(t)
	boxes, err := vol.SplitKD(v.Dims, P)
	if err != nil {
		t.Fatal(err)
	}
	rects := make([]img.Region, P)
	parts := make([]*img.RGBA, P)
	fulls := make([]*img.RGBA, P)
	for i, b := range boxes {
		br, err := v.Extract(b, 2)
		if err != nil {
			t.Fatal(err)
		}
		o := opt
		if o.Accel, err = accel.Build(br, 0); err != nil {
			t.Fatal(err)
		}
		if rects[i], parts[i], _, err = render.RenderBrickRect(br, cam, tf.Jet(), o, W, H); err != nil {
			t.Fatal(err)
		}
		if fulls[i], _, err = render.RenderBrick(br, cam, tf.Jet(), o, W, H); err != nil {
			t.Fatal(err)
		}
	}
	swap := func(rect bool) (int64, *img.RGBA) {
		var world *comm.World
		var frame *img.RGBA
		err := comm.Run(P, func(c *comm.Comm) error {
			r := c.Rank()
			var reg img.Region
			var piece *img.RGBA
			var err error
			if rect {
				reg, piece, err = BinarySwapRect(c, rects[r], parts[r], W, H, boxes, cam.Eye, 0)
			} else {
				reg, piece, err = BinarySwap(c, fulls[r], boxes, cam.Eye, 0)
			}
			if err != nil {
				return err
			}
			out, err := FinalGather(c, reg, piece, W, H, 0, 1)
			if err != nil {
				return err
			}
			if r == 0 {
				world, frame = c.World(), out
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return world.BytesSent(), frame
	}
	rectBytes, rectFrame := swap(true)
	fullBytes, fullFrame := swap(false)
	if !slices.Equal(rectFrame.Pix, fullFrame.Pix) {
		t.Fatal("rect swap composited different pixels")
	}
	if rectBytes >= fullBytes {
		t.Fatalf("rect swap sent %d bytes, full-frame %d", rectBytes, fullBytes)
	}
	t.Logf("swap bytes: rect %d vs full-frame %d (%.1fx)", rectBytes, fullBytes, float64(fullBytes)/float64(rectBytes))
}
