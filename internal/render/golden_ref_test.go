package render

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/accel"
	"repro/internal/img"
	"repro/internal/tf"
	"repro/internal/vol"
)

// The ray caster as it was when bricks were copies sampled through an
// interface, kept verbatim (renamed, methods of vol.Volume turned into
// functions, serial only) as the oracle the concrete brick sampler and
// the cached cell lookups must equal bit for bit.

type refSampler interface {
	Sample(x, y, z float64) float32
	Gradient(x, y, z float64) (gx, gy, gz float32)
	Normalize(v float32) float32
}

type refVolumeSampler struct{ v *vol.Volume }

func (s refVolumeSampler) Sample(x, y, z float64) float32 { return refSample(s.v, x, y, z) }
func (s refVolumeSampler) Gradient(x, y, z float64) (float32, float32, float32) {
	return refGradient(s.v, x, y, z)
}
func (s refVolumeSampler) Normalize(v float32) float32 { return s.v.Normalize(v) }

type refBrick struct {
	Region     vol.Box
	Data       *vol.Volume
	Origin     [3]int
	ParentDims vol.Dims
	ParentMin  float32
	ParentMax  float32
}

func refExtract(v *vol.Volume, region vol.Box, ghost int) (*refBrick, error) {
	region = region.Intersect(v.Bounds())
	if region.Empty() {
		return nil, fmt.Errorf("vol: empty extraction region")
	}
	g := vol.Box{
		X0: max(region.X0-ghost, 0), Y0: max(region.Y0-ghost, 0), Z0: max(region.Z0-ghost, 0),
		X1: min(region.X1+ghost, v.Dims.NX), Y1: min(region.Y1+ghost, v.Dims.NY), Z1: min(region.Z1+ghost, v.Dims.NZ),
	}
	sub, err := vol.New(g.Dims())
	if err != nil {
		return nil, err
	}
	for z := g.Z0; z < g.Z1; z++ {
		for y := g.Y0; y < g.Y1; y++ {
			srcOff := v.Index(g.X0, y, z)
			dstOff := sub.Index(0, y-g.Y0, z-g.Z0)
			copy(sub.Data[dstOff:dstOff+g.X1-g.X0], v.Data[srcOff:srcOff+g.X1-g.X0])
		}
	}
	sub.UpdateRange()
	return &refBrick{
		Region:     region,
		Data:       sub,
		Origin:     [3]int{g.X0, g.Y0, g.Z0},
		ParentDims: v.Dims,
		ParentMin:  v.Min,
		ParentMax:  v.Max,
	}, nil
}

func (b *refBrick) Sample(x, y, z float64) float32 {
	return refSample(b.Data, x-float64(b.Origin[0]), y-float64(b.Origin[1]), z-float64(b.Origin[2]))
}

func (b *refBrick) Gradient(x, y, z float64) (gx, gy, gz float32) {
	return refGradient(b.Data, x-float64(b.Origin[0]), y-float64(b.Origin[1]), z-float64(b.Origin[2]))
}

func (b *refBrick) Normalize(val float32) float32 {
	if b.ParentMax <= b.ParentMin {
		return 0
	}
	f := (val - b.ParentMin) / (b.ParentMax - b.ParentMin)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

func refSample(v *vol.Volume, x, y, z float64) float32 {
	nx, ny, nz := v.Dims.NX, v.Dims.NY, v.Dims.NZ
	if x < 0 {
		x = 0
	} else if x > float64(nx-1) {
		x = float64(nx - 1)
	}
	if y < 0 {
		y = 0
	} else if y > float64(ny-1) {
		y = float64(ny - 1)
	}
	if z < 0 {
		z = 0
	} else if z > float64(nz-1) {
		z = float64(nz - 1)
	}
	x0, y0, z0 := int(x), int(y), int(z)
	x1, y1, z1 := x0+1, y0+1, z0+1
	if x1 > nx-1 {
		x1 = nx - 1
	}
	if y1 > ny-1 {
		y1 = ny - 1
	}
	if z1 > nz-1 {
		z1 = nz - 1
	}
	fx := float32(x - float64(x0))
	fy := float32(y - float64(y0))
	fz := float32(z - float64(z0))

	i000 := v.Index(x0, y0, z0)
	i100 := v.Index(x1, y0, z0)
	i010 := v.Index(x0, y1, z0)
	i110 := v.Index(x1, y1, z0)
	i001 := v.Index(x0, y0, z1)
	i101 := v.Index(x1, y0, z1)
	i011 := v.Index(x0, y1, z1)
	i111 := v.Index(x1, y1, z1)
	d := v.Data

	c00 := d[i000] + fx*(d[i100]-d[i000])
	c10 := d[i010] + fx*(d[i110]-d[i010])
	c01 := d[i001] + fx*(d[i101]-d[i001])
	c11 := d[i011] + fx*(d[i111]-d[i011])
	c0 := c00 + fy*(c10-c00)
	c1 := c01 + fy*(c11-c01)
	return c0 + fz*(c1-c0)
}

func refGradient(v *vol.Volume, x, y, z float64) (gx, gy, gz float32) {
	const h = 1.0
	gx = (refSample(v, x+h, y, z) - refSample(v, x-h, y, z)) * 0.5
	gy = (refSample(v, x, y+h, z) - refSample(v, x, y-h, z)) * 0.5
	gz = (refSample(v, x, y, z+h) - refSample(v, x, y, z-h)) * 0.5
	return
}

// refRenderRegion is RenderRegion's serial path.
func refRenderRegion(s refSampler, region vol.Box, cam *Camera, t *tf.TF, opt Options, dst *img.RGBA) (Stats, error) {
	if err := opt.normalize(); err != nil {
		return Stats{}, err
	}
	if !cam.ready {
		if err := cam.Finish(); err != nil {
			return Stats{}, err
		}
	}
	rr := &refRowRenderer{
		s:         s,
		box:       region,
		rect:      img.Region{X1: dst.W, Y1: dst.H},
		cam:       cam,
		opt:       &opt,
		lut:       t.LUT(),
		light:     opt.Light.Normalized(),
		headlight: opt.Light == (Vec3{}),
		dst:       dst,
	}
	if opt.Accel != nil && opt.Mode == ModeOver {
		if err := rr.useGrid(region, t); err != nil {
			return Stats{}, err
		}
	}
	return rr.renderRows(0, dst.H), nil
}

type refRowRenderer struct {
	s         refSampler
	box       vol.Box
	rect      img.Region
	cam       *Camera
	opt       *Options
	lut       []float32
	emptyCell []bool
	light     Vec3
	headlight bool
	dst       *img.RGBA
}

func (rr *refRowRenderer) useGrid(region vol.Box, t *tf.TF) error {
	g := rr.opt.Accel
	if cover := g.Bounds(); cover.Intersect(region) != region {
		return fmt.Errorf("render: accel grid %v does not cover region %v", cover, region)
	}
	mask := g.EmptyMask(t.MaxAlpha)
	if !slices.Contains(mask, true) {
		return nil
	}
	rr.emptyCell = mask
	rr.box, rr.rect = vol.Box{}, img.Region{}
	if active, ok := g.ActiveBox(mask); ok {
		rr.box = vol.Box{
			X0: active.X0 - 1, Y0: active.Y0 - 1, Z0: active.Z0 - 1,
			X1: active.X1 + 1, Y1: active.Y1 + 1, Z1: active.Z1 + 1,
		}.Intersect(region)
	}
	if !rr.box.Empty() {
		rr.rect = rr.cam.screenRect(rr.box, rr.dst.W, rr.dst.H)
	}
	return nil
}

func (rr *refRowRenderer) classify(v float32) (r, g, b, a float32) {
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	i := int(v*lutScale+0.5) * 4
	return rr.lut[i], rr.lut[i+1], rr.lut[i+2], rr.lut[i+3]
}

func (rr *refRowRenderer) renderRows(y0, y1 int) Stats {
	var st Stats
	s, opt, dst, cam := rr.s, rr.opt, rr.dst, rr.cam
	w, h := dst.W, dst.H
	termA := opt.TerminationAlpha
	emptyCell := rr.emptyCell
	for py := max(y0, rr.rect.Y0); py < min(y1, rr.rect.Y1); py++ {
		for px := rr.rect.X0; px < rr.rect.X1; px++ {
			orig, dir := cam.Ray(px, py, w, h)
			tn, tfar, ok := IntersectBox(orig, dir, rr.box)
			if !ok || tfar <= tn {
				continue
			}
			st.Rays++
			if opt.Mode == ModeMIP {
				rr.mipRay(orig, dir, tn, tfar, &st, py*w+px)
				continue
			}
			var r, g, b, a float32
			ld := rr.light
			if rr.headlight {
				ld = dir.Scale(-1)
			}
			k0 := math.Ceil(tn / opt.Step)
			for k := k0; ; k++ {
				tcur := k * opt.Step
				if tcur >= tfar {
					break
				}
				p := orig.Add(dir.Scale(tcur))
				if emptyCell != nil {
					if ci, ok := opt.Accel.CellAt(p.X, p.Y, p.Z); ok && emptyCell[ci] {
						exit := opt.Accel.CellExit(orig.X, orig.Y, orig.Z, dir.X, dir.Y, dir.Z, tcur)
						next := k + 1
						if k2 := math.Ceil(exit/opt.Step + 1e-9); k2 > next {
							next = k2
						}
						st.Skipped += int(next - k)
						k = next - 1
						continue
					}
				}
				raw := s.Sample(p.X, p.Y, p.Z)
				st.Samples++
				cr, cg, cb, ca := rr.classify(s.Normalize(raw))
				if ca <= 0 {
					continue
				}
				if opt.Shading {
					gx, gy, gz := s.Gradient(p.X, p.Y, p.Z)
					gn := math.Sqrt(float64(gx*gx + gy*gy + gz*gz))
					shade := float32(0.35)
					if gn > 1e-6 {
						n := Vec3{float64(gx), float64(gy), float64(gz)}.Scale(1 / gn)
						diff := n.Dot(ld)
						if diff < 0 {
							diff = -diff
						}
						shade += 0.65 * float32(diff)
					} else {
						shade = 1
					}
					cr *= shade
					cg *= shade
					cb *= shade
				}
				tr := (1 - a) * ca
				r += tr * cr
				g += tr * cg
				b += tr * cb
				a += tr
				if a >= termA {
					break
				}
			}
			if a > 0 {
				i := (py*w + px) * 4
				dst.Pix[i] += r
				dst.Pix[i+1] += g
				dst.Pix[i+2] += b
				dst.Pix[i+3] += a
				st.Pixels++
			}
		}
	}
	return st
}

func (rr *refRowRenderer) mipRay(orig, dir Vec3, tn, tfar float64, st *Stats, pix int) {
	s, step, dst := rr.s, rr.opt.Step, rr.dst
	maxV := float32(-1)
	k0 := math.Ceil(tn / step)
	for k := k0; ; k++ {
		tcur := k * step
		if tcur >= tfar {
			break
		}
		p := orig.Add(dir.Scale(tcur))
		v := s.Normalize(s.Sample(p.X, p.Y, p.Z))
		st.Samples++
		if v > maxV {
			maxV = v
		}
	}
	if maxV < 0 {
		return
	}
	cr, cg, cb, ca := rr.classify(maxV)
	if ca <= 0 {
		return
	}
	i := pix * 4
	if ca*1 > dst.Pix[i+3] {
		dst.Pix[i] = cr * ca
		dst.Pix[i+1] = cg * ca
		dst.Pix[i+2] = cb * ca
		dst.Pix[i+3] = ca
		st.Pixels++
	}
}

// goldenViews are the cameras of the golden test: four orbits and an
// eye inside the volume.
func goldenViews(t *testing.T, d vol.Dims) map[string]*Camera {
	t.Helper()
	inside := &Camera{
		Eye:    Vec3{float64(d.NX) * 0.3, float64(d.NY) * 0.4, float64(d.NZ) * 0.5},
		Center: Vec3{float64(d.NX), float64(d.NY) * 0.6, float64(d.NZ) * 0.4},
		Up:     Vec3{0, 0, 1}, FovY: 1.2,
	}
	if err := inside.Finish(); err != nil {
		t.Fatal(err)
	}
	cams := map[string]*Camera{"inside": inside}
	for _, view := range [][2]float64{{0.6, 0.35}, {2.1, -0.4}, {3.9, 1.1}, {5.3, 0}} {
		cam, err := NewOrbitCamera(d, view[0], view[1], 1.5)
		if err != nil {
			t.Fatal(err)
		}
		cams[fmt.Sprintf("orbit=%v,%v", view[0], view[1])] = cam
	}
	return cams
}

// The view bricks and the one concrete sampler render every pixel
// float exactly as the copying, interface-driven caster did: the whole
// volume through Render and 2/4/8 bricks with ghost 0/1/2 through
// RenderRegion, under four orbits and an eye inside the volume, Over
// with and without shading and MIP, 1/2/8 workers, with and without
// the macrocell grid. The cached cell lookups may
// evaluate a sample the per-sample lookups leapt over — one in a
// transparent cell — but never skip one they evaluated.
func TestGoldenMatchesCopyingReference(t *testing.T) {
	v := testVolume(t)
	const W, H = 40, 32
	type target struct {
		name   string
		ref    refSampler
		b      *vol.Brick
		region vol.Box
	}
	targets := []target{{"whole", refVolumeSampler{v}, nil, v.Bounds()}}
	for _, n := range []int{2, 4, 8} {
		boxes, err := vol.SplitKD(v.Dims, n)
		if err != nil {
			t.Fatal(err)
		}
		for i, box := range boxes {
			for ghost := 0; ghost <= 2; ghost++ {
				ref, err := refExtract(v, box, ghost)
				if err != nil {
					t.Fatal(err)
				}
				b, err := v.Extract(box, ghost)
				if err != nil {
					t.Fatal(err)
				}
				targets = append(targets, target{fmt.Sprintf("%dbricks/%d/ghost=%d", n, i, ghost), ref, b, b.Region})
			}
		}
	}
	modes := []struct {
		name    string
		mode    Mode
		shading bool
	}{{"over", ModeOver, false}, {"over-shaded", ModeOver, true}, {"mip", ModeMIP, false}}
	extra := 0
	for camName, cam := range goldenViews(t, v.Dims) {
		for _, tgt := range targets {
			gb := tgt.b
			if gb == nil {
				gb = wholeBrick(t, v)
			}
			grid, err := accel.Build(gb, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range modes {
				for _, useGrid := range []bool{false, true} {
					opt := DefaultOptions()
					opt.Mode, opt.Shading = m.mode, m.shading
					if useGrid {
						opt.Accel = grid
					}
					want := img.NewRGBA(W, H)
					wantSt, err := refRenderRegion(tgt.ref, tgt.region, cam, tf.Jet(), opt, want)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 2, 8} {
						name := fmt.Sprintf("%s/%s/%s/grid=%v/workers=%d", camName, tgt.name, m.name, useGrid, workers)
						o := opt
						o.Workers = workers
						var got *img.RGBA
						var st Stats
						if tgt.b == nil {
							got, st, err = Render(v, cam, tf.Jet(), o, W, H)
						} else {
							got = img.NewRGBA(W, H)
							st, err = RenderRegion(tgt.b, tgt.region, cam, tf.Jet(), o, got)
						}
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						for i := range want.Pix {
							if got.Pix[i] != want.Pix[i] {
								t.Fatalf("%s: pixel float %d = %v, reference %v", name, i, got.Pix[i], want.Pix[i])
							}
						}
						if st.Rays != wantSt.Rays || st.Pixels != wantSt.Pixels || st.Samples < wantSt.Samples ||
							st.Samples+st.Skipped != wantSt.Samples+wantSt.Skipped {
							t.Fatalf("%s: stats %+v, reference %+v", name, st, wantSt)
						}
						if !useGrid && st != wantSt {
							t.Fatalf("%s: grid-less stats %+v, reference %+v", name, st, wantSt)
						}
						extra += st.Samples - wantSt.Samples
					}
				}
			}
		}
	}
	t.Logf("samples the cached cell lookups evaluated where the reference leapt: %d", extra)
}
