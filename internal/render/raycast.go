package render

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/accel"
	"repro/internal/img"
	"repro/internal/tf"
	"repro/internal/vol"
)

// Mode selects the ray compositing rule.
type Mode int

// Compositing modes.
const (
	// ModeOver is classic direct volume rendering: front-to-back
	// alpha compositing of classified samples.
	ModeOver Mode = iota
	// ModeMIP is maximum intensity projection: the ray keeps its
	// largest normalized sample and classifies it once — a common
	// preview mode for scalar fields (no shading, order independent).
	ModeMIP
)

// Options controls the ray caster.
type Options struct {
	// Step is the sampling distance along the ray in grid units.
	Step float64
	// Workers is the number of goroutines ray casting scanline tiles.
	// 0 means runtime.GOMAXPROCS(0); 1 forces the serial path;
	// negative values are rejected by validation. Output is
	// bit-identical for every worker count — tiles partition the
	// image and each pixel is computed by exactly one worker with the
	// same arithmetic as the serial loop. The dynamic tile queue
	// keeps workers busy when early termination makes some tiles
	// nearly free.
	Workers int
	// Shading enables gradient (Phong diffuse) shading (ModeOver
	// only).
	Shading bool
	// Light is the direction toward the light source; used when
	// Shading is set. Zero value means headlight (along the view ray).
	Light Vec3
	// TerminationAlpha stops a ray once accumulated opacity exceeds
	// this value (early ray termination). 0 means the default 0.98.
	TerminationAlpha float32
	// Mode selects Over (default) or MIP compositing.
	Mode Mode
	// Accel, when set, skips macrocells the transfer function maps to
	// zero opacity (empty-space leaping; ModeOver only, MIP ignores
	// it): rays are clipped to the bounding box of the non-empty cells,
	// only that box's screen rectangle is cast, and empty cells inside
	// it are leapt. The grid must cover the rendered region in parent
	// coordinates and use the same normalization. Skipping is
	// conservative: accelerated output is identical. A grid with no
	// empty cell under the transfer function is dropped, so dense data
	// runs the plain loop.
	Accel *accel.Grid
}

// DefaultOptions are the renderer settings used across the paper
// experiments.
func DefaultOptions() Options {
	return Options{Step: 0.8, Shading: true, TerminationAlpha: 0.98}
}

func (o *Options) normalize() error {
	if o.Step <= 0 {
		return fmt.Errorf("render: step %v must be positive", o.Step)
	}
	if o.TerminationAlpha == 0 {
		o.TerminationAlpha = 0.98
	}
	if o.TerminationAlpha < 0 || o.TerminationAlpha > 1 {
		return fmt.Errorf("render: termination alpha %v out of [0,1]", o.TerminationAlpha)
	}
	if o.Workers < 0 {
		return fmt.Errorf("render: workers %d must not be negative (0 selects GOMAXPROCS)", o.Workers)
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// Stats reports the work a render call performed; the discrete-event
// simulator uses these counts with calibrated per-unit costs.
type Stats struct {
	// Rays counts rays that hit the rendered box: the region, or with
	// Options.Accel the part of it around the non-empty macrocells.
	Rays    int
	Samples int // volume samples taken
	Pixels  int // pixels with nonzero contribution
	// Skipped counts samples leapt over along those rays. Samples and
	// rays the Accel clip removed outright are not counted — counting
	// them would cost the per-pixel box test the clip exists to avoid.
	Skipped int
}

// RenderRegion ray-casts the part of brick b inside region (parent
// grid coordinates) into dst, a full-size premultiplied RGBA image.
// Pixels whose rays miss the region are left untouched (transparent),
// which is what the compositor expects of a partial image. dst must be
// cleared by the caller if reused.
func RenderRegion(b *vol.Brick, region vol.Box, cam *Camera, t *tf.TF, opt Options, dst *img.RGBA) (Stats, error) {
	rr, err := newRowRenderer(b, region, cam, t, opt, dst.W, dst.H)
	if err != nil {
		return Stats{}, err
	}
	return rr.render(dst, 0, 0), nil
}

// newRowRenderer validates the options and resolves everything one
// render of region into a w x h image needs, including the pixel
// rectangle worth casting.
func newRowRenderer(b *vol.Brick, region vol.Box, cam *Camera, t *tf.TF, opt Options, w, h int) (*rowRenderer, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	if region.Empty() {
		return nil, fmt.Errorf("render: empty region")
	}
	if !cam.ready {
		if err := cam.Finish(); err != nil {
			return nil, err
		}
	}
	rr := &rowRenderer{
		b:         b,
		box:       region,
		rect:      img.Region{X1: w, Y1: h},
		w:         w,
		h:         h,
		cam:       cam,
		opt:       &opt,
		lut:       t.LUT(),
		light:     opt.Light.Normalized(),
		headlight: opt.Light == (Vec3{}),
	}
	if opt.Accel != nil && opt.Mode == ModeOver {
		if err := rr.useGrid(region, t); err != nil {
			return nil, err
		}
	}
	return rr, nil
}

// render casts rr.rect into dst, whose pixel (0,0) is pixel (ox,oy)
// of the w x h image.
func (rr *rowRenderer) render(dst *img.RGBA, ox, oy int) Stats {
	rr.dst, rr.ox, rr.oy = dst, ox, oy
	if rr.opt.Workers > 1 && rr.h > 1 {
		return renderTiled(rr, rr.opt.Workers)
	}
	return rr.renderRows(0, rr.h)
}

// rowRenderer carries the per-call invariants of one render so a span
// of scanlines can be rendered independently — the unit of work of
// both the serial path and the parallel tile queue. All fields are
// read-only during rendering; dst is shared but each pixel is written
// by exactly one renderRows call.
type rowRenderer struct {
	b *vol.Brick
	// box is what rays are intersected with and rect the pixels whose
	// rays can hit it: the region and the whole image, or with an accel
	// grid the region clipped to the non-empty cells and that clip's
	// screen bounding rectangle (both empty when no cell is active).
	box  vol.Box
	rect img.Region
	// w, h are the image's size, which fixes every pixel's ray; dst
	// may cover only part of it, with its origin at pixel (ox,oy).
	w, h   int
	ox, oy int
	cam    *Camera
	opt    *Options
	// lut is the transfer function's baked classification table,
	// indexed directly so the inner sampling loop is a flat load
	// instead of a method call (see tf.LUT — identical arithmetic to
	// tf.Classify, so results are bit-identical).
	lut       []float32
	emptyCell []bool
	light     Vec3
	headlight bool
	dst       *img.RGBA
}

// useGrid resolves opt.Accel against the transfer function: the
// per-cell transparency mask for leaping, and the clip box and screen
// rectangle that bound the rays worth casting. A grid with no empty
// cell is left unused.
func (rr *rowRenderer) useGrid(region vol.Box, t *tf.TF) error {
	g := rr.opt.Accel
	if cover := g.Bounds(); cover.Intersect(region) != region {
		return fmt.Errorf("render: accel grid %v does not cover region %v", cover, region)
	}
	// Computed once per (grid, transfer function) pair; the per-sample
	// check is then a single indexed load.
	mask := g.EmptyMask(t.MaxAlpha)
	if !slices.Contains(mask, true) {
		// Dense data: nothing to leap or clip, so skip the per-sample
		// cell lookups too.
		return nil
	}
	rr.emptyCell = mask
	// Everything outside the hull of the non-empty cells is transparent.
	// The one-point pad keeps a sample that rounding puts on a clip face
	// well inside an empty cell, so dropping it decides exactly what the
	// per-sample cell test would. No active cell: cast nothing.
	rr.box, rr.rect = vol.Box{}, img.Region{}
	if active, ok := g.ActiveBox(mask); ok {
		rr.box = vol.Box{
			X0: active.X0 - 1, Y0: active.Y0 - 1, Z0: active.Z0 - 1,
			X1: active.X1 + 1, Y1: active.Y1 + 1, Z1: active.Z1 + 1,
		}.Intersect(region)
	}
	if !rr.box.Empty() {
		rr.rect = rr.cam.screenRect(rr.box, rr.w, rr.h)
	}
	if rr.rect.Empty() {
		rr.rect = img.Region{}
	}
	return nil
}

// lutScale converts a clamped normalized value to a LUT index.
const lutScale = float32(tf.LUTSize - 1)

// cellMargin is how far, in ray parameter, before a non-empty
// macrocell's computed exit the ray caster looks the cell up again.
// A sample position is off by rounding of order 1e-13 grid units, so a
// sample this far before the exit is still in the cell. Only a ray
// grazing a cell face can round a sample into a transparent neighbour
// first; that sample is then evaluated instead of leapt, and adds
// nothing.
const cellMargin = 1e-6

// classify replicates tf.Classify against the captured table.
func (rr *rowRenderer) classify(v float32) (r, g, b, a float32) {
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	i := int(v*lutScale+0.5) * 4
	return rr.lut[i], rr.lut[i+1], rr.lut[i+2], rr.lut[i+3]
}

// renderRows ray-casts scanlines [y0,y1) of the target image. It is
// the whole hot path: the serial renderer calls it once with the full
// range, the parallel renderer once per tile.
func (rr *rowRenderer) renderRows(y0, y1 int) Stats {
	var st Stats
	br, opt, dst, cam := rr.b, rr.opt, rr.dst, rr.cam
	w, h := rr.w, rr.h
	termA := opt.TerminationAlpha
	grid, emptyCell := opt.Accel, rr.emptyCell
	for py := max(y0, rr.rect.Y0); py < min(y1, rr.rect.Y1); py++ {
		row := (py-rr.oy)*dst.W - rr.ox
		for px := rr.rect.X0; px < rr.rect.X1; px++ {
			orig, dir := cam.Ray(px, py, w, h)
			tn, tfar, ok := IntersectBox(orig, dir, rr.box)
			if !ok || tfar <= tn {
				continue
			}
			st.Rays++
			if opt.Mode == ModeMIP {
				rr.mipRay(orig, dir, tn, tfar, &st, row+px)
				continue
			}
			var r, g, b, a float32
			ld := rr.light
			if rr.headlight {
				ld = dir.Scale(-1)
			}
			// Jitter-free fixed stepping keeps partial images from
			// different bricks consistent along the same ray: sample
			// positions are aligned to global multiples of Step so a
			// ray crossing a brick boundary continues the same
			// sample sequence.
			// Samples at exactly tfar belong to the next brick along
			// the ray (strict <), so bricks sharing a face never
			// double-count a sample.
			k0 := math.Ceil(tn / opt.Step)
			// Samples before cellEnd lie in the non-empty macrocell the
			// last lookup found, so they skip the lookup; cellMargin keeps
			// rounding near the cell's exit from carrying that verdict
			// into the next cell.
			cellEnd := math.Inf(-1)
			for k := k0; ; k++ {
				tcur := k * opt.Step
				if tcur >= tfar {
					break
				}
				p := orig.Add(dir.Scale(tcur))
				if emptyCell != nil && tcur >= cellEnd {
					ci, ok := grid.CellAt(p.X, p.Y, p.Z)
					if ok && emptyCell[ci] {
						// Transparent macrocell: leap to its exit.
						exit := grid.CellExit(orig.X, orig.Y, orig.Z, dir.X, dir.Y, dir.Z, tcur)
						next := k + 1
						if k2 := math.Ceil(exit/opt.Step + 1e-9); k2 > next {
							next = k2
						}
						st.Skipped += int(next - k)
						k = next - 1 // loop increment lands on the first sample past the cell
						continue
					}
					if ok {
						cellEnd = grid.CellExit(orig.X, orig.Y, orig.Z, dir.X, dir.Y, dir.Z, tcur) - cellMargin
					}
				}
				raw := br.Sample(p.X, p.Y, p.Z)
				st.Samples++
				cr, cg, cb, ca := rr.classify(br.Normalize(raw))
				if ca <= 0 {
					continue
				}
				if opt.Shading {
					gx, gy, gz := br.Gradient(p.X, p.Y, p.Z)
					gn := math.Sqrt(float64(gx*gx + gy*gy + gz*gz))
					shade := float32(0.35)
					if gn > 1e-6 {
						n := Vec3{float64(gx), float64(gy), float64(gz)}.Scale(1 / gn)
						diff := n.Dot(ld)
						if diff < 0 {
							diff = -diff // two-sided lighting for volumes
						}
						shade += 0.65 * float32(diff)
					} else {
						shade = 1 // homogeneous region: unshaded
					}
					cr *= shade
					cg *= shade
					cb *= shade
				}
				// Front-to-back compositing of a premultiplied sample.
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
				i := (row + px) * 4
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

// mipRay marches one maximum-intensity-projection ray and writes the
// classified maximum into pixel index pix of dst.
func (rr *rowRenderer) mipRay(orig, dir Vec3, tn, tfar float64, st *Stats, pix int) {
	br, step, dst := rr.b, rr.opt.Step, rr.dst
	maxV := float32(-1)
	k0 := math.Ceil(tn / step)
	for k := k0; ; k++ {
		tcur := k * step
		if tcur >= tfar {
			break
		}
		p := orig.Add(dir.Scale(tcur))
		v := br.Normalize(br.Sample(p.X, p.Y, p.Z))
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
	// MIP across bricks: keep the brighter contribution. Premultiplied
	// channels scale with alpha, so compare by alpha.
	if ca*1 > dst.Pix[i+3] {
		dst.Pix[i] = cr * ca
		dst.Pix[i+1] = cg * ca
		dst.Pix[i+2] = cb * ca
		dst.Pix[i+3] = ca
		st.Pixels++
	}
}

// Render ray-casts a whole volume into a new w x h image — the
// single-processor renderer the paper benchmarks at 10–20 s per 256²
// frame on one 1999-era CPU. It renders the ghost-free brick of all of
// v, which clamps and normalizes exactly as v does.
func Render(v *vol.Volume, cam *Camera, t *tf.TF, opt Options, w, h int) (*img.RGBA, Stats, error) {
	b, err := v.Extract(v.Bounds(), 0)
	if err != nil {
		return nil, Stats{}, err
	}
	dst := img.NewRGBA(w, h)
	st, err := RenderRegion(b, v.Bounds(), cam, t, opt, dst)
	return dst, st, err
}

// RenderBrickRect ray-casts one brick's owned region; this is what
// each compute node of a group runs. It returns the rectangle of the
// w x h image that the brick's rays can reach and an image covering
// only that rectangle: every pixel outside it is transparent. The
// rectangle is the whole image unless opt.Accel has an empty cell, and
// empty when it has no active one.
func RenderBrickRect(b *vol.Brick, cam *Camera, t *tf.TF, opt Options, w, h int) (img.Region, *img.RGBA, Stats, error) {
	rr, err := newRowRenderer(b, b.Region, cam, t, opt, w, h)
	if err != nil {
		return img.Region{}, nil, Stats{}, err
	}
	dst := img.NewRGBA(rr.rect.W(), rr.rect.H())
	st := rr.render(dst, rr.rect.X0, rr.rect.Y0)
	return rr.rect, dst, st, nil
}

// RenderBrick is RenderBrickRect into a full-size partial image.
func RenderBrick(b *vol.Brick, cam *Camera, t *tf.TF, opt Options, w, h int) (*img.RGBA, Stats, error) {
	rect, im, st, err := RenderBrickRect(b, cam, t, opt, w, h)
	if err != nil || rect == (img.Region{X1: w, Y1: h}) {
		return im, st, err
	}
	full := img.NewRGBA(w, h)
	return full, st, full.BlitRGBA(im, rect)
}
