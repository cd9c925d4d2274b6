// Package temporal implements differential volume rendering — the
// paper's reference [25] (Shen & Johnson, "Differential volume
// rendering: a fast volume visualization technique for flow
// animation"): consecutive time steps of a coherent animation differ
// in few places, so only the pixels whose rays pass through changed
// data are re-rendered; the rest are copied from the previous frame.
// On the reference paper's data this cut both rendering time and
// storage by ~90%.
//
// Change detection is conservative (per-macrocell max absolute
// difference against a threshold of 0), so with Eps == 0 the output is
// identical to a full re-render; a positive Eps trades exactness for
// more reuse.
package temporal

import (
	"fmt"
	"math"

	"repro/internal/img"
	"repro/internal/render"
	"repro/internal/tf"
	"repro/internal/vol"
)

// Cache holds the state differential rendering carries between steps.
type Cache struct {
	// CellSize is the change-detection macrocell edge (default 8).
	CellSize int
	// Eps is the per-voxel absolute change tolerated before a cell is
	// considered changed; 0 means any change invalidates the cell.
	Eps float32

	prev    *vol.Volume
	prevImg *img.RGBA
	prevCam render.Camera
	prevTF  *tf.TF
	w, h    int
}

// Stats reports one differential render.
type Stats struct {
	render.Stats
	// ReusedPixels were copied from the previous frame; ChangedCells
	// of TotalCells differed between the steps.
	ReusedPixels int
	ChangedCells int
	TotalCells   int
	// FullRender reports that no reuse was possible (first frame, or
	// camera/TF/size changed).
	FullRender bool
}

// New returns an empty cache.
func New() *Cache { return &Cache{CellSize: 8} }

// Render produces the frame for volume v, reusing the previous frame's
// pixels where the data did not change. The cache keeps a reference to
// v and the output image; callers must not mutate them afterwards.
func (c *Cache) Render(v *vol.Volume, cam *render.Camera, t *tf.TF, opt render.Options, w, h int) (*img.RGBA, Stats, error) {
	if c.CellSize <= 0 {
		c.CellSize = 8
	}
	reusable := c.prev != nil &&
		c.prev.Dims == v.Dims &&
		c.w == w && c.h == h &&
		c.prevTF == t &&
		// Classification depends on the normalization range, so both
		// steps must share the dataset-global range (as volio stores
		// guarantee).
		c.prev.Min == v.Min && c.prev.Max == v.Max &&
		sameCamera(&c.prevCam, cam)

	var st Stats
	if !reusable {
		im, rst, err := render.Render(v, cam, t, opt, w, h)
		if err != nil {
			return nil, st, err
		}
		st.Stats = rst
		st.FullRender = true
		c.remember(v, im, cam, t, w, h)
		return im, st, nil
	}

	changed, nx, ny, nz, nChanged := changedCells(c.prev, v, c.CellSize, c.Eps)
	st.ChangedCells = nChanged
	st.TotalCells = nx * ny * nz

	// Classify pixels: a pixel must be re-rendered when any of the
	// sample positions its ray will evaluate falls in a changed cell.
	// Walking the exact sample lattice (same Step and alignment as
	// the renderer) makes the mask precise: re-rendered pixels read
	// at least one changed sample, reused pixels read none.
	if opt.Step == 0 {
		opt.Step = render.DefaultOptions().Step
	}
	mask := make([]bool, w*h)
	cs := float64(c.CellSize)
	bounds := v.Bounds()
	for py := 0; py < h; py++ {
		for px := 0; px < w; px++ {
			orig, dir := cam.Ray(px, py, w, h)
			tn, tfar, ok := render.IntersectBox(orig, dir, bounds)
			if !ok || tfar <= tn {
				continue
			}
			if rayTouchesChanged(orig, dir, tn, tfar, opt.Step, cs, nx, ny, nz, changed) {
				mask[py*w+px] = true
			}
		}
	}

	out := c.prevImg.Clone()
	renderOpt := opt
	renderOpt.PixelMask = mask
	nRender := 0
	for i, m := range mask {
		if m {
			nRender++
			// Clear the pixel so RenderRegion's accumulate starts fresh.
			out.Pix[i*4], out.Pix[i*4+1], out.Pix[i*4+2], out.Pix[i*4+3] = 0, 0, 0, 0
		}
	}
	b, err := v.Extract(bounds, 0)
	if err != nil {
		return nil, st, err
	}
	rst, err := render.RenderRegion(b, bounds, cam, t, renderOpt, out)
	if err != nil {
		return nil, st, err
	}
	st.Stats = rst
	st.ReusedPixels = w*h - nRender
	c.remember(v, out, cam, t, w, h)
	return out, st, nil
}

func (c *Cache) remember(v *vol.Volume, im *img.RGBA, cam *render.Camera, t *tf.TF, w, h int) {
	c.prev = v
	c.prevImg = im
	c.prevCam = *cam
	c.prevTF = t
	c.w, c.h = w, h
}

// Reset clears the cache; the next Render is a full render.
func (c *Cache) Reset() { c.prev = nil; c.prevImg = nil; c.prevTF = nil }

func sameCamera(a, b *render.Camera) bool {
	return a.Eye == b.Eye && a.Center == b.Center && a.Up == b.Up && a.FovY == b.FovY
}

// changedCells compares two equally-sized volumes per macrocell,
// expanding each cell by one grid point so interpolation support is
// covered (a voxel change affects samples in neighboring cells).
func changedCells(a, b *vol.Volume, cell int, eps float32) (mask []bool, nx, ny, nz, count int) {
	d := a.Dims
	nx = (d.NX + cell - 1) / cell
	ny = (d.NY + cell - 1) / cell
	nz = (d.NZ + cell - 1) / cell
	mask = make([]bool, nx*ny*nz)
	for cz := 0; cz < nz; cz++ {
		for cy := 0; cy < ny; cy++ {
			for cx := 0; cx < nx; cx++ {
				x0, x1 := expand(cx, cell, d.NX)
				y0, y1 := expand(cy, cell, d.NY)
				z0, z1 := expand(cz, cell, d.NZ)
				ch := false
			scan:
				for z := z0; z < z1; z++ {
					for y := y0; y < y1; y++ {
						ia := a.Index(x0, y, z)
						for x := x0; x < x1; x++ {
							if absDiff(a.Data[ia], b.Data[ia]) > eps {
								ch = true
								break scan
							}
							ia++
						}
					}
				}
				if ch {
					mask[cx+nx*(cy+ny*cz)] = true
					count++
				}
			}
		}
	}
	return mask, nx, ny, nz, count
}

// expand returns cell c's grid-point range widened by three points on
// each side — trilinear interpolation reads one point beyond a sample
// and gradient shading samples one unit further, so a voxel change up
// to 3 points outside a cell can influence samples inside it — clamped
// to [0, n).
func expand(c, cell, n int) (lo, hi int) {
	const support = 3
	lo = c*cell - support
	hi = (c+1)*cell + support
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

func absDiff(a, b float32) float32 {
	if a > b {
		return a - b
	}
	return b - a
}

// rayTouchesChanged checks the ray's exact sample lattice (multiples
// of step, matching the renderer) against the changed-cell mask.
func rayTouchesChanged(orig, dir render.Vec3, tn, tfar, step, cs float64, nx, ny, nz int, changed []bool) bool {
	for k := math.Ceil(tn / step); ; k++ {
		t := k * step
		if t >= tfar {
			return false
		}
		x := orig.X + dir.X*t
		y := orig.Y + dir.Y*t
		z := orig.Z + dir.Z*t
		cx := int(x / cs)
		cy := int(y / cs)
		cz := int(z / cs)
		if cx < 0 || cy < 0 || cz < 0 || cx >= nx || cy >= ny || cz >= nz {
			continue
		}
		if changed[cx+nx*(cy+ny*cz)] {
			return true
		}
	}
}

// String formats the reuse statistics.
func (s Stats) String() string {
	if s.FullRender {
		return "full render"
	}
	return fmt.Sprintf("reused %d px, re-rendered %d cells of %d (%.0f%%)",
		s.ReusedPixels, s.ChangedCells, s.TotalCells,
		100*float64(s.ChangedCells)/math.Max(1, float64(s.TotalCells)))
}
