// Package accel provides a macrocell min-max grid for empty-space
// skipping during ray casting — the acceleration Parker et al. use in
// the interactive ray tracer the paper's related work surveys, and a
// concrete instance of §7.1's "preprocessing ... can provide many
// hints to the renderer such that rendering calculations can be
// greatly simplified".
//
// The volume is tiled into cells of CellSize³ grid points; each cell
// records the min/max of the normalized field over the cell plus a
// one-point border (so trilinear interpolation anywhere inside the
// cell stays within the recorded range). At render time a ray asks, in
// O(1) per cell, whether the transfer function assigns any opacity to
// the cell's value interval; fully transparent cells are skipped in
// one step instead of sample by sample. Skipping is conservative, so
// accelerated images are identical to unaccelerated ones.
package accel

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/vol"
)

// DefaultCellSize is the macrocell edge length in grid points.
const DefaultCellSize = 8

// Grid is the macrocell min-max structure for one volume (or brick).
type Grid struct {
	// Origin is the parent-grid coordinate of the covered region's
	// lower corner; Dims its extent in grid points.
	Origin [3]int
	Dims   vol.Dims

	cell       int
	shift      uint // log2(cell)
	nx, ny, nz int  // macrocell counts
	// minv/maxv hold normalized value bounds per cell.
	minv, maxv []float32
}

// Build constructs the grid over brick b's view, ghost cells included,
// in b's parent coordinates; b.Normalize maps the raw bounds to [0,1].
// cellSize must be a power of two (0 selects DefaultCellSize), so a
// position's cell is a shift away.
func Build(b *vol.Brick, cellSize int) (*Grid, error) {
	if cellSize == 0 {
		cellSize = DefaultCellSize
	}
	if cellSize < 0 || cellSize&(cellSize-1) != 0 {
		return nil, fmt.Errorf("accel: cell size %d is not a power of two", cellSize)
	}
	d := b.Dims
	if !d.Valid() {
		return nil, fmt.Errorf("accel: invalid dims %v", d)
	}
	g := &Grid{
		Origin: b.Origin,
		Dims:   d,
		cell:   cellSize,
		shift:  uint(bits.TrailingZeros(uint(cellSize))),
		nx:     (d.NX + cellSize - 1) / cellSize,
		ny:     (d.NY + cellSize - 1) / cellSize,
		nz:     (d.NZ + cellSize - 1) / cellSize,
	}
	n := g.nx * g.ny * g.nz
	g.minv = make([]float32, n)
	g.maxv = make([]float32, n)
	posInf, negInf := float32(math.Inf(1)), float32(math.Inf(-1))
	for i := range g.minv {
		g.minv[i] = posInf
		g.maxv[i] = negInf
	}
	// One pass over the x-rows of the view. Cell c covers points
	// [c*cellSize, (c+1)*cellSize] along each axis — its own points plus
	// the one-point border trilinear interpolation reads beyond its high
	// face — so a row reduces to one raw min/max per cell-x span, folded
	// into the one or two cells the row supports along y and along z.
	// Only the per-cell bounds are normalized: normalize is monotone, so
	// normalize(min raw) is exactly the min of the normalized values.
	rowMin := make([]float32, g.nx)
	rowMax := make([]float32, g.nx)
	for z := 0; z < d.NZ; z++ {
		cz0, cz1 := cellRange(z, cellSize)
		for y := 0; y < d.NY; y++ {
			cy0, cy1 := cellRange(y, cellSize)
			row := b.Row(y, z)
			for cx := range rowMin {
				x0 := cx * cellSize
				rowMin[cx], rowMax[cx] = spanBounds(row[x0:min(x0+cellSize+1, len(row))])
			}
			for cz := cz0; cz <= cz1; cz++ {
				for cy := cy0; cy <= cy1; cy++ {
					base := g.cellIndex(0, cy, cz)
					mins, maxs := g.minv[base:base+g.nx], g.maxv[base:base+g.nx]
					for cx := range mins {
						if rowMin[cx] < mins[cx] {
							mins[cx] = rowMin[cx]
						}
						if rowMax[cx] > maxs[cx] {
							maxs[cx] = rowMax[cx]
						}
					}
				}
			}
		}
	}
	for i := range g.minv {
		// A cell no comparable value touched keeps min > max, which
		// EmptyMask reads as empty.
		if g.minv[i] <= g.maxv[i] {
			g.minv[i] = b.Normalize(g.minv[i])
			g.maxv[i] = b.Normalize(g.maxv[i])
		}
	}
	return g, nil
}

// spanBounds returns the min and max of the values, ignoring NaN: a NaN
// never becomes a bound, and an all-NaN span returns (+Inf, -Inf). The
// default cell's span — its 8 own points plus the border — reduces as a
// branch-free tree of builtin min/max; those propagate NaN, so a span
// holding one is re-scanned with comparisons that skip it.
func spanBounds(vals []float32) (lo, hi float32) {
	if len(vals) == DefaultCellSize+1 {
		v := (*[DefaultCellSize + 1]float32)(vals)
		lo = min(min(min(v[0], v[1]), min(v[2], v[3])), min(min(v[4], v[5]), min(v[6], v[7])), v[8])
		hi = max(max(max(v[0], v[1]), max(v[2], v[3])), max(max(v[4], v[5]), max(v[6], v[7])), v[8])
		if !math.IsNaN(float64(lo)) {
			return lo, hi
		}
	}
	lo, hi = float32(math.Inf(1)), float32(math.Inf(-1))
	for _, val := range vals {
		if val < lo {
			lo = val
		}
		if val > hi {
			hi = val
		}
	}
	return lo, hi
}

// cellRange returns the cells whose interpolation support includes
// grid point p: its own cell plus the previous cell when p lies on a
// cell boundary (trilinear interpolation reads one point beyond the
// cell's high face).
func cellRange(p, cellSize int) (lo, hi int) {
	c := p / cellSize
	if p%cellSize == 0 && c > 0 {
		return c - 1, c
	}
	return c, c
}

func (g *Grid) cellIndex(cx, cy, cz int) int { return cx + g.nx*(cy+g.ny*cz) }

// Bounds returns the grid points the grid covers, in parent
// coordinates.
func (g *Grid) Bounds() vol.Box {
	return vol.Box{
		X0: g.Origin[0], Y0: g.Origin[1], Z0: g.Origin[2],
		X1: g.Origin[0] + g.Dims.NX, Y1: g.Origin[1] + g.Dims.NY, Z1: g.Origin[2] + g.Dims.NZ,
	}
}

// Range returns the normalized value bounds of the cell containing
// parent-grid position (x,y,z); ok=false outside the grid.
func (g *Grid) Range(x, y, z float64) (lo, hi float32, ok bool) {
	i, ok := g.CellAt(x, y, z)
	if !ok {
		return 0, 0, false
	}
	return g.minv[i], g.maxv[i], true
}

// CellAt returns the linear cell index containing parent-grid position
// (x,y,z); ok=false outside the grid.
func (g *Grid) CellAt(x, y, z float64) (int, bool) {
	if x < float64(g.Origin[0]) || y < float64(g.Origin[1]) || z < float64(g.Origin[2]) {
		return 0, false
	}
	cx := int(x-float64(g.Origin[0])) >> g.shift
	cy := int(y-float64(g.Origin[1])) >> g.shift
	cz := int(z-float64(g.Origin[2])) >> g.shift
	if cx >= g.nx || cy >= g.ny || cz >= g.nz {
		return 0, false
	}
	return g.cellIndex(cx, cy, cz), true
}

// EmptyMask evaluates maxAlpha over every cell's value interval and
// returns a per-cell transparency flag. Computed once per (grid,
// transfer function) pair and then consulted per sample in O(1), it
// amortizes the range-max queries the skipping decision needs.
func (g *Grid) EmptyMask(maxAlpha func(lo, hi float32) float32) []bool {
	mask := make([]bool, len(g.minv))
	for i := range mask {
		if g.minv[i] > g.maxv[i] {
			// Cell never touched (possible only for degenerate dims);
			// treat as empty.
			mask[i] = true
			continue
		}
		mask[i] = maxAlpha(g.minv[i], g.maxv[i]) <= 0
	}
	return mask
}

// ActiveBox returns the parent-coordinate bounding box of the grid
// points in cells that mask (from EmptyMask) leaves non-empty, or
// ok=false when every cell is empty. Any position CellAt places in a
// non-empty cell lies inside the box's continuous extent, so a ray
// caster may ignore everything beyond it.
func (g *Grid) ActiveBox(mask []bool) (box vol.Box, ok bool) {
	lo := [3]int{g.nx, g.ny, g.nz}
	hi := [3]int{-1, -1, -1}
	i := 0
	for cz := 0; cz < g.nz; cz++ {
		for cy := 0; cy < g.ny; cy++ {
			for cx := 0; cx < g.nx; cx++ {
				if !mask[i] {
					for a, c := range [3]int{cx, cy, cz} {
						lo[a] = min(lo[a], c)
						hi[a] = max(hi[a], c)
					}
				}
				i++
			}
		}
	}
	if hi[0] < 0 {
		return vol.Box{}, false
	}
	return vol.Box{
		X0: g.Origin[0] + lo[0]*g.cell, X1: g.Origin[0] + (hi[0]+1)*g.cell,
		Y0: g.Origin[1] + lo[1]*g.cell, Y1: g.Origin[1] + (hi[1]+1)*g.cell,
		Z0: g.Origin[2] + lo[2]*g.cell, Z1: g.Origin[2] + (hi[2]+1)*g.cell,
	}.Intersect(g.Bounds()), true
}

// CellExit returns the ray parameter at which the ray
// orig + t*dir leaves the cell containing the point at parameter t.
// The caller advances to just past this parameter when the cell is
// transparent.
func (g *Grid) CellExit(ox, oy, oz, dx, dy, dz, t float64) float64 {
	px := ox + dx*t - float64(g.Origin[0])
	py := oy + dy*t - float64(g.Origin[1])
	pz := oz + dz*t - float64(g.Origin[2])
	cs := float64(g.cell)
	inv := 1 / cs // a power of two: p*inv is exactly p/cs
	exit := math.Inf(1)
	axis := func(p, d float64) float64 {
		if d == 0 {
			return math.Inf(1)
		}
		c := math.Floor(p * inv)
		var bound float64
		if d > 0 {
			bound = (c + 1) * cs
		} else {
			bound = c * cs
		}
		return (bound - p) / d
	}
	if e := axis(px, dx); e < exit {
		exit = e
	}
	if e := axis(py, dy); e < exit {
		exit = e
	}
	if e := axis(pz, dz); e < exit {
		exit = e
	}
	if math.IsInf(exit, 1) || exit < 0 {
		return t
	}
	return t + exit
}

// Cells returns the macrocell counts (for tests and stats).
func (g *Grid) Cells() (nx, ny, nz int) { return g.nx, g.ny, g.nz }

// CellSize returns the cell edge length.
func (g *Grid) CellSize() int { return g.cell }
