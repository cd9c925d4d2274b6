package vol

import (
	"fmt"
)

// Box is an axis-aligned integer region of grid points, inclusive lower
// bound, exclusive upper bound: [X0,X1) x [Y0,Y1) x [Z0,Z1).
type Box struct {
	X0, Y0, Z0 int
	X1, Y1, Z1 int
}

// Dims returns the extents of the box.
func (b Box) Dims() Dims { return Dims{b.X1 - b.X0, b.Y1 - b.Y0, b.Z1 - b.Z0} }

// Count returns the number of grid points inside the box.
func (b Box) Count() int { return b.Dims().Count() }

// Empty reports whether the box contains no grid points.
func (b Box) Empty() bool {
	return b.X1 <= b.X0 || b.Y1 <= b.Y0 || b.Z1 <= b.Z0
}

// Contains reports whether grid point (x,y,z) lies inside the box.
func (b Box) Contains(x, y, z int) bool {
	return x >= b.X0 && x < b.X1 && y >= b.Y0 && y < b.Y1 && z >= b.Z0 && z < b.Z1
}

// Intersect returns the intersection of two boxes (possibly empty).
func (b Box) Intersect(o Box) Box {
	r := Box{
		X0: maxInt(b.X0, o.X0), Y0: maxInt(b.Y0, o.Y0), Z0: maxInt(b.Z0, o.Z0),
		X1: minInt(b.X1, o.X1), Y1: minInt(b.Y1, o.Y1), Z1: minInt(b.Z1, o.Z1),
	}
	if r.Empty() {
		return Box{}
	}
	return r
}

// Center returns the box center in continuous grid coordinates.
func (b Box) Center() (x, y, z float64) {
	return float64(b.X0+b.X1) / 2, float64(b.Y0+b.Y1) / 2, float64(b.Z0+b.Z1) / 2
}

func (b Box) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)x[%d,%d)", b.X0, b.X1, b.Y0, b.Y1, b.Z0, b.Z1)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Bounds returns the full-volume box.
func (v *Volume) Bounds() Box {
	return Box{X1: v.Dims.NX, Y1: v.Dims.NY, Z1: v.Dims.NZ}
}

// Brick is one processor node's subvolume: a view of a Box region
// (with optional ghost layer) of a volume's data plus its placement
// inside the parent volume. A brick shares the volume's backing slice
// instead of copying it, so the data must not change while the brick
// is in use. Sampling coordinates are in parent-volume grid space. The
// exported fields describe the view Extract or Place set up; changing
// them does not move it.
type Brick struct {
	// Region is the owned region in parent grid coordinates
	// (excluding ghost cells).
	Region Box
	// Origin is the parent grid coordinate of the view's (0,0,0), i.e.
	// Region expanded by the ghost layer and clamped to the parent.
	Origin [3]int
	// Dims is the extent of the view, ghost cells included.
	Dims Dims
	// ParentDims and ParentMin/ParentMax carry the parent volume's
	// dimensions and value range so bricks normalize identically.
	ParentDims Dims
	ParentMin  float32
	ParentMax  float32

	// The sampler's per-axis constants, kept as floats so a sample
	// converts no integers: Origin, and the view's last grid point.
	org, last [3]float64
	data      []float32 // the viewed volume's x-fastest values
	base      int       // index in data of the view's (0,0,0)
	sy, sz    int       // index strides of y and z in data
}

// Extract returns a view of the box region, expanded by ghost cells on
// each side (clamped to the volume). It copies no data: the brick reads
// v.Data in place. Ghost cells give the ray caster enough neighborhood
// for interpolation and gradients at brick boundaries.
func (v *Volume) Extract(region Box, ghost int) (*Brick, error) {
	region = region.Intersect(v.Bounds())
	if region.Empty() {
		return nil, fmt.Errorf("vol: empty extraction region")
	}
	g := Box{
		X0: maxInt(region.X0-ghost, 0), Y0: maxInt(region.Y0-ghost, 0), Z0: maxInt(region.Z0-ghost, 0),
		X1: minInt(region.X1+ghost, v.Dims.NX), Y1: minInt(region.Y1+ghost, v.Dims.NY), Z1: minInt(region.Z1+ghost, v.Dims.NZ),
	}
	return v.view(g, [3]int{g.X0, g.Y0, g.Z0}, region, v.Dims), nil
}

// Place views all of v as the ghosted extent of a brick that owns
// region of a parent volume with dims parent, v's (0,0,0) sitting at
// parent grid point origin — how a node wraps the block it read from
// storage itself. Like Extract it copies nothing, and the brick
// normalizes with v's range.
func (v *Volume) Place(origin [3]int, region Box, parent Dims) (*Brick, error) {
	placed := Box{
		X0: origin[0], Y0: origin[1], Z0: origin[2],
		X1: origin[0] + v.Dims.NX, Y1: origin[1] + v.Dims.NY, Z1: origin[2] + v.Dims.NZ,
	}
	if region.Empty() || region.Intersect(placed) != region {
		return nil, fmt.Errorf("vol: region %v outside placed volume %v", region, placed)
	}
	return v.view(v.Bounds(), origin, region, parent), nil
}

// view returns the brick viewing box g of v (in v's grid coordinates),
// with g's low corner at parent grid point origin.
func (v *Volume) view(g Box, origin [3]int, region Box, parent Dims) *Brick {
	d := g.Dims()
	return &Brick{
		Region:     region,
		Origin:     origin,
		Dims:       d,
		ParentDims: parent,
		ParentMin:  v.Min,
		ParentMax:  v.Max,
		org:        [3]float64{float64(origin[0]), float64(origin[1]), float64(origin[2])},
		last:       [3]float64{float64(d.NX - 1), float64(d.NY - 1), float64(d.NZ - 1)},
		data:       v.Data,
		base:       v.Index(g.X0, g.Y0, g.Z0),
		sy:         v.Dims.NX,
		sz:         v.Dims.NX * v.Dims.NY,
	}
}

// Row returns the view's x-row at view coordinates (y, z): Dims.NX
// values, aliasing the parent's data.
func (b *Brick) Row(y, z int) []float32 {
	off := b.base + y*b.sy + z*b.sz
	return b.data[off : off+b.Dims.NX : off+b.Dims.NX]
}

// axis is one axis of a trilinear stencil: the data offsets of the two
// grid planes a coordinate falls between and the blend weight.
type axis struct {
	o0, o1 int
	f      float32
}

// axisAt clamps view coordinate u into [0, last] and returns its
// stencil axis for index stride s. The upper plane is the next one,
// except on the last plane, which blends with itself.
func axisAt(u, last float64, s int) axis {
	if u < 0 {
		u = 0
	} else if u > last {
		u = last
	}
	i0 := int(u)
	o1 := (i0 + 1) * s
	if float64(i0) == last {
		o1 = i0 * s
	}
	return axis{i0 * s, o1, float32(u - float64(i0))}
}

// trilinear blends the eight grid points the three stencil axes select,
// x first, then y, then z.
func (b *Brick) trilinear(ax, ay, az axis) float32 {
	d := b.data
	i00, i10 := b.base+ay.o0+az.o0, b.base+ay.o1+az.o0
	i01, i11 := b.base+ay.o0+az.o1, b.base+ay.o1+az.o1
	c00 := d[i00+ax.o0] + ax.f*(d[i00+ax.o1]-d[i00+ax.o0])
	c10 := d[i10+ax.o0] + ax.f*(d[i10+ax.o1]-d[i10+ax.o0])
	c01 := d[i01+ax.o0] + ax.f*(d[i01+ax.o1]-d[i01+ax.o0])
	c11 := d[i11+ax.o0] + ax.f*(d[i11+ax.o1]-d[i11+ax.o0])
	c0 := c00 + ay.f*(c10-c00)
	c1 := c01 + ay.f*(c11-c01)
	return c0 + az.f*(c1-c0)
}

// Sample trilinearly interpolates the brick at parent-volume grid
// coordinates. Coordinates outside the view clamp to its border. It is
// the ray caster's per-step call, so it spells out trilinear's body
// rather than paying for a second call.
func (b *Brick) Sample(x, y, z float64) float32 {
	ax := axisAt(x-b.org[0], b.last[0], 1)
	ay := axisAt(y-b.org[1], b.last[1], b.sy)
	az := axisAt(z-b.org[2], b.last[2], b.sz)
	d := b.data
	i00, i10 := b.base+ay.o0+az.o0, b.base+ay.o1+az.o0
	i01, i11 := b.base+ay.o0+az.o1, b.base+ay.o1+az.o1
	c00 := d[i00+ax.o0] + ax.f*(d[i00+ax.o1]-d[i00+ax.o0])
	c10 := d[i10+ax.o0] + ax.f*(d[i10+ax.o1]-d[i10+ax.o0])
	c01 := d[i01+ax.o0] + ax.f*(d[i01+ax.o1]-d[i01+ax.o0])
	c11 := d[i11+ax.o0] + ax.f*(d[i11+ax.o1]-d[i11+ax.o0])
	c0 := c00 + ay.f*(c10-c00)
	c1 := c01 + ay.f*(c11-c01)
	return c0 + az.f*(c1-c0)
}

// Gradient estimates the scalar-field gradient at parent-volume grid
// coordinates by central differences of trilinear samples one grid
// unit apart; the result is used for shading. Each difference moves
// along one axis only, so its samples share the other two axes'
// stencil terms with the centre.
func (b *Brick) Gradient(x, y, z float64) (gx, gy, gz float32) {
	const h = 1.0
	x -= b.org[0]
	y -= b.org[1]
	z -= b.org[2]
	lx, ly, lz := b.last[0], b.last[1], b.last[2]
	ax, ay, az := axisAt(x, lx, 1), axisAt(y, ly, b.sy), axisAt(z, lz, b.sz)
	gx = (b.trilinear(axisAt(x+h, lx, 1), ay, az) - b.trilinear(axisAt(x-h, lx, 1), ay, az)) * 0.5
	gy = (b.trilinear(ax, axisAt(y+h, ly, b.sy), az) - b.trilinear(ax, axisAt(y-h, ly, b.sy), az)) * 0.5
	gz = (b.trilinear(ax, ay, axisAt(z+h, lz, b.sz)) - b.trilinear(ax, ay, axisAt(z-h, lz, b.sz))) * 0.5
	return
}

// Normalize maps a raw value to [0,1] using the parent volume's range,
// so all bricks of one volume classify consistently.
func (b *Brick) Normalize(val float32) float32 {
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

// SplitKD partitions the full-volume bounds into n boxes of
// near-equal grid-point counts by recursive longest-axis bisection
// (a k-d style decomposition). n need not be a power of two: at each
// step the region splits into two parts whose target counts are
// ceil(n/2) and floor(n/2), with the cut plane placed proportionally.
// The returned boxes tile the volume exactly, in recursion order: for
// power-of-two n, index bit k (counting from the least-significant
// bit) selects the side of the cut at recursion depth log2(n)-1-k.
// Binary-swap compositing depends on this layout — boxes assigned to
// ranks in index order make every swap stage pair two plane-separated
// subtrees.
func SplitKD(d Dims, n int) ([]Box, error) {
	if !d.Valid() {
		return nil, fmt.Errorf("%w: %v", ErrDims, d)
	}
	if n < 1 {
		return nil, fmt.Errorf("vol: split count %d < 1", n)
	}
	if n > d.Count() {
		return nil, fmt.Errorf("vol: cannot split %v into %d nonempty boxes", d, n)
	}
	full := Box{X1: d.NX, Y1: d.NY, Z1: d.NZ}
	out := make([]Box, 0, n)
	splitRec(full, n, &out)
	return out, nil
}

func splitRec(b Box, n int, out *[]Box) {
	if n == 1 {
		*out = append(*out, b)
		return
	}
	nHi := n / 2
	nLo := n - nHi
	d := b.Dims()
	// Choose the longest axis that can still be cut.
	axis := 0
	ext := [3]int{d.NX, d.NY, d.NZ}
	for a := 1; a < 3; a++ {
		if ext[a] > ext[axis] {
			axis = a
		}
	}
	// Place the cut proportionally to the target counts, keeping at
	// least one plane on each side and leaving each side enough grid
	// points to host its share of boxes.
	span := ext[axis]
	cut := span * nLo / n
	if cut < 1 {
		cut = 1
	}
	if cut > span-1 {
		cut = span - 1
	}
	lo, hi := b, b
	switch axis {
	case 0:
		lo.X1 = b.X0 + cut
		hi.X0 = b.X0 + cut
	case 1:
		lo.Y1 = b.Y0 + cut
		hi.Y0 = b.Y0 + cut
	case 2:
		lo.Z1 = b.Z0 + cut
		hi.Z0 = b.Z0 + cut
	}
	// Guard against a side too small for its box count (possible with
	// extreme aspect ratios): rebalance counts toward the larger side.
	for nLo > lo.Count() {
		nLo--
		nHi++
	}
	for nHi > hi.Count() {
		nHi--
		nLo++
	}
	splitRec(lo, nLo, out)
	splitRec(hi, nHi, out)
}
