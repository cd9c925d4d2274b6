package accel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/vol"
)

// whole views all of v.
func whole(t testing.TB, v *vol.Volume) *vol.Brick {
	t.Helper()
	b, err := v.Extract(v.Bounds(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// placed views a volume of dims d filled by f at offset origin inside
// a larger parent, so the grid's origin is not zero. The parent's
// range is [0,1], so the brick normalizes values in [0,1] to themselves.
func placed(t testing.TB, d vol.Dims, origin [3]int, f func(x, y, z int) float32) *vol.Brick {
	t.Helper()
	p := vol.MustNew(vol.Dims{NX: origin[0] + d.NX + 1, NY: origin[1] + d.NY + 1, NZ: origin[2] + d.NZ + 1})
	region := vol.Box{X0: origin[0], Y0: origin[1], Z0: origin[2], X1: origin[0] + d.NX, Y1: origin[1] + d.NY, Z1: origin[2] + d.NZ}
	p.Fill(func(x, y, z int) float32 {
		if !region.Contains(x, y, z) {
			return 0
		}
		return f(x-origin[0], y-origin[1], z-origin[2])
	})
	p.Min, p.Max = 0, 1
	b, err := p.Extract(region, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBuildCellCounts(t *testing.T) {
	v := vol.MustNew(vol.Dims{NX: 17, NY: 8, NZ: 9})
	g, err := Build(whole(t, v), 8)
	if err != nil {
		t.Fatal(err)
	}
	nx, ny, nz := g.nx, g.ny, g.nz
	if nx != 3 || ny != 1 || nz != 2 {
		t.Fatalf("cells %d %d %d", nx, ny, nz)
	}
	if g.cell != 8 {
		t.Fatal("cell size")
	}
	// Default cell size applies for 0.
	g2, err := Build(whole(t, v), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.cell != DefaultCellSize {
		t.Fatalf("default cell size %d", g2.cell)
	}
	// A cell that is not a power of two would need a division per
	// lookup; it is refused.
	for _, bad := range []int{-8, 3, 6, 12} {
		if _, err := Build(whole(t, v), bad); err == nil {
			t.Fatalf("cell size %d accepted", bad)
		}
	}
}

// rangeAt returns the value bounds of the cell containing parent-grid
// position (x,y,z); ok=false outside the grid.
func rangeAt(g *Grid, x, y, z float64) (lo, hi float32, ok bool) {
	i, ok := g.CellAt(x, y, z)
	if !ok {
		return 0, 0, false
	}
	return g.minv[i], g.maxv[i], true
}

func TestRangeCoversInterpolation(t *testing.T) {
	// A spike at a cell-boundary grid point must appear in BOTH
	// adjacent cells' ranges (interpolation support crosses the
	// boundary).
	v := vol.MustNew(vol.Dims{NX: 16, NY: 16, NZ: 16})
	v.Fill(func(x, y, z int) float32 {
		if x == 8 && y == 4 && z == 4 {
			return 1
		}
		return 0
	})
	g, err := Build(whole(t, v), 8)
	if err != nil {
		t.Fatal(err)
	}
	// Cell containing x=8 (second cell) and the cell before it.
	_, hi1, ok := rangeAt(g, 8.1, 4, 4)
	if !ok || hi1 != 1 {
		t.Fatalf("own cell max %v ok=%v", hi1, ok)
	}
	_, hi0, ok := rangeAt(g, 7.9, 4, 4)
	if !ok || hi0 != 1 {
		t.Fatalf("border cell max %v ok=%v — interpolation support not covered", hi0, ok)
	}
	// A far cell stays empty.
	lo, hi, ok := rangeAt(g, 1, 12, 12)
	if !ok || lo != 0 || hi != 0 {
		t.Fatalf("far cell [%v,%v] ok=%v", lo, hi, ok)
	}
}

func TestRangeOutside(t *testing.T) {
	b := placed(t, vol.Dims{NX: 8, NY: 8, NZ: 8}, [3]int{10, 10, 10}, func(x, y, z int) float32 { return 0 })
	g, err := Build(b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := rangeAt(g, 5, 5, 5); ok {
		t.Fatal("point before origin accepted")
	}
	if _, _, ok := rangeAt(g, 100, 12, 12); ok {
		t.Fatal("point past extent accepted")
	}
	if _, _, ok := rangeAt(g, 12, 12, 12); !ok {
		t.Fatal("interior point rejected")
	}
}

func TestCellExitAdvances(t *testing.T) {
	v := vol.MustNew(vol.Dims{NX: 32, NY: 32, NZ: 32})
	g, err := Build(whole(t, v), 8)
	if err != nil {
		t.Fatal(err)
	}
	// Ray along +x starting at x=1: first cell [0,8) exits at x=8,
	// i.e. t=7.
	exit := g.CellExit(1, 4, 4, 1, 0, 0, 0)
	if math.Abs(exit-7) > 1e-9 {
		t.Fatalf("exit = %v, want 7", exit)
	}
	// Diagonal ray: exit at the nearest face.
	exit = g.CellExit(1, 1, 1, 1, 1, 1, 0)
	if math.Abs(exit-7) > 1e-9 {
		t.Fatalf("diagonal exit = %v, want 7", exit)
	}
	// Negative direction.
	exit = g.CellExit(9, 4, 4, -1, 0, 0, 0)
	if math.Abs(exit-1) > 1e-9 {
		t.Fatalf("negative exit = %v, want 1", exit)
	}
	// Exit must be monotone: repeated stepping crosses all cells.
	tcur := 0.0
	for i := 0; i < 3; i++ {
		next := g.CellExit(0.5, 4, 4, 1, 0, 0, tcur)
		if next <= tcur {
			t.Fatalf("exit not advancing at %v", tcur)
		}
		tcur = next + 1e-6
	}
}

// buildReference is the per-voxel builder Build replaced, kept verbatim
// as the oracle: every point is normalized and folded into every cell
// whose interpolation support contains it.
func buildReference(v *vol.Volume, origin [3]int, normalize func(float32) float32, cellSize int) *Grid {
	g := &Grid{
		Origin: origin,
		Dims:   v.Dims,
		cell:   cellSize,
		nx:     (v.Dims.NX + cellSize - 1) / cellSize,
		ny:     (v.Dims.NY + cellSize - 1) / cellSize,
		nz:     (v.Dims.NZ + cellSize - 1) / cellSize,
	}
	n := g.nx * g.ny * g.nz
	g.minv = make([]float32, n)
	g.maxv = make([]float32, n)
	for i := range g.minv {
		g.minv[i] = float32(math.Inf(1))
		g.maxv[i] = float32(math.Inf(-1))
	}
	refRange := func(p, n int) (lo, hi int) {
		c := p / cellSize
		lo, hi = c, c
		if p%cellSize == 0 && c > 0 {
			lo = c - 1
		}
		if hi > n-1 {
			hi = n - 1
		}
		return lo, hi
	}
	for z := 0; z < v.Dims.NZ; z++ {
		for y := 0; y < v.Dims.NY; y++ {
			for x := 0; x < v.Dims.NX; x++ {
				val := normalize(v.At(x, y, z))
				cx0, cx1 := refRange(x, g.nx)
				cy0, cy1 := refRange(y, g.ny)
				cz0, cz1 := refRange(z, g.nz)
				for cz := cz0; cz <= cz1; cz++ {
					for cy := cy0; cy <= cy1; cy++ {
						for cx := cx0; cx <= cx1; cx++ {
							i := g.cellIndex(cx, cy, cz)
							if val < g.minv[i] {
								g.minv[i] = val
							}
							if val > g.maxv[i] {
								g.maxv[i] = val
							}
						}
					}
				}
			}
		}
	}
	return g
}

func genStep(t testing.TB, g datagen.Generator) *vol.Volume {
	t.Helper()
	v, err := g.Step(1)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// copyOf copies brick b's view into a standalone volume, the layout a
// brick had before bricks became views.
func copyOf(b *vol.Brick) *vol.Volume {
	c := vol.MustNew(b.Dims)
	for z := 0; z < b.Dims.NZ; z++ {
		for y := 0; y < b.Dims.NY; y++ {
			copy(c.Data[c.Index(0, y, z):], b.Row(y, z))
		}
	}
	return c
}

// boundsEqual compares two grids' layouts and per-cell bounds; NaN
// bounds must sit in the same cells.
func boundsEqual(t *testing.T, name string, got, want *Grid) {
	t.Helper()
	if got.Origin != want.Origin || got.Dims != want.Dims || got.cell != want.cell ||
		got.nx != want.nx || got.ny != want.ny || got.nz != want.nz {
		t.Fatalf("%s: layout %+v, want %+v", name, got, want)
	}
	same := func(a, b float32) bool { return a == b || (a != a && b != b) }
	for i := range want.minv {
		if !same(got.minv[i], want.minv[i]) || !same(got.maxv[i], want.maxv[i]) {
			t.Fatalf("%s: cell %d bounds [%v,%v], want [%v,%v]",
				name, i, got.minv[i], got.maxv[i], want.minv[i], want.maxv[i])
		}
	}
}

// Build over a brick view must produce bit-for-bit the grid of the
// per-voxel algorithm over the brick's data: same cell counts, same
// normalized bounds.
func TestBuildMatchesReference(t *testing.T) {
	jet := genStep(t, datagen.NewJetScaled(0.25, 2))
	vortex := genStep(t, datagen.NewVortexScaled(0.25, 2))
	ragged := vol.MustNew(vol.Dims{NX: 19, NY: 9, NZ: 13})
	ragged.Fill(func(x, y, z int) float32 { return float32(math.Sin(float64(x*31 + y*17 + z*5))) })
	jetBrick, err := jet.Extract(vol.Box{X0: 3, Y0: 0, Z0: 5, X1: 20, Y1: jet.Dims.NY, Z1: 30}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		b    *vol.Brick
	}{
		{"jet", whole(t, jet)},
		{"vortex", whole(t, vortex)},
		{"one-cell", placed(t, vol.Dims{NX: 5, NY: 3, NZ: 1}, [3]int{4, 5, 6},
			func(x, y, z int) float32 { return float32(x*7-y*3)*0.04 + 0.5 })},
		{"ragged", whole(t, ragged)},
		{"brick", jetBrick},
	}
	for _, tc := range cases {
		for _, cell := range []int{1, 2, 4, 8, 16} {
			got, err := Build(tc.b, cell)
			if err != nil {
				t.Fatal(err)
			}
			want := buildReference(copyOf(tc.b), tc.b.Origin, tc.b.Normalize, cell)
			boundsEqual(t, fmt.Sprintf("%s cell=%d", tc.name, cell), got, want)
		}
	}
}

// buildOverCopy is Build as it was when bricks were copies, kept
// verbatim (the origin and normalize arguments came from the brick) as
// the oracle for Build over views.
func buildOverCopy(v *vol.Volume, origin [3]int, normalize func(float32) float32, cellSize int) (*Grid, error) {
	if cellSize <= 0 {
		cellSize = DefaultCellSize
	}
	if !v.Dims.Valid() {
		return nil, fmt.Errorf("accel: invalid dims %v", v.Dims)
	}
	g := &Grid{
		Origin: origin,
		Dims:   v.Dims,
		cell:   cellSize,
		nx:     (v.Dims.NX + cellSize - 1) / cellSize,
		ny:     (v.Dims.NY + cellSize - 1) / cellSize,
		nz:     (v.Dims.NZ + cellSize - 1) / cellSize,
	}
	n := g.nx * g.ny * g.nz
	g.minv = make([]float32, n)
	g.maxv = make([]float32, n)
	posInf, negInf := float32(math.Inf(1)), float32(math.Inf(-1))
	for i := range g.minv {
		g.minv[i] = posInf
		g.maxv[i] = negInf
	}
	rowMin := make([]float32, g.nx)
	rowMax := make([]float32, g.nx)
	for z := 0; z < v.Dims.NZ; z++ {
		cz0, cz1 := cellRange(z, cellSize)
		for y := 0; y < v.Dims.NY; y++ {
			cy0, cy1 := cellRange(y, cellSize)
			off := v.Index(0, y, z)
			row := v.Data[off : off+v.Dims.NX]
			for cx := range rowMin {
				x0 := cx * cellSize
				lo, hi := posInf, negInf
				for _, val := range row[x0:min(x0+cellSize+1, len(row))] {
					if val < lo {
						lo = val
					}
					if val > hi {
						hi = val
					}
				}
				rowMin[cx], rowMax[cx] = lo, hi
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
		if g.minv[i] <= g.maxv[i] {
			g.minv[i] = normalize(g.minv[i])
			g.maxv[i] = normalize(g.maxv[i])
		}
	}
	return g, nil
}

// Grids built over views equal grids built over copies, also where the
// data holds NaN (never a bound; a cell of only NaN stays untouched),
// ±Inf, signed zeros, and a NaN parent range that makes every
// normalized bound NaN.
func TestBuildOverViewsMatchesCopies(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	special := vol.MustNew(vol.Dims{NX: 37, NY: 21, NZ: 19})
	special.Fill(func(x, y, z int) float32 {
		switch h := (x*73 + y*151 + z*283) % 29; {
		case h == 0:
			return nan
		case h == 1:
			return inf
		case h == 2:
			return -inf
		case h == 3:
			return float32(math.Copysign(0, -1))
		case h == 4:
			return 0
		}
		return float32(math.Sin(float64(x)*0.3+float64(y)*0.2)) * float32(z)
	})
	special.Min, special.Max = -20, 20 // a store's global range: finite
	// A block of only NaN: its interior cells are touched by nothing.
	for z := 8; z < 19; z++ {
		for y := 0; y < 21; y++ {
			for x := 16; x < 34; x++ {
				special.Set(x, y, z, nan)
			}
		}
	}
	infRange := special.Clone()
	infRange.Min, infRange.Max = -inf, inf // every normalized bound is NaN
	jet := genStep(t, datagen.NewJetScaled(0.25, 2))
	for name, v := range map[string]*vol.Volume{"special": special, "inf-range": infRange, "jet": jet} {
		boxes, err := vol.SplitKD(v.Dims, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, box := range append(boxes, v.Bounds()) {
			for _, ghost := range []int{0, 2} {
				b, err := v.Extract(box, ghost)
				if err != nil {
					t.Fatal(err)
				}
				for _, cell := range []int{1, 2, 4, 8} {
					got, err := Build(b, cell)
					if err != nil {
						t.Fatal(err)
					}
					want, err := buildOverCopy(copyOf(b), b.Origin, b.Normalize, cell)
					if err != nil {
						t.Fatal(err)
					}
					boundsEqual(t, fmt.Sprintf("%s box %d ghost %d cell %d", name, i, ghost, cell), got, want)
				}
			}
		}
	}
}

// ActiveBox is the exact hull of the non-empty cells, clamped to the
// grid's points, in parent coordinates.
func TestActiveBox(t *testing.T) {
	g, err := Build(placed(t, vol.Dims{NX: 20, NY: 16, NZ: 9}, [3]int{100, 200, 300}, func(x, y, z int) float32 { return 0 }), 8)
	if err != nil {
		t.Fatal(err)
	}
	nx, ny, nz := g.nx, g.ny, g.nz
	mask := make([]bool, nx*ny*nz)
	for i := range mask {
		mask[i] = true
	}
	if box, ok := g.ActiveBox(mask); ok {
		t.Fatalf("all-empty mask reported active box %v", box)
	}
	// One active cell in the middle of x, first of y and z.
	mask[g.cellIndex(1, 0, 0)] = false
	box, ok := g.ActiveBox(mask)
	if want := (vol.Box{X0: 108, X1: 116, Y0: 200, Y1: 208, Z0: 300, Z1: 308}); !ok || box != want {
		t.Fatalf("single cell: %v ok=%v, want %v", box, ok, want)
	}
	// Adding the last cell on every axis grows the hull to the grid's
	// ragged edge (20, 16 and 9 points), not to a cell multiple.
	mask[g.cellIndex(2, 1, 1)] = false
	box, ok = g.ActiveBox(mask)
	if want := (vol.Box{X0: 108, X1: 120, Y0: 200, Y1: 216, Z0: 300, Z1: 309}); !ok || box != want {
		t.Fatalf("two cells: %v ok=%v, want %v", box, ok, want)
	}
	// Every position CellAt puts in an active cell is inside the hull.
	for x := 100.0; x < 120; x += 0.5 {
		for y := 200.0; y < 216; y += 0.5 {
			for z := 300.0; z < 309; z += 0.5 {
				ci, in := g.CellAt(x, y, z)
				if !in || mask[ci] {
					continue
				}
				if x < float64(box.X0) || x > float64(box.X1) || y < float64(box.Y0) || y > float64(box.Y1) ||
					z < float64(box.Z0) || z > float64(box.Z1) {
					t.Fatalf("active position (%v,%v,%v) outside %v", x, y, z, box)
				}
			}
		}
	}
}

// BenchmarkBuild times the grid build for a brick the size render_lan's
// ranks see (the full-scale jet split four ways, ghosted).
func BenchmarkBuild(b *testing.B) {
	v := vol.MustNew(vol.Dims{NX: 66, NY: 129, NZ: 104})
	v.Fill(func(x, y, z int) float32 { return float32(math.Sin(float64(x)*0.1) * math.Cos(float64(y+z)*0.07)) })
	br := whole(b, v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(br, 0); err != nil {
			b.Fatal(err)
		}
	}
}
