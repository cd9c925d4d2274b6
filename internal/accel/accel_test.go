package accel

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/vol"
)

func ident(v float32) float32 { return v }

func TestBuildCellCounts(t *testing.T) {
	v := vol.MustNew(vol.Dims{NX: 17, NY: 8, NZ: 9})
	g, err := Build(v, [3]int{0, 0, 0}, ident, 8)
	if err != nil {
		t.Fatal(err)
	}
	nx, ny, nz := g.Cells()
	if nx != 3 || ny != 1 || nz != 2 {
		t.Fatalf("cells %d %d %d", nx, ny, nz)
	}
	if g.CellSize() != 8 {
		t.Fatal("cell size")
	}
	// Default cell size applies for 0.
	g2, err := Build(v, [3]int{0, 0, 0}, ident, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.CellSize() != DefaultCellSize {
		t.Fatalf("default cell size %d", g2.CellSize())
	}
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
	g, err := Build(v, [3]int{0, 0, 0}, ident, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Cell containing x=8 (second cell) and the cell before it.
	_, hi1, ok := g.Range(8.1, 4, 4)
	if !ok || hi1 != 1 {
		t.Fatalf("own cell max %v ok=%v", hi1, ok)
	}
	_, hi0, ok := g.Range(7.9, 4, 4)
	if !ok || hi0 != 1 {
		t.Fatalf("border cell max %v ok=%v — interpolation support not covered", hi0, ok)
	}
	// A far cell stays empty.
	lo, hi, ok := g.Range(1, 12, 12)
	if !ok || lo != 0 || hi != 0 {
		t.Fatalf("far cell [%v,%v] ok=%v", lo, hi, ok)
	}
}

func TestRangeOutside(t *testing.T) {
	v := vol.MustNew(vol.Dims{NX: 8, NY: 8, NZ: 8})
	g, err := Build(v, [3]int{10, 10, 10}, ident, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := g.Range(5, 5, 5); ok {
		t.Fatal("point before origin accepted")
	}
	if _, _, ok := g.Range(100, 12, 12); ok {
		t.Fatal("point past extent accepted")
	}
	if _, _, ok := g.Range(12, 12, 12); !ok {
		t.Fatal("interior point rejected")
	}
}

func TestCellExitAdvances(t *testing.T) {
	v := vol.MustNew(vol.Dims{NX: 32, NY: 32, NZ: 32})
	g, err := Build(v, [3]int{0, 0, 0}, ident, 8)
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

// The row-slice Build must produce bit-for-bit the grid of the
// per-voxel algorithm: same cell counts, same normalized bounds.
func TestBuildMatchesReference(t *testing.T) {
	oneCell := vol.MustNew(vol.Dims{NX: 5, NY: 3, NZ: 1})
	oneCell.Fill(func(x, y, z int) float32 { return float32(x*7-y*3) * 0.25 })
	ragged := vol.MustNew(vol.Dims{NX: 19, NY: 9, NZ: 13})
	ragged.Fill(func(x, y, z int) float32 { return float32(math.Sin(float64(x*31 + y*17 + z*5))) })
	jet := genStep(t, datagen.NewJetScaled(0.25, 2))
	vortex := genStep(t, datagen.NewVortexScaled(0.25, 2))
	jetBrick, err := jet.Extract(vol.Box{X0: 3, Y0: 0, Z0: 5, X1: 20, Y1: jet.Dims.NY, Z1: 30}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		v         *vol.Volume
		origin    [3]int
		normalize func(float32) float32
	}{
		{"jet", jet, [3]int{}, jet.Normalize},
		{"vortex", vortex, [3]int{}, vortex.Normalize},
		{"one-cell", oneCell, [3]int{4, 5, 6}, oneCell.Normalize},
		{"ragged", ragged, [3]int{}, ragged.Normalize},
		{"brick", jetBrick.Data, jetBrick.Origin, jetBrick.Normalize},
	}
	for _, tc := range cases {
		for _, cell := range []int{1, 3, 8} {
			got, err := Build(tc.v, tc.origin, tc.normalize, cell)
			if err != nil {
				t.Fatal(err)
			}
			want := buildReference(tc.v, tc.origin, tc.normalize, cell)
			if got.Origin != want.Origin || got.Dims != want.Dims || got.cell != want.cell ||
				got.nx != want.nx || got.ny != want.ny || got.nz != want.nz {
				t.Fatalf("%s cell=%d: layout %+v, want %+v", tc.name, cell, got, want)
			}
			for i := range want.minv {
				if got.minv[i] != want.minv[i] || got.maxv[i] != want.maxv[i] {
					t.Fatalf("%s cell=%d: cell %d bounds [%v,%v], want [%v,%v]",
						tc.name, cell, i, got.minv[i], got.maxv[i], want.minv[i], want.maxv[i])
				}
			}
		}
	}
}

// ActiveBox is the exact hull of the non-empty cells, clamped to the
// grid's points, in parent coordinates.
func TestActiveBox(t *testing.T) {
	v := vol.MustNew(vol.Dims{NX: 20, NY: 16, NZ: 9})
	g, err := Build(v, [3]int{100, 200, 300}, ident, 8)
	if err != nil {
		t.Fatal(err)
	}
	nx, ny, nz := g.Cells()
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(v, [3]int{}, v.Normalize, 0); err != nil {
			b.Fatal(err)
		}
	}
}
