package vol

import (
	"fmt"
	"math"
	"testing"
)

// The copying brick and the Volume sampler bricks used before they
// became views with their own sampler, kept verbatim (methods turned
// into functions) as the oracle Brick.Sample/Gradient must equal bit
// for bit.

type refBrick struct {
	Region     Box
	Data       *Volume
	Origin     [3]int
	ParentDims Dims
	ParentMin  float32
	ParentMax  float32
}

func refExtract(v *Volume, region Box, ghost int) (*refBrick, error) {
	region = region.Intersect(v.Bounds())
	if region.Empty() {
		return nil, fmt.Errorf("vol: empty extraction region")
	}
	g := Box{
		X0: maxInt(region.X0-ghost, 0), Y0: maxInt(region.Y0-ghost, 0), Z0: maxInt(region.Z0-ghost, 0),
		X1: minInt(region.X1+ghost, v.Dims.NX), Y1: minInt(region.Y1+ghost, v.Dims.NY), Z1: minInt(region.Z1+ghost, v.Dims.NZ),
	}
	sub, err := New(g.Dims())
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

func refSample(v *Volume, x, y, z float64) float32 {
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

func refGradient(v *Volume, x, y, z float64) (gx, gy, gz float32) {
	const h = 1.0
	gx = (refSample(v, x+h, y, z) - refSample(v, x-h, y, z)) * 0.5
	gy = (refSample(v, x, y+h, z) - refSample(v, x, y-h, z)) * 0.5
	gz = (refSample(v, x, y, z+h) - refSample(v, x, y, z-h)) * 0.5
	return
}

// sameBits compares float32s by bit pattern, so NaN results must match
// too.
func sameBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// fuzzVolume is a 13x10x9 field with the exact values of a smooth
// function plus a few sharp features, large enough for bricks with
// interior and clamped faces on every axis.
func fuzzVolume() *Volume {
	v := MustNew(Dims{13, 10, 9})
	v.Fill(func(x, y, z int) float32 {
		f := float32(math.Sin(float64(x)*0.7)*math.Cos(float64(y)*0.4+float64(z)*0.3)) * 50
		if (x+2*y+3*z)%11 == 0 {
			f = -f * 3
		}
		return f
	})
	return v
}

// checkAgainstRef compares the view brick with the copying reference at
// one parent-grid position.
func checkAgainstRef(t *testing.T, br *Brick, ref *refBrick, x, y, z float64) {
	t.Helper()
	if got, want := br.Sample(x, y, z), ref.Sample(x, y, z); !sameBits(got, want) {
		t.Fatalf("region %v: Sample(%v,%v,%v) = %v, reference %v", br.Region, x, y, z, got, want)
	}
	gx, gy, gz := br.Gradient(x, y, z)
	wx, wy, wz := ref.Gradient(x, y, z)
	if !sameBits(gx, wx) || !sameBits(gy, wy) || !sameBits(gz, wz) {
		t.Fatalf("region %v: Gradient(%v,%v,%v) = (%v,%v,%v), reference (%v,%v,%v)", br.Region, x, y, z, gx, gy, gz, wx, wy, wz)
	}
}

// fuzzRegions are the owned regions FuzzBrickSample picks from: the
// whole volume, interior bricks, bricks touching each face, and a
// one-point brick.
var fuzzRegions = []Box{
	{0, 0, 0, 13, 10, 9},
	{3, 2, 2, 9, 7, 6},
	{0, 0, 0, 4, 10, 9},
	{9, 5, 4, 13, 10, 9},
	{6, 4, 4, 7, 5, 5},
}

// FuzzBrickSample checks the view sampler against the copying
// reference at arbitrary float64 coordinates — negative, past the
// extent, non-finite, and x±1 crossing a power of two — for bricks with
// ghost layers 0-3.
func FuzzBrickSample(f *testing.F) {
	f.Add(uint8(0), uint8(0), 3.5, 4.2, 5.9)
	f.Add(uint8(1), uint8(1), -7.25, 1e9, 0.0)
	f.Add(uint8(2), uint8(2), 7.0, 8.0, 3.0000001)
	f.Add(uint8(3), uint8(3), 15.9999999, -0.5, 1.0)
	f.Add(uint8(4), uint8(2), 6.5, 4.999999999, math.Inf(1))
	f.Add(uint8(1), uint8(0), math.Inf(-1), 2.0, 8.0)
	v := fuzzVolume()
	f.Fuzz(func(t *testing.T, ri, ghost uint8, x, y, z float64) {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(z) {
			t.Skip("a NaN coordinate has no grid cell") // int(NaN) is undefined in both samplers
		}
		region := fuzzRegions[int(ri)%len(fuzzRegions)]
		g := int(ghost % 4)
		br, err := v.Extract(region, g)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refExtract(v, region, g)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstRef(t, br, ref, x, y, z)
	})
}

// The view sampler equals the copying reference over a dense lattice
// of positions around every brick of several splits, ghost layers 0-2,
// including positions outside the view and exactly on grid planes.
func TestBrickMatchesCopyingReference(t *testing.T) {
	v := fuzzVolume()
	for _, n := range []int{1, 2, 4, 8} {
		boxes, err := SplitKD(v.Dims, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, box := range boxes {
			for ghost := 0; ghost <= 2; ghost++ {
				br, err := v.Extract(box, ghost)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := refExtract(v, box, ghost)
				if err != nil {
					t.Fatal(err)
				}
				if br.Origin != ref.Origin || br.Dims != ref.Data.Dims || br.Region != ref.Region {
					t.Fatalf("%v ghost %d: placement %v %v %v, reference %v %v %v",
						box, ghost, br.Origin, br.Dims, br.Region, ref.Origin, ref.Data.Dims, ref.Region)
				}
				for z := -1.5; z <= float64(v.Dims.NZ)+0.5; z += 0.75 {
					for y := -1.25; y <= float64(v.Dims.NY)+0.5; y += 0.625 {
						for x := -2.0; x <= float64(v.Dims.NX)+1; x += 0.5 {
							checkAgainstRef(t, br, ref, x, y, z)
						}
					}
				}
			}
		}
	}
}

// A view reads the same values the reference copied.
func TestBrickRowsMatchCopy(t *testing.T) {
	v := fuzzVolume()
	for _, ghost := range []int{0, 2} {
		br, err := v.Extract(Box{2, 1, 3, 11, 8, 7}, ghost)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refExtract(v, Box{2, 1, 3, 11, 8, 7}, ghost)
		if err != nil {
			t.Fatal(err)
		}
		for z := 0; z < br.Dims.NZ; z++ {
			for y := 0; y < br.Dims.NY; y++ {
				row := br.Row(y, z)
				if len(row) != br.Dims.NX || cap(row) != br.Dims.NX {
					t.Fatalf("row (%d,%d): len %d cap %d, want %d", y, z, len(row), cap(row), br.Dims.NX)
				}
				for x, val := range row {
					if val != ref.Data.At(x, y, z) {
						t.Fatalf("ghost %d: view (%d,%d,%d) = %v, copy %v", ghost, x, y, z, val, ref.Data.At(x, y, z))
					}
				}
			}
		}
	}
}

// Extract is a view: its allocations do not grow with the brick.
func TestExtractAllocsIndependentOfSize(t *testing.T) {
	small := MustNew(Dims{4, 4, 4})
	large := MustNew(Dims{96, 96, 96})
	allocs := func(v *Volume) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := v.Extract(v.Bounds(), 2); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(large); a != b || b > 1 {
		t.Fatalf("Extract allocs: %v for 4^3, %v for 96^3; want equal and at most 1", a, b)
	}
}

// A block read on its own and placed where it sits in the parent
// samples exactly like the parent's brick of the same region; a region
// the block does not hold is refused.
func TestPlaceMatchesExtract(t *testing.T) {
	v := fuzzVolume()
	region, ghost := Box{3, 2, 1, 9, 8, 6}, 2
	want, err := v.Extract(region, ghost)
	if err != nil {
		t.Fatal(err)
	}
	block, err := refExtract(v, region, ghost)
	if err != nil {
		t.Fatal(err)
	}
	sub := block.Data
	sub.Min, sub.Max = v.Min, v.Max
	got, err := sub.Place(want.Origin, region, v.Dims)
	if err != nil {
		t.Fatal(err)
	}
	if got.Region != want.Region || got.Origin != want.Origin || got.Dims != want.Dims || got.ParentDims != want.ParentDims ||
		got.ParentMin != want.ParentMin || got.ParentMax != want.ParentMax {
		t.Fatalf("placed %+v, extracted %+v", got, want)
	}
	for z := -1.0; z <= float64(v.Dims.NZ); z += 0.7 {
		for y := -1.0; y <= float64(v.Dims.NY); y += 0.55 {
			for x := -1.0; x <= float64(v.Dims.NX); x += 0.45 {
				if a, b := got.Sample(x, y, z), want.Sample(x, y, z); !sameBits(a, b) {
					t.Fatalf("Sample(%v,%v,%v) = %v placed, %v extracted", x, y, z, a, b)
				}
				ax, ay, az := got.Gradient(x, y, z)
				bx, by, bz := want.Gradient(x, y, z)
				if !sameBits(ax, bx) || !sameBits(ay, by) || !sameBits(az, bz) {
					t.Fatalf("Gradient(%v,%v,%v) differs", x, y, z)
				}
			}
		}
	}
	if _, err := sub.Place(want.Origin, Box{3, 2, 1, 12, 8, 6}, v.Dims); err == nil {
		t.Fatal("placed a region beyond the block")
	}
	if _, err := sub.Place(want.Origin, Box{}, v.Dims); err == nil {
		t.Fatal("placed an empty region")
	}
}
