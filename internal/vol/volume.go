// Package vol provides regular-grid scalar volume data structures used
// throughout the rendering pipeline: storage, subdivision into bricks
// for distribution to processor nodes, and the ray caster's one
// sampler — trilinear interpolation and central-difference gradients on
// a brick, which is a view of its volume's data, not a copy.
//
// A Volume stores one scalar value per grid point in x-fastest order
// (index = x + y*nx + z*nx*ny), matching the raw layout the paper's
// datasets use. Values are float32; transfer functions normalize using
// the volume's value range.
package vol

import (
	"errors"
	"fmt"
	"math"
)

// Dims describes the grid resolution of a volume.
type Dims struct {
	NX, NY, NZ int
}

// Count returns the total number of grid points.
func (d Dims) Count() int { return d.NX * d.NY * d.NZ }

// Valid reports whether all extents are positive.
func (d Dims) Valid() bool { return d.NX > 0 && d.NY > 0 && d.NZ > 0 }

// String formats the dimensions as "NXxNYxNZ".
func (d Dims) String() string { return fmt.Sprintf("%dx%dx%d", d.NX, d.NY, d.NZ) }

// Bytes returns the storage size in bytes for a float32 scalar field of
// these dimensions.
func (d Dims) Bytes() int64 { return int64(d.Count()) * 4 }

// Volume is a regular-grid scalar field. The physical domain is the
// axis-aligned box [0,NX-1]x[0,NY-1]x[0,NZ-1] in grid coordinates; the
// renderer maps grid coordinates into world space.
type Volume struct {
	Dims Dims
	// Data holds the scalar values in x-fastest order. len(Data) ==
	// Dims.Count().
	Data []float32
	// Min and Max cache the value range (see UpdateRange).
	Min, Max float32
}

// ErrDims reports an invalid dimension specification.
var ErrDims = errors.New("vol: invalid dimensions")

// New allocates a zero-filled volume with the given dimensions.
func New(d Dims) (*Volume, error) {
	if !d.Valid() {
		return nil, fmt.Errorf("%w: %v", ErrDims, d)
	}
	return &Volume{Dims: d, Data: make([]float32, d.Count())}, nil
}

// MustNew is New but panics on error; for tests and generators with
// known-good dimensions.
func MustNew(d Dims) *Volume {
	v, err := New(d)
	if err != nil {
		panic(err)
	}
	return v
}

// FromData wraps an existing data slice; it must have exactly
// d.Count() elements.
func FromData(d Dims, data []float32) (*Volume, error) {
	if !d.Valid() {
		return nil, fmt.Errorf("%w: %v", ErrDims, d)
	}
	if len(data) != d.Count() {
		return nil, fmt.Errorf("vol: data length %d != %d for dims %v", len(data), d.Count(), d)
	}
	v := &Volume{Dims: d, Data: data}
	v.UpdateRange()
	return v, nil
}

// Index returns the linear index of grid point (x,y,z). No bounds
// checking; callers must pass in-range coordinates.
func (v *Volume) Index(x, y, z int) int {
	return x + v.Dims.NX*(y+v.Dims.NY*z)
}

// At returns the value at grid point (x,y,z).
func (v *Volume) At(x, y, z int) float32 { return v.Data[v.Index(x, y, z)] }

// Set stores val at grid point (x,y,z).
func (v *Volume) Set(x, y, z int, val float32) { v.Data[v.Index(x, y, z)] = val }

// AtClamped returns the value at (x,y,z) with coordinates clamped into
// range, so out-of-bounds lookups repeat the boundary value.
func (v *Volume) AtClamped(x, y, z int) float32 {
	x = clampInt(x, 0, v.Dims.NX-1)
	y = clampInt(y, 0, v.Dims.NY-1)
	z = clampInt(z, 0, v.Dims.NZ-1)
	return v.Data[v.Index(x, y, z)]
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// UpdateRange recomputes Min and Max from the data. Call after bulk
// writes to Data.
func (v *Volume) UpdateRange() {
	if len(v.Data) == 0 {
		v.Min, v.Max = 0, 0
		return
	}
	mn, mx := v.Data[0], v.Data[0]
	for _, x := range v.Data {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	v.Min, v.Max = mn, mx
}

// Normalize maps a raw value into [0,1] using the cached range. A
// degenerate range maps everything to 0.
func (v *Volume) Normalize(val float32) float32 {
	if v.Max <= v.Min {
		return 0
	}
	f := (val - v.Min) / (v.Max - v.Min)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Fill sets every grid point from f(x,y,z) and refreshes the range.
func (v *Volume) Fill(f func(x, y, z int) float32) {
	i := 0
	for z := 0; z < v.Dims.NZ; z++ {
		for y := 0; y < v.Dims.NY; y++ {
			for x := 0; x < v.Dims.NX; x++ {
				v.Data[i] = f(x, y, z)
				i++
			}
		}
	}
	v.UpdateRange()
}

// Clone returns a deep copy of the volume.
func (v *Volume) Clone() *Volume {
	c := &Volume{Dims: v.Dims, Data: make([]float32, len(v.Data)), Min: v.Min, Max: v.Max}
	copy(c.Data, v.Data)
	return c
}

// Equal reports whether two volumes have identical dimensions and data.
func (v *Volume) Equal(o *Volume) bool {
	if v.Dims != o.Dims {
		return false
	}
	for i := range v.Data {
		if v.Data[i] != o.Data[i] {
			return false
		}
	}
	return true
}

// RMS returns the root-mean-square of the field, a cheap content
// fingerprint used by tests.
func (v *Volume) RMS() float64 {
	if len(v.Data) == 0 {
		return 0
	}
	var s float64
	for _, x := range v.Data {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s / float64(len(v.Data)))
}
