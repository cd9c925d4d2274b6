// Package tf implements transfer functions: the mapping from
// normalized scalar values to color and opacity used by the volume
// renderer. Transfer functions are built from piecewise-linear control
// points and baked into lookup tables for fast classification; they
// can be serialized so the remote viewer can push a new color map to
// the render server as a user-control event.
package tf

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
)

// Point is one control point: at normalized value V (in [0,1]) the
// transfer function takes color (R,G,B) and opacity A (all in [0,1]).
type Point struct {
	V          float32
	R, G, B, A float32
}

// TF is a piecewise-linear transfer function.
type TF struct {
	points []Point
	// lut is the baked lookup table, lutSize entries of RGBA.
	lut []float32
	// alphaMax[b] is the max opacity within LUT block b (for MaxAlpha
	// range queries).
	alphaMax []float32
}

// LUTSize is the number of entries in the baked classification table.
const LUTSize = 1024

// alphaBlock is the LUT block size of the opacity range-max index.
const alphaBlock = 32

// New builds a transfer function from control points. Points are
// sorted by V; at least two points are required, and V values are
// clamped into [0,1].
func New(points []Point) (*TF, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("tf: need at least 2 control points, got %d", len(points))
	}
	ps := make([]Point, len(points))
	copy(ps, points)
	for i := range ps {
		ps[i].V = clamp01(ps[i].V)
		ps[i].R = clamp01(ps[i].R)
		ps[i].G = clamp01(ps[i].G)
		ps[i].B = clamp01(ps[i].B)
		ps[i].A = clamp01(ps[i].A)
	}
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].V < ps[j].V })
	t := &TF{points: ps}
	t.bake()
	return t, nil
}

// MustNew is New but panics on error, for preset construction.
func MustNew(points []Point) *TF {
	t, err := New(points)
	if err != nil {
		panic(err)
	}
	return t
}

func clamp01(x float32) float32 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func (t *TF) bake() {
	t.lut = make([]float32, LUTSize*4)
	for i := 0; i < LUTSize; i++ {
		v := float32(i) / float32(LUTSize-1)
		r, g, b, a := t.evalExact(v)
		t.lut[i*4] = r
		t.lut[i*4+1] = g
		t.lut[i*4+2] = b
		t.lut[i*4+3] = a
	}
	t.alphaMax = make([]float32, (LUTSize+alphaBlock-1)/alphaBlock)
	for i := 0; i < LUTSize; i++ {
		b := i / alphaBlock
		if a := t.lut[i*4+3]; a > t.alphaMax[b] {
			t.alphaMax[b] = a
		}
	}
}

// evalExact evaluates the piecewise-linear function without the LUT.
func (t *TF) evalExact(v float32) (r, g, b, a float32) {
	ps := t.points
	if v <= ps[0].V {
		p := ps[0]
		return p.R, p.G, p.B, p.A
	}
	if v >= ps[len(ps)-1].V {
		p := ps[len(ps)-1]
		return p.R, p.G, p.B, p.A
	}
	// Binary search for the segment containing v.
	i := sort.Search(len(ps), func(i int) bool { return ps[i].V > v }) - 1
	p, q := ps[i], ps[i+1]
	span := q.V - p.V
	var f float32
	if span > 0 {
		f = (v - p.V) / span
	}
	return p.R + f*(q.R-p.R), p.G + f*(q.G-p.G), p.B + f*(q.B-p.B), p.A + f*(q.A-p.A)
}

// MaxAlpha returns the maximum opacity the transfer function assigns
// anywhere in the normalized value interval [lo, hi] — the query
// empty-space skipping needs to prove a region transparent. Answered
// in O(1) from block maxima over the baked table plus a short edge
// scan.
func (t *TF) MaxAlpha(lo, hi float32) float32 {
	if hi < lo {
		lo, hi = hi, lo
	}
	i0 := t.lutIndex(lo)
	i1 := t.lutIndex(hi)
	var m float32
	// Edge partial blocks.
	b0, b1 := i0/alphaBlock, i1/alphaBlock
	if b0 == b1 {
		for i := i0; i <= i1; i++ {
			if a := t.lut[i*4+3]; a > m {
				m = a
			}
		}
		return m
	}
	for i := i0; i < (b0+1)*alphaBlock; i++ {
		if a := t.lut[i*4+3]; a > m {
			m = a
		}
	}
	for i := b1 * alphaBlock; i <= i1; i++ {
		if a := t.lut[i*4+3]; a > m {
			m = a
		}
	}
	for b := b0 + 1; b < b1; b++ {
		if t.alphaMax[b] > m {
			m = t.alphaMax[b]
		}
	}
	return m
}

func (t *TF) lutIndex(v float32) int {
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	return int(v*float32(LUTSize-1) + 0.5)
}

// LUT exposes the baked classification table: LUTSize entries of
// premultiplied-input RGBA, indexed by round(v*(LUTSize-1)) after
// clamping v into [0,1] — exactly what Classify computes. The slice is
// shared and must be treated as read-only. A TF's table never changes
// after New; pushing a new transfer function builds a new TF (and a
// new table), which is the invalidation model the renderer's
// flat-lookup hot path relies on.
func (t *TF) LUT() []float32 { return t.lut }

// Classify maps a normalized value through the baked lookup table.
func (t *TF) Classify(v float32) (r, g, b, a float32) {
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	i := int(v*float32(LUTSize-1) + 0.5)
	return t.lut[i*4], t.lut[i*4+1], t.lut[i*4+2], t.lut[i*4+3]
}

// Marshal serializes the transfer function: uint32 point count, then
// 5 float32 per point, little-endian. This is the wire format used by
// the user-control channel.
func (t *TF) Marshal() []byte {
	buf := make([]byte, 4+len(t.points)*20)
	binary.LittleEndian.PutUint32(buf, uint32(len(t.points)))
	off := 4
	for _, p := range t.points {
		for _, f := range [5]float32{p.V, p.R, p.G, p.B, p.A} {
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(f))
			off += 4
		}
	}
	return buf
}

// Unmarshal parses a transfer function from the wire format.
func Unmarshal(data []byte) (*TF, error) {
	if len(data) < 4 {
		return nil, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n < 2 || n > 1<<16 {
		return nil, fmt.Errorf("tf: implausible point count %d", n)
	}
	if len(data) < 4+n*20 {
		return nil, io.ErrUnexpectedEOF
	}
	pts := make([]Point, n)
	off := 4
	for i := range pts {
		var f [5]float32
		for j := range f {
			f[j] = math.Float32frombits(binary.LittleEndian.Uint32(data[off:]))
			if math.IsNaN(float64(f[j])) || math.IsInf(float64(f[j]), 0) {
				return nil, fmt.Errorf("tf: non-finite value in point %d", i)
			}
			off += 4
		}
		pts[i] = Point{f[0], f[1], f[2], f[3], f[4]}
	}
	return New(pts)
}

// Presets matching the three test datasets' visual character.

// Jet is a transfer function for the turbulent-jet dataset: mostly
// transparent background with a warm ramp on high vorticity, giving
// the sparse flame-like images the paper's Figure 3 shows.
func Jet() *TF {
	return MustNew([]Point{
		{V: 0.00, R: 0, G: 0, B: 0, A: 0},
		{V: 0.25, R: 0, G: 0, B: 0.1, A: 0},
		{V: 0.45, R: 0.2, G: 0.1, B: 0.5, A: 0.05},
		{V: 0.65, R: 0.9, G: 0.3, B: 0.1, A: 0.25},
		{V: 0.85, R: 1.0, G: 0.8, B: 0.2, A: 0.6},
		{V: 1.00, R: 1.0, G: 1.0, B: 0.9, A: 0.9},
	})
}

// Vortex is a transfer function for the turbulent-vortex dataset: a
// lower opacity threshold so many more voxels contribute, producing
// the dense pixel coverage the paper reports makes these images
// compress worse.
func Vortex() *TF {
	return MustNew([]Point{
		{V: 0.00, R: 0.0, G: 0.0, B: 0.2, A: 0.0},
		{V: 0.15, R: 0.1, G: 0.3, B: 0.8, A: 0.08},
		{V: 0.40, R: 0.2, G: 0.8, B: 0.8, A: 0.2},
		{V: 0.60, R: 0.9, G: 0.9, B: 0.3, A: 0.4},
		{V: 0.80, R: 1.0, G: 0.5, B: 0.1, A: 0.7},
		{V: 1.00, R: 1.0, G: 1.0, B: 1.0, A: 0.95},
	})
}

// Mixing is a transfer function for the shock/bubble fluid-mixing
// dataset: the post-shock ambient flow (mid-range velocity magnitude)
// stays nearly transparent so the vortex ring and turbulent wake —
// the high-velocity structures — read through it.
func Mixing() *TF {
	return MustNew([]Point{
		{V: 0.00, R: 0.0, G: 0.0, B: 0.0, A: 0.0},
		{V: 0.52, R: 0.1, G: 0.2, B: 0.6, A: 0.0},
		{V: 0.62, R: 0.3, G: 0.7, B: 0.9, A: 0.02},
		{V: 0.78, R: 0.9, G: 0.6, B: 0.2, A: 0.25},
		{V: 0.90, R: 1.0, G: 0.3, B: 0.2, A: 0.7},
		{V: 1.00, R: 1.0, G: 0.9, B: 0.8, A: 0.95},
	})
}

// Grayscale is a simple ramp used by tests.
func Grayscale() *TF {
	return MustNew([]Point{
		{V: 0, R: 0, G: 0, B: 0, A: 0},
		{V: 1, R: 1, G: 1, B: 1, A: 1},
	})
}

// Preset returns a named preset transfer function.
func Preset(name string) (*TF, error) {
	switch name {
	case "jet":
		return Jet(), nil
	case "vortex":
		return Vortex(), nil
	case "mixing":
		return Mixing(), nil
	case "gray", "grayscale":
		return Grayscale(), nil
	}
	return nil, fmt.Errorf("tf: unknown preset %q (have jet, vortex, mixing, gray)", name)
}
