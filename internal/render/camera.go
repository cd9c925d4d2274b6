// Package render implements the parallel ray-casting volume renderer:
// a pinhole camera, ray–box traversal, transfer-function
// classification with optional gradient shading, and front-to-back
// compositing with early ray termination. Each processor node renders
// its own brick (subvolume) into a full-size partial image; the
// composite package merges partial images into the final frame.
package render

import (
	"fmt"
	"math"

	"repro/internal/img"
	"repro/internal/vol"
)

// Vec3 is a 3-component double-precision vector in grid coordinates.
type Vec3 struct{ X, Y, Z float64 }

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns s * a.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{a.X * s, a.Y * s, a.Z * s} }

// Dot returns the dot product.
func (a Vec3) Dot(b Vec3) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns the cross product.
func (a Vec3) Cross(b Vec3) Vec3 {
	return Vec3{a.Y*b.Z - a.Z*b.Y, a.Z*b.X - a.X*b.Z, a.X*b.Y - a.Y*b.X}
}

// Norm returns the Euclidean length.
func (a Vec3) Norm() float64 { return math.Sqrt(a.Dot(a)) }

// Normalized returns a unit vector in a's direction (zero stays zero).
func (a Vec3) Normalized() Vec3 {
	n := a.Norm()
	if n == 0 {
		return a
	}
	return a.Scale(1 / n)
}

// Camera is a pinhole camera in volume grid coordinates.
type Camera struct {
	Eye    Vec3
	Center Vec3
	Up     Vec3
	// FovY is the vertical field of view in radians.
	FovY float64

	// Basis derived by Finish.
	fwd, right, upv Vec3
	ready           bool
}

// Finish derives the orthonormal view basis. New* constructors call it;
// call it again after mutating Eye/Center/Up (e.g. on a view-change
// user event).
func (c *Camera) Finish() error {
	c.fwd = c.Center.Sub(c.Eye).Normalized()
	if c.fwd.Norm() == 0 {
		return fmt.Errorf("render: eye and center coincide")
	}
	if c.FovY <= 0 || c.FovY >= math.Pi {
		return fmt.Errorf("render: fovY %v out of (0, pi)", c.FovY)
	}
	c.right = c.fwd.Cross(c.Up).Normalized()
	if c.right.Norm() == 0 {
		return fmt.Errorf("render: up parallel to view direction")
	}
	c.upv = c.right.Cross(c.fwd)
	c.ready = true
	return nil
}

// NewOrbitCamera places the eye on a sphere around the volume center:
// azimuth and elevation in radians, distance as a multiple of the
// volume diagonal. This is the camera the viewer's rotate controls
// drive.
func NewOrbitCamera(d vol.Dims, azimuth, elevation, distFactor float64) (*Camera, error) {
	cx := float64(d.NX-1) / 2
	cy := float64(d.NY-1) / 2
	cz := float64(d.NZ-1) / 2
	diag := math.Sqrt(float64(d.NX*d.NX + d.NY*d.NY + d.NZ*d.NZ))
	r := distFactor * diag
	ce, se := math.Cos(elevation), math.Sin(elevation)
	ca, sa := math.Cos(azimuth), math.Sin(azimuth)
	eye := Vec3{
		X: cx + r*ce*ca,
		Y: cy + r*ce*sa,
		Z: cz + r*se,
	}
	c := &Camera{Eye: eye, Center: Vec3{cx, cy, cz}, Up: Vec3{0, 0, 1}, FovY: 45 * math.Pi / 180}
	// Degenerate up at the poles: fall back to +y.
	if err := c.Finish(); err != nil {
		c.Up = Vec3{0, 1, 0}
		if err := c.Finish(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Ray returns origin and unit direction for pixel (px,py) of a w x h
// image, sampling the pixel center.
func (c *Camera) Ray(px, py, w, h int) (orig, dir Vec3) {
	if !c.ready {
		panic("render: camera used before Finish")
	}
	aspect := float64(w) / float64(h)
	tanF := math.Tan(c.FovY / 2)
	// NDC in [-1,1], y flipped so py=0 is the top scanline.
	nx := (2*(float64(px)+0.5)/float64(w) - 1) * tanF * aspect
	ny := (1 - 2*(float64(py)+0.5)/float64(h)) * tanF
	d := c.fwd.Add(c.right.Scale(nx)).Add(c.upv.Scale(ny)).Normalized()
	return c.Eye, d
}

// screenRect returns a pixel rectangle of a w x h image containing
// every pixel whose ray (see Ray) can hit box b: the bounding rectangle
// of the eight projected corners, grown by a pixel against rounding. A
// box reaching the eye plane or behind it has no bounded projection and
// yields the whole image.
func (c *Camera) screenRect(b vol.Box, w, h int) img.Region {
	tanF := math.Tan(c.FovY / 2)
	aspect := float64(w) / float64(h)
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for i := 0; i < 8; i++ {
		p := Vec3{float64(b.X0), float64(b.Y0), float64(b.Z0)}
		if i&1 != 0 {
			p.X = float64(b.X1)
		}
		if i&2 != 0 {
			p.Y = float64(b.Y1)
		}
		if i&4 != 0 {
			p.Z = float64(b.Z1)
		}
		v := p.Sub(c.Eye)
		depth := v.Dot(c.fwd)
		if depth <= 0 {
			return img.Region{X1: w, Y1: h}
		}
		// Invert Ray's pixel-center mapping.
		fx := (v.Dot(c.right)/(depth*tanF*aspect)+1)*float64(w)/2 - 0.5
		fy := (1-v.Dot(c.upv)/(depth*tanF))*float64(h)/2 - 0.5
		minX, maxX = math.Min(minX, fx), math.Max(maxX, fx)
		minY, maxY = math.Min(minY, fy), math.Max(maxY, fy)
	}
	clamp := func(f float64, n int) int { return int(max(0, min(f, float64(n)))) }
	return img.Region{
		X0: clamp(math.Floor(minX)-1, w), Y0: clamp(math.Floor(minY)-1, h),
		X1: clamp(math.Ceil(maxX)+2, w), Y1: clamp(math.Ceil(maxY)+2, h),
	}
}

// IntersectBox computes the parametric entry/exit of ray
// orig + t*dir with the axis-aligned box, returning ok=false when the
// ray misses. Only t >= 0 (in front of the eye) counts.
func IntersectBox(orig, dir Vec3, b vol.Box) (tNear, tFar float64, ok bool) {
	tNear, tFar = 0, math.Inf(1)
	bounds := [3][2]float64{
		{float64(b.X0), float64(b.X1)},
		{float64(b.Y0), float64(b.Y1)},
		{float64(b.Z0), float64(b.Z1)},
	}
	o := [3]float64{orig.X, orig.Y, orig.Z}
	dd := [3]float64{dir.X, dir.Y, dir.Z}
	for a := 0; a < 3; a++ {
		if math.Abs(dd[a]) < 1e-12 {
			if o[a] < bounds[a][0] || o[a] > bounds[a][1] {
				return 0, 0, false
			}
			continue
		}
		inv := 1 / dd[a]
		t0 := (bounds[a][0] - o[a]) * inv
		t1 := (bounds[a][1] - o[a]) * inv
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if t0 > tNear {
			tNear = t0
		}
		if t1 < tFar {
			tFar = t1
		}
		if tNear > tFar {
			return 0, 0, false
		}
	}
	return tNear, tFar, true
}
