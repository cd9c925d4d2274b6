package img

import "fmt"

// BlitRGBA copies sub into im at region r; sub must match r's extents.
func (im *RGBA) BlitRGBA(sub *RGBA, r Region) error {
	if sub.W != r.W() || sub.H != r.H() {
		return fmt.Errorf("img: blit size %dx%d != region %v", sub.W, sub.H, r)
	}
	if r.X0 < 0 || r.Y0 < 0 || r.X1 > im.W || r.Y1 > im.H {
		return fmt.Errorf("img: region %v outside image %dx%d", r, im.W, im.H)
	}
	for y := 0; y < sub.H; y++ {
		dst := ((r.Y0+y)*im.W + r.X0) * 4
		src := y * sub.W * 4
		copy(im.Pix[dst:dst+sub.W*4], sub.Pix[src:src+sub.W*4])
	}
	return nil
}

// SplitRegion bisects r along its longer side (ties split rows),
// returning the low and high halves. Deterministic, so binary-swap
// partners derive identical splits independently.
func SplitRegion(r Region) (lo, hi Region) {
	if r.W() > r.H() {
		mid := r.X0 + r.W()/2
		return Region{r.X0, r.Y0, mid, r.Y1}, Region{mid, r.Y0, r.X1, r.Y1}
	}
	mid := r.Y0 + r.H()/2
	return Region{r.X0, r.Y0, r.X1, mid}, Region{r.X0, mid, r.X1, r.Y1}
}

// Intersect returns the pixels in both r and o; an empty result is the
// zero Region.
func (r Region) Intersect(o Region) Region {
	x := Region{max(r.X0, o.X0), max(r.Y0, o.Y0), min(r.X1, o.X1), min(r.Y1, o.Y1)}
	if x.Empty() {
		return Region{}
	}
	return x
}

// Union returns the smallest region containing r and o; empty regions
// add nothing.
func (r Region) Union(o Region) Region {
	switch {
	case r.Empty():
		return o
	case o.Empty():
		return r
	}
	return Region{min(r.X0, o.X0), min(r.Y0, o.Y0), max(r.X1, o.X1), max(r.Y1, o.Y1)}
}
