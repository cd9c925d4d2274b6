// Package composite merges the partial images rendered by the nodes of
// a processor group into the final frame — the "global image
// compositing" stage of the paper's pipeline. The primary algorithm is
// binary-swap compositing [Ma, Painter, Hansen, Krogh 1994], which
// exchanges only the screen rectangle each rank's rays reached; a
// direct-send compositor serves group sizes that are not powers of two
// and as the correctness baseline in tests.
package composite

import (
	"fmt"
	"math/bits"

	"repro/internal/comm"
	"repro/internal/img"
	"repro/internal/render"
	"repro/internal/vol"
)

// Tag classes of the compositing exchanges, drawn from comm's central
// registry so composite and pipeline traffic sharing one world can
// never collide (each class gets a disjoint block, keyed per step).
var (
	tagSwap   = comm.RegisterTagClass("composite.swap", maxSwapStages)
	tagGather = comm.RegisterTagClass("composite.gather", 1)
	tagDirect = comm.RegisterTagClass("composite.direct", 1)
	tagTile   = comm.RegisterTagClass("composite.tile", 1)
)

// maxSwapStages bounds the binary-swap stage count (2^32 ranks —
// unreachable; it only sizes the tag class).
const maxSwapStages = 32

// VisibilityOrder returns a front-to-back permutation of boxes as seen
// from eye. The boxes must tile a convex region by axis-aligned cuts
// (any decomposition produced by vol.SplitKD qualifies): the order is
// derived by recursively locating a separating plane and visiting the
// eye's side first, which is correct for every ray simultaneously.
func VisibilityOrder(boxes []vol.Box, eye render.Vec3) ([]int, error) {
	switch len(boxes) {
	case 0:
		return nil, fmt.Errorf("composite: no boxes to order")
	case 1:
		// Fast path: a lone box needs no plane search.
		return []int{0}, nil
	}
	idx := make([]int, len(boxes))
	for i := range idx {
		idx[i] = i
	}
	out := make([]int, 0, len(boxes))
	if err := visitBSP(boxes, idx, eye, &out); err != nil {
		return nil, err
	}
	return out, nil
}

func visitBSP(boxes []vol.Box, idx []int, eye render.Vec3, out *[]int) error {
	if len(idx) <= 1 {
		*out = append(*out, idx...)
		return nil
	}
	axis, plane, ok := separatingPlane(boxes, idx)
	if !ok {
		// Degenerate boxes (a zero-thickness cut, e.g. from splitting a
		// dimension below its cell count) defeat the plane search; name
		// the culprit instead of reporting a generic BSP failure.
		for _, i := range idx {
			if b := boxes[i]; b.X1 <= b.X0 || b.Y1 <= b.Y0 || b.Z1 <= b.Z0 {
				return fmt.Errorf("composite: degenerate (zero-thickness) box %d %+v in decomposition — cannot order", i, b)
			}
		}
		return fmt.Errorf("composite: no separating plane for %d boxes — not a BSP decomposition", len(idx))
	}
	var lo, hi []int
	for _, i := range idx {
		if boxMax(boxes[i], axis) <= plane {
			lo = append(lo, i)
		} else {
			hi = append(hi, i)
		}
	}
	if len(lo) == 0 || len(hi) == 0 {
		// Defensive: separatingPlane guarantees both sides nonempty with
		// the same classification; erroring here beats recursing forever
		// on the full set if that invariant is ever broken.
		return fmt.Errorf("composite: separating plane axis %d at %d left an empty side (%d/%d boxes)", axis, plane, len(lo), len(hi))
	}
	eyeC := [3]float64{eye.X, eye.Y, eye.Z}[axis]
	near, far := lo, hi
	if eyeC > float64(plane) {
		near, far = hi, lo
	}
	if err := visitBSP(boxes, near, eye, out); err != nil {
		return err
	}
	return visitBSP(boxes, far, eye, out)
}

func boxMin(b vol.Box, axis int) int { return [3]int{b.X0, b.Y0, b.Z0}[axis] }
func boxMax(b vol.Box, axis int) int { return [3]int{b.X1, b.Y1, b.Z1}[axis] }

// separatingPlane finds an axis and coordinate such that every box
// lies entirely on one side, with both sides nonempty.
func separatingPlane(boxes []vol.Box, idx []int) (axis, plane int, ok bool) {
	for axis = 0; axis < 3; axis++ {
		// Candidate planes: the max face of every box.
		for _, i := range idx {
			plane = boxMax(boxes[i], axis)
			nLo, nHi, clean := 0, 0, true
			for _, j := range idx {
				switch {
				case boxMax(boxes[j], axis) <= plane:
					nLo++
				case boxMin(boxes[j], axis) >= plane:
					nHi++
				default:
					clean = false
				}
				if !clean {
					break
				}
			}
			if clean && nLo > 0 && nHi > 0 {
				return axis, plane, true
			}
		}
	}
	return 0, 0, false
}

// piece is the exchange payload: a sub-image and its absolute region.
// In binary-swap it also holds a rank's non-transparent pixels: im
// covers reg exactly, and is nil when reg is empty.
type piece struct {
	reg img.Region
	im  *img.RGBA
}

func pieceBytes(p *img.RGBA) int { return len(p.Pix) * 4 }

// rectHeaderBytes is the accounted size of the rectangle that heads
// every binary-swap message: four 32-bit coordinates.
const rectHeaderBytes = 16

// BinarySwap composites the group's full-size partial images: it is
// BinarySwapRect with every rank's rectangle the whole image.
func BinarySwap(c *comm.Comm, im *img.RGBA, boxes []vol.Box, eye render.Vec3, step int) (img.Region, *img.RGBA, error) {
	return BinarySwapRect(c, img.Region{X1: im.W, Y1: im.H}, im, im.W, im.H, boxes, eye, step)
}

// BinarySwapRect composites the group's partial images of a w x h
// frame. Every rank of c calls it with its partial — the rendering of
// boxes[rank] as seen by cam eye — given as rect, outside which the
// partial is transparent, and im, its pixels inside rect: what
// render.RenderBrickRect returns. The group size must be a power of
// two. Each rank returns the screen region it owns after compositing
// and the fully composited pixels of that whole region — ready for
// parallel compression or for FinalGather.
//
// A stage sends only the part of the rank's rectangle inside the half
// it gives away, headed by that part's rectangle (16 bytes, so an
// empty part costs only the header), and keeps the bounding rectangle
// of the part it kept and the part it received. The pixels equal
// those of compositing dense full-frame partials bit for bit: where
// only one side has pixels, the over operator meets a transparent
// operand, and for non-negative premultiplied floats 0 + 1·b = b and
// f + (1−α)·0 = f exactly.
//
// Exchange buffers are drawn from the img pool and recycled as each
// stage consumes them. The returned image is pool-backed (the caller
// may img.PutRGBA it when finished; dropping it is also fine), except
// in a group of one whose rect is the whole frame, where it is im
// itself. The caller's im is never modified or recycled.
//
// step namespaces the exchange tags (via the comm tag registry) so
// concurrent groups sharing a world — always on different pipeline
// steps — do not cross-talk.
func BinarySwapRect(c *comm.Comm, rect img.Region, im *img.RGBA, w, h int, boxes []vol.Box, eye render.Vec3, step int) (img.Region, *img.RGBA, error) {
	p := c.Size()
	if p&(p-1) != 0 {
		return img.Region{}, nil, fmt.Errorf("composite: binary-swap needs power-of-two group, got %d", p)
	}
	if len(boxes) != p {
		return img.Region{}, nil, fmt.Errorf("composite: %d boxes for %d ranks", len(boxes), p)
	}
	reg := img.Region{X1: w, Y1: h}
	cur := piece{}
	if !rect.Empty() {
		if rect.Intersect(reg) != rect || im == nil || im.W != rect.W() || im.H != rect.H() {
			return img.Region{}, nil, fmt.Errorf("composite: partial rectangle %v does not fit its image or the %dx%d frame", rect, w, h)
		}
		cur = piece{reg: rect, im: im}
	}
	// owned reports whether cur.im is a compositor buffer, which may be
	// sent on, merged into and recycled; the caller's im is none of these.
	owned := false
	rank := c.Rank()
	stages := bits.TrailingZeros(uint(p))
	for s := 0; s < stages; s++ {
		partner := rank ^ (1 << s)
		lo, hi := img.SplitRegion(reg)
		keep, give := lo, hi
		if rank&(1<<s) != 0 {
			keep, give = hi, lo
		}
		mine, err := carve(cur, keep, owned)
		if err != nil {
			return img.Region{}, nil, err
		}
		out, err := carve(cur, give, owned)
		if err != nil {
			return img.Region{}, nil, err
		}
		// Both parts are carved out; a buffer that went on whole to one
		// of them is not dead.
		if owned && cur.im != mine.im && cur.im != out.im {
			img.PutRGBA(cur.im)
		}
		c.Send(partner, tagSwap.Tag(step, s), out, rectHeaderBytes+16*out.reg.Pixels())
		got, _ := c.Recv(partner, tagSwap.Tag(step, s))
		theirs, ok := got.(piece)
		if !ok {
			return img.Region{}, nil, fmt.Errorf("composite: unexpected payload %T", got)
		}
		if !theirs.reg.Empty() && (theirs.reg.Intersect(keep) != theirs.reg || theirs.im == nil ||
			theirs.im.W != theirs.reg.W() || theirs.im.H != theirs.reg.H()) {
			return img.Region{}, nil, fmt.Errorf("composite: stage %d piece %v outside kept half %v or not its size", s, theirs.reg, keep)
		}
		front, err := iAmFront(boxes, rank, partner, s, eye)
		if err != nil {
			return img.Region{}, nil, err
		}
		if front {
			cur, err = over(mine, theirs)
		} else {
			cur, err = over(theirs, mine)
		}
		if err != nil {
			return img.Region{}, nil, err
		}
		owned = true
		reg = keep
	}
	if cur.im != nil && cur.reg == reg {
		return reg, cur.im, nil
	}
	// Spread the rectangle over the whole region, transparent around it.
	dense := img.GetRGBA(reg.W(), reg.H())
	if cur.im != nil {
		if err := dense.BlitRGBA(cur.im, relRegion(cur.reg, reg)); err != nil {
			return img.Region{}, nil, err
		}
		if owned {
			img.PutRGBA(cur.im)
		}
	}
	return reg, dense, nil
}

// carve returns the part of p inside r. When that is all of p and p's
// buffer is the compositor's (owned), the buffer itself is returned;
// otherwise the part is copied into a pool-backed image.
func carve(p piece, r img.Region, owned bool) (piece, error) {
	r = r.Intersect(p.reg)
	switch {
	case r.Empty():
		return piece{}, nil
	case r == p.reg && owned:
		return p, nil
	}
	im, err := subRGBAPooled(p.im, relRegion(r, p.reg))
	return piece{reg: r, im: im}, err
}

// over composites front over back, consuming both: the result covers
// the bounding rectangle of their rectangles. Only pixels inside both
// go through the over operator; everywhere else one operand is
// transparent and the other's pixel is the exact result.
func over(front, back piece) (piece, error) {
	switch {
	case back.im == nil:
		return front, nil
	case front.im == nil:
		return back, nil
	}
	u := front.reg.Union(back.reg)
	if u != front.reg {
		merged := img.GetRGBA(u.W(), u.H())
		if err := merged.BlitRGBA(front.im, relRegion(front.reg, u)); err != nil {
			return piece{}, err
		}
		img.PutRGBA(front.im)
		front = piece{reg: u, im: merged}
	}
	r, fw, bw := back.reg, front.im.W*4, back.im.W*4
	for y := r.Y0; y < r.Y1; y++ {
		f := front.im.Pix[(y-u.Y0)*fw+(r.X0-u.X0)*4:]
		b := back.im.Pix[(y-r.Y0)*bw : (y-r.Y0+1)*bw]
		for i := 0; i < len(b); i += 4 {
			img.OverPixel(f[i:i+4:i+4], b[i:i+4:i+4])
		}
	}
	img.PutRGBA(back.im)
	return front, nil
}

// subRGBAPooled carves region r of src into a pool-backed image of
// r's size, without allocating. The copy overwrites every pixel, so
// the pooled buffer needs no clearing beyond what GetRGBA provides.
func subRGBAPooled(src *img.RGBA, r img.Region) (*img.RGBA, error) {
	if r.X0 < 0 || r.Y0 < 0 || r.X1 > src.W || r.Y1 > src.H || r.Empty() {
		return nil, fmt.Errorf("composite: region %v outside image %dx%d", r, src.W, src.H)
	}
	s := img.GetRGBARaw(r.W(), r.H())
	for y := 0; y < s.H; y++ {
		so := ((r.Y0+y)*src.W + r.X0) * 4
		do := y * s.W * 4
		copy(s.Pix[do:do+s.W*4], src.Pix[so:so+s.W*4])
	}
	return s, nil
}

// relRegion translates absolute screen region r into coordinates
// relative to the piece covering base.
func relRegion(r, base img.Region) img.Region {
	return img.Region{X0: r.X0 - base.X0, Y0: r.Y0 - base.Y0, X1: r.X1 - base.X0, Y1: r.Y1 - base.Y0}
}

// iAmFront decides whether rank's subtree at stage s is in front of
// partner's. The two subtrees are the halves of the parent rank range
// {ranks sharing bits above s}; under the recursive-bisection rank
// assignment their box unions are separated by an axis plane. The
// decision delegates to frontRange — the same function the DFB merge
// tree uses — so both compositors blend in exactly the same order.
func iAmFront(boxes []vol.Box, rank, partner, s int, eye render.Vec3) (bool, error) {
	base := rank & ^((1 << (s + 1)) - 1)
	mid := base + (1 << s)
	leftFront, err := frontRange(boxes, base, mid, base+(1<<(s+1)), eye)
	if err != nil {
		return false, err
	}
	return leftFront == (rank < mid), nil
}

// frontRange reports whether the union of boxes[lo:mid) is in front of
// boxes[mid:hi) as seen from eye. This is the single front/back
// arbiter for binary-swap stages and DFB tile merges: because both use
// it on identical (lo, mid, hi) splits, their blend trees apply the
// over operator to the same operands in the same order, which is what
// makes the two compositors bit-identical despite float
// non-associativity.
func frontRange(boxes []vol.Box, lo, mid, hi int, eye render.Vec3) (bool, error) {
	left := rangeUnion(boxes, lo, mid)
	right := rangeUnion(boxes, mid, hi)
	for axis := 0; axis < 3; axis++ {
		eyeC := [3]float64{eye.X, eye.Y, eye.Z}[axis]
		if boxMax(left, axis) <= boxMin(right, axis) {
			// left is on the low side of the plane.
			return eyeC < float64(boxMax(left, axis)), nil
		}
		if boxMax(right, axis) <= boxMin(left, axis) {
			return eyeC > float64(boxMax(right, axis)), nil
		}
	}
	return false, fmt.Errorf("composite: subtrees [%d,%d) and [%d,%d) not separated — boxes must come from recursive bisection in rank order", lo, mid, mid, hi)
}

// rangeUnion returns the bounding box of boxes[lo:hi).
func rangeUnion(boxes []vol.Box, lo, hi int) vol.Box {
	u := vol.Box{X0: 1 << 30, Y0: 1 << 30, Z0: 1 << 30, X1: -(1 << 30), Y1: -(1 << 30), Z1: -(1 << 30)}
	for i := lo; i < hi && i < len(boxes); i++ {
		b := boxes[i]
		if b.X0 < u.X0 {
			u.X0 = b.X0
		}
		if b.Y0 < u.Y0 {
			u.Y0 = b.Y0
		}
		if b.Z0 < u.Z0 {
			u.Z0 = b.Z0
		}
		if b.X1 > u.X1 {
			u.X1 = b.X1
		}
		if b.Y1 > u.Y1 {
			u.Y1 = b.Y1
		}
		if b.Z1 > u.Z1 {
			u.Z1 = b.Z1
		}
	}
	return u
}

// FinalGather assembles the per-rank composited pieces into a full
// frame at root. Every rank calls it with its piece from
// BinarySwapRect (or BinarySwap) and the same step; only root receives a non-nil image. Ownership of
// pc transfers to FinalGather on every rank: root recycles the
// received pieces into the img pool after blitting (its own pc is
// left to the caller).
func FinalGather(c *comm.Comm, reg img.Region, pc *img.RGBA, w, h, root, step int) (*img.RGBA, error) {
	tag := tagGather.Tag(step, 0)
	if c.Rank() != root {
		c.Send(root, tag, piece{reg: reg, im: pc}, pieceBytes(pc))
		return nil, nil
	}
	out := img.NewRGBA(w, h)
	if err := out.BlitRGBA(pc, reg); err != nil {
		return nil, err
	}
	for src := 0; src < c.Size(); src++ {
		if src == root {
			continue
		}
		got, _ := c.Recv(src, tag)
		pp, ok := got.(piece)
		if !ok {
			return nil, fmt.Errorf("composite: gather payload %T", got)
		}
		if err := out.BlitRGBA(pp.im, pp.reg); err != nil {
			return nil, err
		}
		img.PutRGBA(pp.im)
	}
	return out, nil
}

// DirectSend composites by shipping every partial image to root, which
// sorts them into visibility order and applies the over operator. It
// works for any group size and serves as the correctness baseline for
// BinarySwap (and for DFB's non-power-of-two merge order). Only root
// returns a non-nil image.
func DirectSend(c *comm.Comm, im *img.RGBA, boxes []vol.Box, eye render.Vec3, root, step int) (*img.RGBA, error) {
	tag := tagDirect.Tag(step, 0)
	if len(boxes) != c.Size() {
		return nil, fmt.Errorf("composite: %d boxes for %d ranks", len(boxes), c.Size())
	}
	if c.Rank() != root {
		c.Send(root, tag, im, pieceBytes(im))
		return nil, nil
	}
	parts := make([]*img.RGBA, c.Size())
	parts[root] = im
	for src := 0; src < c.Size(); src++ {
		if src == root {
			continue
		}
		got, _ := c.Recv(src, tag)
		p, ok := got.(*img.RGBA)
		if !ok {
			return nil, fmt.Errorf("composite: direct-send payload %T", got)
		}
		parts[src] = p
	}
	order, err := VisibilityOrder(boxes, eye)
	if err != nil {
		return nil, err
	}
	out := img.NewRGBA(im.W, im.H)
	for _, i := range order {
		if err := out.Over(parts[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
