// Distributed-framebuffer (tile-ownership) compositing, after the
// Distributed FrameBuffer of Usher et al.: the frame is cut into fixed
// scanline tiles, each with a deterministic owner rank. Every rank
// posts each tile of its partial image to the tile's owner over the
// comm any-source inbox, and owners blend the fragments of a tile in
// visibility order once all have landed. All-transparent fragments
// cross the wire as tiny markers instead of pixels, which is where a
// brick's limited screen footprint turns into fewer bytes than
// binary-swap moves.
//
// The pipeline composites with binary-swap; DFBComposite is the
// one-shot comparison. It is bit-identical to BinarySwap on
// power-of-two groups because owners blend each tile with the same
// balanced merge tree binary-swap induces (frontRange arbitrates
// front/back for both); non-power-of-two groups blend linearly in
// visibility order, bit-identical to DirectSend. Skipping an
// all-transparent fragment is exact: with premultiplied non-negative
// pixels, over with a zero operand is the identity in IEEE float
// (x + (1-a)*0 = x and 0 + 1*x = x).
package composite

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/img"
	"repro/internal/render"
	"repro/internal/vol"
)

// tileRows is the tile height in scanlines.
const tileRows = 8

// emptyFragBytes is the accounted wire size of an all-transparent
// fragment marker (tile index + header, no pixels).
const emptyFragBytes = 16

// Tile is one fully blended tile of the frame, returned by its owner.
type Tile struct {
	// Index is the tile number (Region = rows [Index*tileRows, ...)).
	Index int
	// Region is the tile's absolute screen region.
	Region img.Region
	// Image holds the blended pixels; pool-backed (img.PutRGBA when
	// done with it).
	Image *img.RGBA
}

// DFBOptions is DFBComposite's options argument; it has no fields.
type DFBOptions struct{}

// tileFrag is the wire payload of one rank's contribution to a tile.
// A nil image marks an all-transparent contribution: the owner counts
// it toward completion but blends nothing.
type tileFrag struct {
	tile int
	im   *img.RGBA
}

// DFBComposite composites the group's partial images by tile
// ownership — BinarySwap's call shape. Every rank of c calls it with
// its full-size partial image im (the rendering of boxes[rank] as seen
// from eye) and the same step, which namespaces the message tags. Tile
// ti belongs to rank ti % size; each rank returns its owned tiles, in
// completion order, ready for GatherTiles. The caller's im is never
// recycled.
//
// A contributor that dies before posting its fragments fails the
// owners waiting on it with comm.ErrRankFailed (and a world
// RecvTimeout with comm.ErrRecvTimeout) as an ordinary error.
func DFBComposite(c *comm.Comm, im *img.RGBA, boxes []vol.Box, eye render.Vec3, step int, _ DFBOptions) ([]Tile, error) {
	return dfbComposite(c, im, boxes, eye, step, tileRows)
}

// dfbComposite is DFBComposite with tiles tr scanlines high.
func dfbComposite(c *comm.Comm, im *img.RGBA, boxes []vol.Box, eye render.Vec3, step, tr int) (tiles []Tile, err error) {
	p := c.Size()
	if len(boxes) != p {
		return nil, fmt.Errorf("composite: %d boxes for %d ranks", len(boxes), p)
	}
	w, h := im.W, im.H
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("composite: image %dx%d", w, h)
	}
	if tr < 1 {
		return nil, fmt.Errorf("composite: tile rows %d", tr)
	}
	tr = min(tr, h)
	pow2 := p&(p-1) == 0
	var order []int
	if !pow2 {
		if order, err = VisibilityOrder(boxes, eye); err != nil {
			return nil, err
		}
	}
	nt := (h + tr - 1) / tr
	region := func(ti int) img.Region {
		return img.Region{X0: 0, Y0: ti * tr, X1: w, Y1: min(ti*tr+tr, h)}
	}

	// Post every tile to its owner. All-transparent fragments travel as
	// pixel-free markers: blending a zero fragment is the bitwise
	// identity, so the owner just counts them.
	tag := tagTile.Tag(step, 0)
	for ti := 0; ti < nt; ti++ {
		frag, err := subRGBAPooled(im, region(ti))
		if err != nil {
			return nil, err
		}
		if allTransparent(frag) {
			img.PutRGBA(frag)
			c.Post(ti%p, tag, tileFrag{tile: ti}, emptyFragBytes)
			continue
		}
		c.Post(ti%p, tag, tileFrag{tile: ti, im: frag}, pieceBytes(frag))
	}

	// Take this rank's owned tiles. A dead contributor panics the wait
	// with a scoped comm failure; hand it back as an error. World aborts
	// propagate to Run's rank wrapper.
	defer func() {
		if rec := recover(); rec != nil {
			fe := comm.AsFailure(rec)
			if fe == nil {
				panic(rec)
			}
			tiles, err = nil, fe
		}
	}()
	nOwned := 0
	for ti := c.Rank(); ti < nt; ti += p {
		nOwned++
	}
	// frags[k][src] is src's fragment for owned tile k (nil = empty or
	// not yet arrived; seen disambiguates), got[k] the arrival count.
	frags := make([][]*img.RGBA, nOwned)
	seen := make([][]bool, nOwned)
	got := make([]int, nOwned)
	// outstanding[src] counts fragments src still owes this rank — the
	// expect set that lets Take fail fast when a contributor dies.
	outstanding := make([]int, p)
	for i := range outstanding {
		outstanding[i] = nOwned
	}
	expect := make([]int, 0, p)
	for pending := nOwned; pending > 0; {
		expect = expect[:0]
		for r, n := range outstanding {
			if n > 0 {
				expect = append(expect, r)
			}
		}
		src, payload, _ := c.Take(tag, expect...)
		f, ok := payload.(tileFrag)
		if !ok {
			return nil, fmt.Errorf("composite: unexpected tile payload %T", payload)
		}
		if f.tile < 0 || f.tile >= nt || f.tile%p != c.Rank() || src < 0 {
			return nil, fmt.Errorf("composite: tile %d fragment from rank %d not for this owner", f.tile, src)
		}
		k := f.tile / p
		if frags[k] == nil {
			frags[k] = make([]*img.RGBA, p)
			seen[k] = make([]bool, p)
		}
		if seen[k][src] {
			return nil, fmt.Errorf("composite: duplicate fragment for tile %d from rank %d", f.tile, src)
		}
		seen[k][src] = true
		frags[k][src] = f.im
		got[k]++
		outstanding[src]--
		if got[k] < p {
			continue
		}
		reg := region(f.tile)
		merged, err := mergeTile(reg, frags[k], boxes, eye, pow2, order)
		if err != nil {
			return nil, err
		}
		frags[k] = nil
		tiles = append(tiles, Tile{Index: f.tile, Region: reg, Image: merged})
		pending--
	}
	return tiles, nil
}

// allTransparent reports whether every pixel of the fragment is
// exactly zero.
func allTransparent(im *img.RGBA) bool {
	for _, v := range im.Pix {
		if v != 0 {
			return false
		}
	}
	return true
}

// mergeTile blends the P fragments of the tile covering reg.
// Power-of-two groups use the binary-swap merge tree (bit-identical to
// BinarySwap); other sizes accumulate linearly in visibility order from
// a transparent canvas (bit-identical to DirectSend). The result is
// pool-backed and may alias one fragment; every other non-nil fragment
// is recycled.
func mergeTile(reg img.Region, frags []*img.RGBA, boxes []vol.Box, eye render.Vec3, pow2 bool, order []int) (*img.RGBA, error) {
	if pow2 {
		im, err := mergeTree(frags, boxes, eye, 0, len(frags))
		if err != nil {
			return nil, err
		}
		if im == nil {
			// Every fragment was transparent: an owned tile is still due,
			// so return a blank one.
			im = img.GetRGBA(reg.W(), reg.H())
		}
		return im, nil
	}
	out := img.GetRGBA(reg.W(), reg.H())
	for _, i := range order {
		f := frags[i]
		if f == nil {
			continue
		}
		if err := out.Over(f); err != nil {
			return nil, err
		}
		img.PutRGBA(f)
	}
	return out, nil
}

// mergeTree blends frags[lo:hi) with the balanced binary tree
// binary-swap induces: split at the midpoint, merge each half, then
// blend front over back as arbitrated by frontRange — the same
// decisions BinarySwap's stages make, in the same operand order. nil
// (transparent) fragments are identities and skip the blend entirely,
// which is bit-exact for premultiplied non-negative pixels.
func mergeTree(frags []*img.RGBA, boxes []vol.Box, eye render.Vec3, lo, hi int) (*img.RGBA, error) {
	if hi-lo == 1 {
		return frags[lo], nil
	}
	mid := lo + (hi-lo)/2
	a, err := mergeTree(frags, boxes, eye, lo, mid)
	if err != nil {
		return nil, err
	}
	b, err := mergeTree(frags, boxes, eye, mid, hi)
	if err != nil {
		return nil, err
	}
	if a == nil {
		return b, nil
	}
	if b == nil {
		return a, nil
	}
	leftFront, err := frontRange(boxes, lo, mid, hi, eye)
	if err != nil {
		return nil, err
	}
	if leftFront {
		if err := a.Over(b); err != nil {
			return nil, err
		}
		img.PutRGBA(b)
		return a, nil
	}
	if err := b.Over(a); err != nil {
		return nil, err
	}
	img.PutRGBA(a)
	return b, nil
}

// GatherTiles assembles every rank's owned tiles into a full frame at
// root; other ranks return nil. Ownership of the tile images
// transfers: root recycles every received and local tile after
// blitting. Uses the composite.gather tag class, so do not mix with
// FinalGather on the same (world, step).
func GatherTiles(c *comm.Comm, tiles []Tile, w, h, root, step int) (*img.RGBA, error) {
	tag := tagGather.Tag(step, 0)
	if c.Rank() != root {
		nb := 0
		for _, t := range tiles {
			nb += pieceBytes(t.Image)
		}
		c.Send(root, tag, tiles, nb)
		return nil, nil
	}
	out := img.NewRGBA(w, h)
	blit := func(tiles []Tile) error {
		for _, t := range tiles {
			if err := out.BlitRGBA(t.Image, t.Region); err != nil {
				return err
			}
			img.PutRGBA(t.Image)
		}
		return nil
	}
	if err := blit(tiles); err != nil {
		return nil, err
	}
	for src := 0; src < c.Size(); src++ {
		if src == root {
			continue
		}
		got, _ := c.Recv(src, tag)
		theirs, ok := got.([]Tile)
		if !ok {
			return nil, fmt.Errorf("composite: tile gather payload %T", got)
		}
		if err := blit(theirs); err != nil {
			return nil, err
		}
	}
	return out, nil
}
