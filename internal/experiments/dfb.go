package experiments

import (
	"repro/internal/comm"
	"repro/internal/composite"
	"repro/internal/datagen"
	"repro/internal/img"
	"repro/internal/render"
	"repro/internal/tf"
	"repro/internal/vol"
)

// DFBResult is the tile-ownership compositing comparison: one real
// in-process frame through both compositors, proving bit-identity and
// counting the bytes each moves.
type DFBResult struct {
	// RealNodes is the in-process world size of the live comparison.
	RealNodes int `json:"real_nodes"`
	// BitIdentical reports whether the DFB frame matched binary-swap
	// float for float.
	BitIdentical bool `json:"bit_identical"`
	// SwapBytes / DFBBytes are the live runs' compositing bytes.
	SwapBytes int64 `json:"swap_bytes"`
	DFBBytes  int64 `json:"dfb_bytes"`
}

// DFB compares the tile-ownership compositor with binary-swap on a
// real in-process group: bit-identity and bytes on the wire.
func (c *Context) DFB() (*DFBResult, error) {
	p, w, h := 8, 64, 64
	if c.Quick {
		p, w, h = 4, 48, 48
	}
	res := &DFBResult{RealNodes: p}

	// Live comparison: the same partial images through both
	// compositors, gathered to rank 0.
	partials, boxes, cam, err := dfbPartials(p, w, h)
	if err != nil {
		return nil, err
	}
	var swapFrame *img.RGBA
	err = comm.Run(p, func(cc *comm.Comm) error {
		reg, piece, err := composite.BinarySwap(cc, partials[cc.Rank()], boxes, cam.Eye, 0)
		if err != nil {
			return err
		}
		full, err := composite.FinalGather(cc, reg, piece, w, h, 0, 1)
		if err != nil {
			return err
		}
		cc.Barrier()
		if cc.Rank() == 0 {
			swapFrame = full
			res.SwapBytes = cc.World().BytesSent()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	partials, _, _, err = dfbPartials(p, w, h) // binary-swap consumed the buffers
	if err != nil {
		return nil, err
	}
	var dfbFrame *img.RGBA
	err = comm.Run(p, func(cc *comm.Comm) error {
		tiles, err := composite.DFBComposite(cc, partials[cc.Rank()], boxes, cam.Eye, 0, composite.DFBOptions{})
		if err != nil {
			return err
		}
		full, err := composite.GatherTiles(cc, tiles, w, h, 0, 1)
		if err != nil {
			return err
		}
		cc.Barrier()
		if cc.Rank() == 0 {
			dfbFrame = full
			res.DFBBytes = cc.World().BytesSent()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.BitIdentical = true
	for i := range swapFrame.Pix {
		if swapFrame.Pix[i] != dfbFrame.Pix[i] {
			res.BitIdentical = false
			break
		}
	}

	c.printf("\nTile-ownership compositing (DFB) vs binary-swap barrier\n")
	c.printf("  live %d nodes %dx%d: bit-identical=%v  bytes %d vs %d (%.1fx fewer)\n",
		p, w, h, res.BitIdentical, res.DFBBytes, res.SwapBytes,
		float64(res.SwapBytes)/float64(max(res.DFBBytes, 1)))
	return res, nil
}

// dfbPartials renders one partial image per rank of a kd-decomposed
// jet step — the input both compositors consume.
func dfbPartials(p, w, h int) ([]*img.RGBA, []vol.Box, *render.Camera, error) {
	g := datagen.NewJetScaled(0.2, 2)
	v, err := g.Step(1)
	if err != nil {
		return nil, nil, nil, err
	}
	cam, err := render.NewOrbitCamera(v.Dims, 0.8, 0.4, 1.8)
	if err != nil {
		return nil, nil, nil, err
	}
	opt := render.DefaultOptions()
	opt.TerminationAlpha = 1
	boxes, err := vol.SplitKD(v.Dims, p)
	if err != nil {
		return nil, nil, nil, err
	}
	partials := make([]*img.RGBA, p)
	for i, b := range boxes {
		br, err := v.Extract(b, 2)
		if err != nil {
			return nil, nil, nil, err
		}
		partials[i], _, err = render.RenderBrick(br, cam, tf.Jet(), opt, w, h)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return partials, boxes, cam, nil
}
