package composite

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/img"
	"repro/internal/render"
	"repro/internal/testutil"
	"repro/internal/vol"
)

// The golden acceptance bar of the DFB refactor: tile-ownership
// compositing must be BIT-identical to binary-swap on power-of-two
// groups — same over operands, same order, despite float
// non-associativity and the empty-fragment shortcut.
func TestDFBBitIdenticalToBinarySwap(t *testing.T) {
	testutil.CheckGoroutines(t)
	for _, p := range []int{2, 4, 8, 16} {
		for _, tileRows := range []int{1, 8} {
			t.Run(fmt.Sprintf("p=%d/tileRows=%d", p, tileRows), func(t *testing.T) {
				const W, H = 40, 40
				_, partials, boxes, cam := renderPartials(t, p, W, H)

				var swapped *img.RGBA
				err := comm.Run(p, func(c *comm.Comm) error {
					reg, piece, err := BinarySwap(c, partials[c.Rank()], boxes, cam.Eye, 0)
					if err != nil {
						return err
					}
					out, err := FinalGather(c, reg, piece, W, H, 0, 1)
					if err != nil {
						return err
					}
					if c.Rank() == 0 {
						swapped = out
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}

				// Fresh partials: BinarySwap consumed the piece buffers.
				_, partials, _, _ = renderPartials(t, p, W, H)
				var dfbFrame *img.RGBA
				err = comm.Run(p, func(c *comm.Comm) error {
					tiles, err := dfbComposite(c, partials[c.Rank()], boxes, cam.Eye, 0, tileRows)
					if err != nil {
						return err
					}
					out, err := GatherTiles(c, tiles, W, H, 0, 1)
					if err != nil {
						return err
					}
					if c.Rank() == 0 {
						dfbFrame = out
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}

				if swapped == nil || dfbFrame == nil {
					t.Fatal("missing composited frame")
				}
				for i := range swapped.Pix {
					if swapped.Pix[i] != dfbFrame.Pix[i] {
						t.Fatalf("pixel float %d: DFB %v != binary-swap %v",
							i, dfbFrame.Pix[i], swapped.Pix[i])
					}
				}
			})
		}
	}
}

// Non-power-of-two groups take the linear visibility-order merge —
// the direct-send fallback — and must be bit-identical to DirectSend.
func TestDFBNonPow2BitIdenticalToDirectSend(t *testing.T) {
	testutil.CheckGoroutines(t)
	for _, p := range []int{3, 5, 6} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			const W, H = 40, 40
			_, partials, boxes, cam := renderPartials(t, p, W, H)

			var direct *img.RGBA
			err := comm.Run(p, func(c *comm.Comm) error {
				out, err := DirectSend(c, partials[c.Rank()], boxes, cam.Eye, 0, 0)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					direct = out
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			var dfbFrame *img.RGBA
			err = comm.Run(p, func(c *comm.Comm) error {
				tiles, err := DFBComposite(c, partials[c.Rank()], boxes, cam.Eye, 1, DFBOptions{})
				if err != nil {
					return err
				}
				out, err := GatherTiles(c, tiles, W, H, 0, 2)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					dfbFrame = out
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			for i := range direct.Pix {
				if direct.Pix[i] != dfbFrame.Pix[i] {
					t.Fatalf("pixel float %d: DFB %v != direct-send %v",
						i, dfbFrame.Pix[i], direct.Pix[i])
				}
			}
		})
	}
}

// Owners must return every tile exactly once, on the rank its index
// maps to, with the right region.
func TestDFBTileOwnershipAndStreaming(t *testing.T) {
	testutil.CheckGoroutines(t)
	const P, W, H, tileRows = 4, 32, 30, 4
	_, partials, boxes, cam := renderPartials(t, P, W, H)

	var mu sync.Mutex
	seen := map[int]int{} // tile index -> times returned
	err := comm.Run(P, func(c *comm.Comm) error {
		rank := c.Rank()
		tiles, err := dfbComposite(c, partials[rank], boxes, cam.Eye, 0, tileRows)
		if err != nil {
			return err
		}
		for _, tl := range tiles {
			if tl.Index%P != rank {
				return fmt.Errorf("rank %d returned tile %d owned by %d", rank, tl.Index, tl.Index%P)
			}
			want := img.Region{X0: 0, Y0: tl.Index * tileRows, X1: W, Y1: min(tl.Index*tileRows+tileRows, H)}
			if tl.Region != want {
				return fmt.Errorf("tile %d region %+v, want %+v", tl.Index, tl.Region, want)
			}
			mu.Lock()
			seen[tl.Index]++
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	numTiles := (H + tileRows - 1) / tileRows
	for ti := 0; ti < numTiles; ti++ {
		if seen[ti] != 1 {
			t.Fatalf("tile %d returned %d times (want 1); seen %v", ti, seen[ti], seen)
		}
	}
}

// Footprint sparsity: partial images cover only their brick's screen
// projection, so most tile fragments are all-transparent markers and
// DFB must move fewer bytes than binary-swap + gather. This measures
// binary-swap's full-frame entry point, BinarySwap, whose every stage
// exchanges a dense half-region; the rect entry point the pipeline
// uses is measured by TestBinarySwapRectSendsFewerBytes.
func TestDFBMovesFewerBytesThanBinarySwap(t *testing.T) {
	testutil.CheckGoroutines(t)
	const P, W, H = 8, 64, 64
	_, partials, boxes, cam := renderPartials(t, P, W, H)

	var world *comm.World
	err := comm.Run(P, func(c *comm.Comm) error {
		if c.Rank() == 0 {
			world = c.World()
		}
		reg, piece, err := BinarySwap(c, partials[c.Rank()], boxes, cam.Eye, 0)
		if err != nil {
			return err
		}
		if _, err := FinalGather(c, reg, piece, W, H, 0, 1); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	swapBytes := world.BytesSent()

	_, partials, _, _ = renderPartials(t, P, W, H)
	err = comm.Run(P, func(c *comm.Comm) error {
		if c.Rank() == 0 {
			world = c.World()
		}
		tiles, err := DFBComposite(c, partials[c.Rank()], boxes, cam.Eye, 0, DFBOptions{})
		if err != nil {
			return err
		}
		if _, err := GatherTiles(c, tiles, W, H, 0, 1); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dfbBytes := world.BytesSent()

	if dfbBytes >= swapBytes {
		t.Fatalf("DFB moved %d bytes, binary-swap %d — expected footprint sparsity to win", dfbBytes, swapBytes)
	}
	t.Logf("bytes on wire: DFB %d vs binary-swap %d (%.1fx)", dfbBytes, swapBytes, float64(swapBytes)/float64(dfbBytes))
}

// A dead contributor must fail its owners fast with ErrRankFailed (via
// the expect set) as an ordinary error, not hang them or panic.
func TestDFBContributorDeathFailsFast(t *testing.T) {
	testutil.CheckGoroutines(t)
	const P, W, H = 4, 32, 32
	_, partials, boxes, cam := renderPartials(t, P, W, H)
	err := comm.Run(P, func(c *comm.Comm) error {
		if c.Rank() == 3 {
			// Dies before contributing anything.
			c.FailSelf()
			return nil
		}
		_, err := DFBComposite(c, partials[c.Rank()], boxes, cam.Eye, 0, DFBOptions{})
		if !errors.Is(err, comm.ErrRankFailed) {
			return fmt.Errorf("rank %d: expected ErrRankFailed, got %v", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Degenerate decompositions from the VisibilityOrder satellite: single
// box fast path, empty input, zero-thickness cut.
func TestVisibilityOrderFastPathsAndDegenerates(t *testing.T) {
	testutil.CheckGoroutines(t)
	eye := render.Vec3{X: -5, Y: 5, Z: 5}
	one := []vol.Box{{X0: 0, Y0: 0, Z0: 0, X1: 8, Y1: 8, Z1: 8}}
	order, err := VisibilityOrder(one, eye)
	if err != nil || len(order) != 1 || order[0] != 0 {
		t.Fatalf("single box: order %v err %v", order, err)
	}
	if _, err := VisibilityOrder(nil, eye); err == nil {
		t.Fatal("empty input: want error")
	}
	// A zero-thickness cut: the middle box has no extent on x.
	degenerate := []vol.Box{
		{X0: 0, Y0: 0, Z0: 0, X1: 5, Y1: 8, Z1: 8},
		{X0: 5, Y0: 0, Z0: 0, X1: 5, Y1: 8, Z1: 8},
		{X0: 5, Y0: 0, Z0: 0, X1: 8, Y1: 8, Z1: 8},
	}
	_, err = VisibilityOrder(degenerate, eye)
	if err == nil {
		t.Fatal("zero-thickness cut: want error")
	}
	if got := err.Error(); !strings.Contains(got, "degenerate") {
		t.Fatalf("error %q does not name the degenerate box", got)
	}
}
