package display

import (
	"testing"
	"time"

	"repro/internal/compress/prog"
	"repro/internal/img"
	"repro/internal/transport"
)

// progMsgs encodes f with the full progressive stream and splits it
// into a preview chunk and a refinement tail, as the broker's
// split-send path does on the wire.
func progMsgs(t *testing.T, f *img.Frame, frameID uint32) (head, tail *transport.ImageMsg) {
	t.Helper()
	data, err := (prog.Codec{}).EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	h, tl, ok := prog.SplitPreview(data)
	if !ok {
		t.Fatal("SplitPreview failed on a full stream")
	}
	mk := func(d []byte) *transport.ImageMsg {
		return &transport.ImageMsg{
			FrameID: frameID, PieceCount: 1,
			X1: uint16(f.W), Y1: uint16(f.H),
			W: uint16(f.W), H: uint16(f.H),
			Codec: "prog", Data: d,
		}
	}
	return mk(h), mk(tl)
}

// TestProgressiveAssembly covers the preview-then-refine delivery: the
// preview chunk yields a usable (approximate) frame immediately, and
// the tail refines the same frame ID in place to lossless.
func TestProgressiveAssembly(t *testing.T) {
	f := gradientFrame(64, 48)
	a := NewAssembler()
	head, tail := progMsgs(t, f, 5)

	fr, err := a.Ingest(head)
	if err != nil {
		t.Fatal(err)
	}
	if fr == nil {
		t.Fatal("preview chunk must deliver a frame")
	}
	if fr.ID != 5 || fr.Refinement || fr.Final {
		t.Fatalf("preview delivery: %+v", fr)
	}
	if fr.Passes != 1 || fr.TotalPasses <= fr.Passes {
		t.Fatalf("preview passes %d/%d", fr.Passes, fr.TotalPasses)
	}
	if fr.Image.W != f.W || fr.Image.H != f.H {
		t.Fatalf("preview dims %dx%d", fr.Image.W, fr.Image.H)
	}
	if psnr, err := img.PSNR(f, fr.Image); err != nil || psnr < 20 {
		t.Fatalf("preview PSNR %.1f, want a usable approximation", psnr)
	}

	fr, err = a.Ingest(tail)
	if err != nil {
		t.Fatal(err)
	}
	if fr == nil {
		t.Fatal("refinement tail must deliver the final frame")
	}
	if !fr.Refinement || !fr.Final {
		t.Fatalf("refinement delivery: %+v", fr)
	}
	if !fr.Image.Equal(f) {
		t.Fatal("full progressive stream must reconstruct losslessly")
	}
	if a.lost != 0 {
		t.Fatalf("lost = %d", a.lost)
	}
}

// TestProgressiveOrphanTailDropped: a refinement tail whose preview was
// never seen (client joined mid-frame, preview dropped by the pacer)
// is discarded without error — drop-and-continue, counted as lost.
func TestProgressiveOrphanTailDropped(t *testing.T) {
	f := gradientFrame(32, 32)
	a := NewAssembler()
	_, tail := progMsgs(t, f, 9)
	fr, err := a.Ingest(tail)
	if err != nil {
		t.Fatalf("orphan tail must not error: %v", err)
	}
	if fr != nil {
		t.Fatal("orphan tail must not deliver a frame")
	}
	if a.lost != 1 {
		t.Fatalf("lost = %d, want 1", a.lost)
	}
	// The stream recovers: the next frame's full delivery still works.
	head, tail2 := progMsgs(t, f, 10)
	if fr, err := a.Ingest(head); err != nil || fr == nil {
		t.Fatalf("next preview: %v %v", fr, err)
	}
	if fr, err := a.Ingest(tail2); err != nil || fr == nil || !fr.Final {
		t.Fatalf("next tail: %v %v", fr, err)
	}
}

// TestViewerProgressiveStats: refinements refresh the displayed frame
// but must not inflate the frame/FPS accounting.
func TestViewerProgressiveStats(t *testing.T) {
	d, err := transport.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dispEp, err := transport.Dial(d.Addr().String(), transport.RoleDisplay, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := NewViewer(dispEp)
	defer v.Close()
	rend, err := transport.Dial(d.Addr().String(), transport.RoleRenderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rend.Close()

	f := gradientFrame(32, 32)
	head, tail := progMsgs(t, f, 0)
	for _, m := range []*transport.ImageMsg{head, tail} {
		if err := rend.SendImage(m); err != nil {
			t.Fatal(err)
		}
	}

	var deliveries []*Frame
	timeout := time.After(5 * time.Second)
	for len(deliveries) < 2 {
		select {
		case fr, ok := <-v.Frames():
			if !ok {
				t.Fatalf("frames channel closed early: %v", v.Err())
			}
			deliveries = append(deliveries, fr)
		case <-timeout:
			t.Fatalf("only %d deliveries arrived", len(deliveries))
		}
	}
	if deliveries[0].Refinement || !deliveries[1].Refinement {
		t.Fatalf("delivery order: %+v then %+v", deliveries[0], deliveries[1])
	}
	if !deliveries[1].Final || !deliveries[1].Image.Equal(f) {
		t.Fatal("refinement should deliver the final frame")
	}
	st := v.Stats()
	if st.Frames != 1 {
		t.Fatalf("frames = %d, want 1 (refinements must not count)", st.Frames)
	}
	if st.Refinements != 1 {
		t.Fatalf("refinements = %d, want 1", st.Refinements)
	}
}
