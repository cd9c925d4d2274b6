package display

import (
	"testing"
	"time"

	"repro/internal/compress"
	_ "repro/internal/compress/codecs"
	"repro/internal/img"
	"repro/internal/transport"
)

func encodePieces(t *testing.T, f *img.Frame, codec string, pieces int, frameID uint32) []*transport.ImageMsg {
	t.Helper()
	c, err := compress.ByName(codec)
	if err != nil {
		t.Fatal(err)
	}
	regs, err := img.SplitRows(f.W, f.H, pieces)
	if err != nil {
		t.Fatal(err)
	}
	var out []*transport.ImageMsg
	for i, r := range regs {
		sub, err := f.SubFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		data, err := c.EncodeFrame(sub)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, &transport.ImageMsg{
			FrameID: frameID, PieceIndex: uint16(i), PieceCount: uint16(pieces),
			X0: uint16(r.X0), Y0: uint16(r.Y0), X1: uint16(r.X1), Y1: uint16(r.Y1),
			W: uint16(f.W), H: uint16(f.H), Codec: codec, Data: data,
		})
	}
	return out
}

func gradientFrame(w, h int) *img.Frame {
	f := img.NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.Set(x, y, byte(x), byte(y), byte(x+y))
		}
	}
	return f
}

func TestSinglePieceFrame(t *testing.T) {
	f := gradientFrame(32, 24)
	a := NewAssembler()
	msgs := encodePieces(t, f, "raw", 1, 7)
	fr, err := a.Ingest(msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if fr == nil {
		t.Fatal("single piece must complete the frame")
	}
	if fr.ID != 7 || !fr.Image.Equal(f) {
		t.Fatal("assembled frame mismatch")
	}
	if fr.Pieces != 1 || fr.Bytes == 0 {
		t.Fatalf("%+v", fr)
	}
}

func TestMultiPieceAssemblyOutOfOrder(t *testing.T) {
	f := gradientFrame(64, 48)
	a := NewAssembler()
	msgs := encodePieces(t, f, "lzo", 6, 3)
	// Deliver out of order.
	order := []int{3, 0, 5, 2, 4, 1}
	var got *Frame
	for _, i := range order {
		fr, err := a.Ingest(msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if fr != nil {
			got = fr
		}
	}
	if got == nil {
		t.Fatal("frame never completed")
	}
	if !got.Image.Equal(f) {
		t.Fatal("out-of-order assembly mismatch")
	}
	if got.Pieces != 6 {
		t.Fatalf("pieces = %d", got.Pieces)
	}
}

func TestInterleavedFrames(t *testing.T) {
	f1 := gradientFrame(16, 16)
	f2 := gradientFrame(16, 16)
	for i := range f2.Pix {
		f2.Pix[i] ^= 0xff
	}
	a := NewAssembler()
	m1 := encodePieces(t, f1, "raw", 2, 1)
	m2 := encodePieces(t, f2, "raw", 2, 2)
	if _, err := a.Ingest(m1[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Ingest(m2[0]); err != nil {
		t.Fatal(err)
	}
	fr2, err := a.Ingest(m2[1])
	if err != nil || fr2 == nil || !fr2.Image.Equal(f2) {
		t.Fatalf("frame 2: %v %v", fr2, err)
	}
	fr1, err := a.Ingest(m1[1])
	if err != nil || fr1 == nil || !fr1.Image.Equal(f1) {
		t.Fatalf("frame 1: %v %v", fr1, err)
	}
}

func TestEvictionOfStalledFrames(t *testing.T) {
	a := NewAssembler()
	a.MaxInFlight = 2
	f := gradientFrame(8, 8)
	// Start 5 frames, never finish them.
	for id := uint32(0); id < 5; id++ {
		m := encodePieces(t, f, "raw", 2, id)[0]
		if _, err := a.Ingest(m); err != nil {
			t.Fatal(err)
		}
	}
	if a.lost != 3 {
		t.Fatalf("lost = %d, want 3", a.lost)
	}
}

func TestIngestRejectsBadCodec(t *testing.T) {
	a := NewAssembler()
	m := &transport.ImageMsg{FrameID: 1, PieceCount: 1, X1: 2, Y1: 2, W: 2, H: 2, Codec: "nope", Data: []byte{1}}
	if _, err := a.Ingest(m); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestIngestRejectsSizeMismatch(t *testing.T) {
	f := gradientFrame(8, 8)
	a := NewAssembler()
	m := encodePieces(t, f, "raw", 1, 1)[0]
	m.X1 = 4 // claims a 4-wide region but payload is 8 wide
	m.W, m.H = 8, 8
	if _, err := a.Ingest(m); err == nil {
		t.Fatal("piece/region mismatch accepted")
	}
}

func TestJPEGPiecesApproximate(t *testing.T) {
	f := gradientFrame(64, 64)
	a := NewAssembler()
	msgs := encodePieces(t, f, "jpeg", 4, 9)
	var got *Frame
	for _, m := range msgs {
		fr, err := a.Ingest(m)
		if err != nil {
			t.Fatal(err)
		}
		if fr != nil {
			got = fr
		}
	}
	if got == nil {
		t.Fatal("incomplete")
	}
	p, err := img.PSNR(f, got.Image)
	if err != nil {
		t.Fatal(err)
	}
	if p < 30 {
		t.Fatalf("PSNR %.1f", p)
	}
	if got.DecodeTime <= 0 {
		t.Fatal("decode time not recorded")
	}
}

func TestViewerEndToEnd(t *testing.T) {
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
	for id := uint32(0); id < 3; id++ {
		for _, m := range encodePieces(t, f, "jpeg+lzo", 2, id) {
			if err := rend.SendImage(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := 0
	timeout := time.After(5 * time.Second)
	for got < 3 {
		select {
		case fr, ok := <-v.Frames():
			if !ok {
				t.Fatalf("frames channel closed early: %v", v.Err())
			}
			if fr.Image.W != 32 {
				t.Fatal("bad frame")
			}
			got++
		case <-timeout:
			t.Fatalf("only %d frames arrived", got)
		}
	}
	st := v.Stats()
	if st.Frames != 3 || st.Bytes == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestViewerStatsFPS(t *testing.T) {
	s := ViewerStats{Frames: 3}
	s.FirstFrame = time.Now()
	s.LastFrame = s.FirstFrame.Add(time.Second)
	if fps := s.FPS(); fps < 1.9 || fps > 2.1 {
		t.Fatalf("fps = %v", fps)
	}
	if (&ViewerStats{Frames: 1}).FPS() != 0 {
		t.Fatal("single frame fps must be 0")
	}
}

func TestAssemblerSizeChangeMidAssembly(t *testing.T) {
	a := NewAssembler()
	f := gradientFrame(8, 8)
	m := encodePieces(t, f, "raw", 2, 5)[0]
	if _, err := a.Ingest(m); err != nil {
		t.Fatal(err)
	}
	// Second piece claims different full-frame dims.
	g := gradientFrame(8, 4)
	m2 := encodePieces(t, g, "raw", 2, 5)[1]
	if _, err := a.Ingest(m2); err == nil {
		t.Fatal("size change mid-assembly accepted")
	}
}

func TestAssemblerRejectsCorruptPayload(t *testing.T) {
	a := NewAssembler()
	m := &transport.ImageMsg{FrameID: 1, PieceCount: 1, X1: 4, Y1: 4, W: 4, H: 4, Codec: "jpeg", Data: []byte{1, 2, 3}}
	if _, err := a.Ingest(m); err == nil {
		t.Fatal("corrupt jpeg accepted")
	}
}

func TestViewerAutoAckReportsReceipts(t *testing.T) {
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

	f := gradientFrame(16, 16)
	for _, m := range encodePieces(t, f, "raw", 1, 0) {
		if err := rend.SendImage(m); err != nil {
			t.Fatal(err)
		}
	}
	fr := <-v.Frames()
	if fr == nil {
		t.Fatalf("no frame: %v", v.Err())
	}
	// The completed frame records which codec carried it.
	if fr.Codec != "raw" {
		t.Fatalf("frame codec %q, want raw", fr.Codec)
	}
	// The default viewer acks each completed frame; the plain daemon
	// counts them.
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().AcksReceived.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("daemon never saw the ack")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// With acking off, further frames produce no acks.
	v.SetAutoAck(false)
	before := d.Stats().AcksReceived.Load()
	for _, m := range encodePieces(t, f, "raw", 1, 1) {
		if err := rend.SendImage(m); err != nil {
			t.Fatal(err)
		}
	}
	if fr := <-v.Frames(); fr == nil {
		t.Fatalf("no second frame: %v", v.Err())
	}
	time.Sleep(50 * time.Millisecond)
	if got := d.Stats().AcksReceived.Load(); got != before {
		t.Fatalf("acks went %d -> %d with AutoAck off", before, got)
	}
}
