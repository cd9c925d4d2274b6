package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	_ "repro/internal/compress/codecs"
	"repro/internal/control"
	"repro/internal/datagen"
	"repro/internal/img"
	"repro/internal/pipeline"
	"repro/internal/tf"
	"repro/internal/volio"
	"repro/internal/wan"
)

func testStore(steps int) volio.Store {
	return volio.NewGenStore(datagen.NewJetScaled(0.12, steps))
}

func collectFrames(t *testing.T, s *Session, n int, timeout time.Duration) []*imgFrame {
	t.Helper()
	var out []*imgFrame
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case fr, ok := <-s.Viewer.Frames():
			if !ok {
				t.Fatalf("frames channel closed after %d frames: viewer err %v", len(out), s.Viewer.Err())
			}
			out = append(out, &imgFrame{id: fr.ID, im: fr.Image})
		case <-deadline:
			t.Fatalf("timed out with %d of %d frames", len(out), n)
		}
	}
	return out
}

type imgFrame struct {
	id uint32
	im *img.Frame
}

func TestEndToEndSession(t *testing.T) {
	const steps = 3
	s, err := StartSession(testStore(steps), SessionOptions{
		Server: ServerOptions{
			P: 4, L: 2, ImageW: 48, ImageH: 48,
			Codec: "jpeg+lzo", Pieces: 1, TF: tf.Jet(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	frames := collectFrames(t, s, steps, 20*time.Second)
	seen := map[uint32]bool{}
	for _, f := range frames {
		if f.im.W != 48 || f.im.H != 48 {
			t.Fatalf("frame %d is %dx%d", f.id, f.im.W, f.im.H)
		}
		if seen[f.id] {
			t.Fatalf("duplicate frame %d", f.id)
		}
		seen[f.id] = true
		// A rendered jet frame must have some lit pixels.
		lit := 0
		for _, p := range f.im.Pix {
			if p > 10 {
				lit++
			}
		}
		if lit == 0 {
			t.Fatalf("frame %d is black", f.id)
		}
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := s.Server.Stats().FramesSent.Load(); got != steps {
		t.Fatalf("server sent %d frames", got)
	}
}

func TestParallelCompressionPieces(t *testing.T) {
	const steps = 2
	s, err := StartSession(testStore(steps), SessionOptions{
		Server: ServerOptions{
			P: 4, L: 1, ImageW: 48, ImageH: 48,
			Codec: "jpeg", Pieces: 4, TF: tf.Jet(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	frames := collectFrames(t, s, steps, 20*time.Second)
	if len(frames) != steps {
		t.Fatalf("%d frames", len(frames))
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// Frames shipped raw (the X baseline) must match frames shipped
// losslessly compressed bit-for-bit.
func TestRawAndLosslessAgree(t *testing.T) {
	run := func(codec string) *img.Frame {
		s, err := StartSession(testStore(1), SessionOptions{
			Server: ServerOptions{
				P: 4, L: 1, ImageW: 40, ImageH: 40,
				Codec: codec, TF: tf.Jet(),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fr := collectFrames(t, s, 1, 20*time.Second)[0]
		if err := s.Wait(); err != nil {
			t.Fatal(err)
		}
		return fr.im
	}
	a := run("raw")
	b := run("lzo")
	if !a.Equal(b) {
		t.Fatal("raw and lzo frames differ")
	}
}

func TestShapedSessionStillDelivers(t *testing.T) {
	s, err := StartSession(testStore(1), SessionOptions{
		Server: ServerOptions{
			P: 2, L: 1, ImageW: 32, ImageH: 32,
			Codec: "jpeg+lzo", TF: tf.Jet(),
		},
		Link: wan.Profile{Latency: 10 * time.Millisecond, Bandwidth: 500e3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	collectFrames(t, s, 1, 20*time.Second)
}

func TestControlColormapApplies(t *testing.T) {
	// Loop the same step forever; switch colormap mid-stream and
	// verify frames change.
	s, err := StartSession(testStore(1), SessionOptions{
		Server: ServerOptions{
			P: 2, L: 1, ImageW: 32, ImageH: 32,
			Codec: "raw", TF: tf.Grayscale(), Loop: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first := collectFrames(t, s, 1, 20*time.Second)[0]
	if err := s.Viewer.SendControl(control.ColormapMsg(tf.Jet())); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(20 * time.Second)
	for {
		select {
		case fr, ok := <-s.Viewer.Frames():
			if !ok {
				t.Fatalf("stream ended: %v", s.Viewer.Err())
			}
			if !fr.Image.Equal(first.im) {
				s.Server.Stop()
				return // colormap change took effect
			}
		case <-deadline:
			t.Fatal("colormap change never took effect")
		}
	}
}

func TestControlViewApplies(t *testing.T) {
	s, err := StartSession(testStore(1), SessionOptions{
		Server: ServerOptions{
			P: 2, L: 1, ImageW: 32, ImageH: 32,
			Codec: "raw", TF: tf.Jet(), Loop: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first := collectFrames(t, s, 1, 20*time.Second)[0]
	if err := s.Viewer.SendControl(control.ViewMsg(control.ViewEvent{Azimuth: 2.5, Elevation: -0.5, Distance: 2.5})); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(20 * time.Second)
	for {
		select {
		case fr, ok := <-s.Viewer.Frames():
			if !ok {
				t.Fatalf("stream ended: %v", s.Viewer.Err())
			}
			if !fr.Image.Equal(first.im) {
				s.Server.Stop()
				return
			}
		case <-deadline:
			t.Fatal("view change never took effect")
		}
	}
}

func TestServerOptionValidation(t *testing.T) {
	if _, err := NewServer(testStore(1), ServerOptions{}); err == nil {
		t.Fatal("nil TF accepted")
	}
	if _, err := NewServer(testStore(1), ServerOptions{TF: tf.Jet(), Codec: "bogus", DaemonAddr: "127.0.0.1:1"}); err == nil {
		t.Fatal("unknown codec accepted")
	}
	if _, err := NewServer(testStore(1), ServerOptions{TF: tf.Jet(), P: 4, L: 1, Pieces: 9, DaemonAddr: "127.0.0.1:1"}); err == nil {
		t.Fatal("pieces > G accepted")
	}
}

func mkPieces(t *testing.T, w, h, n int) []pipeline.Piece {
	t.Helper()
	regs, err := img.SplitRows(w, h, n)
	if err != nil {
		t.Fatal(err)
	}
	var out []pipeline.Piece
	for i, r := range regs {
		im := img.NewRGBA(r.W(), r.H())
		for j := range im.Pix {
			im.Pix[j] = float32(i+1) / float32(n+1)
		}
		out = append(out, pipeline.Piece{Region: r, Image: im})
	}
	return out
}

func TestMergePieces(t *testing.T) {
	pieces := mkPieces(t, 16, 16, 8)
	merged, err := MergePieces(pieces, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 2 {
		t.Fatalf("%d merged pieces", len(merged))
	}
	total := 0
	for _, m := range merged {
		total += m.Region.Pixels()
		if m.Image.W != m.Region.W() || m.Image.H != m.Region.H() {
			t.Fatal("merged size mismatch")
		}
	}
	if total != 16*16 {
		t.Fatalf("merged cover %d px", total)
	}
	// k >= n returns input unchanged.
	same, err := MergePieces(pieces, 8)
	if err != nil || len(same) != 8 {
		t.Fatalf("%v %d", err, len(same))
	}
	// Non-divisible k falls back.
	fall, err := MergePieces(pieces, 3)
	if err != nil || len(fall) != 8 {
		t.Fatalf("fallback: %v %d", err, len(fall))
	}
	if _, err := MergePieces(nil, 1); err == nil {
		t.Fatal("empty pieces accepted")
	}
	if _, err := MergePieces(pieces, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestMergePiecesContentPreserved(t *testing.T) {
	pieces := mkPieces(t, 8, 8, 4)
	merged, err := MergePieces(pieces, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Reassemble both and compare.
	re := func(ps []pipeline.Piece) *img.RGBA {
		out := img.NewRGBA(8, 8)
		for _, p := range ps {
			if err := out.BlitRGBA(p.Image, p.Region); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	a, b := re(pieces), re(merged)
	for i := range a.Pix {
		if math.Abs(float64(a.Pix[i]-b.Pix[i])) > 0 {
			t.Fatal("content changed by merge")
		}
	}
}

func TestControlStrideApplies(t *testing.T) {
	// 8-step dataset, loop mode; after sending stride 4, passes render
	// ceil(8/4) = 2 frames each, so frame IDs keep climbing but the
	// server's per-pass frame count drops. Observe that streaming
	// continues and the server survives the stride switch.
	s, err := StartSession(testStore(8), SessionOptions{
		Server: ServerOptions{
			P: 2, L: 1, ImageW: 24, ImageH: 24,
			Codec: "raw", TF: tf.Jet(), Loop: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	collectFrames(t, s, 2, 20*time.Second)
	if err := s.Viewer.SendControl(control.StrideMsg(4)); err != nil {
		t.Fatal(err)
	}
	// Keep consuming; the stream must continue across the stride
	// change (applied at the next pass).
	collectFrames(t, s, 12, 30*time.Second)
	s.Server.Stop()
}

// With per-node links (one renderer connection per piece, Figure 2's
// topology) frames must still assemble correctly at the viewer.
func TestNodeLinksDeliverFrames(t *testing.T) {
	const steps = 3
	s, err := StartSession(testStore(steps), SessionOptions{
		Server: ServerOptions{
			P: 4, L: 1, ImageW: 48, ImageH: 48,
			Codec: "jpeg+lzo", Pieces: 4, TF: tf.Jet(),
			NodeLinks: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	frames := collectFrames(t, s, steps, 30*time.Second)
	seen := map[uint32]bool{}
	for _, f := range frames {
		if seen[f.id] {
			t.Fatalf("duplicate frame %d", f.id)
		}
		seen[f.id] = true
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// Node-link frames must be pixel-identical to single-link frames for a
// lossless codec.
func TestNodeLinksMatchSingleLink(t *testing.T) {
	run := func(nodeLinks bool) *img.Frame {
		s, err := StartSession(testStore(1), SessionOptions{
			Server: ServerOptions{
				P: 4, L: 1, ImageW: 40, ImageH: 40,
				Codec: "raw", Pieces: 4, TF: tf.Jet(),
				NodeLinks: nodeLinks,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fr := collectFrames(t, s, 1, 30*time.Second)[0]
		if err := s.Wait(); err != nil {
			t.Fatal(err)
		}
		return fr.im
	}
	a := run(false)
	b := run(true)
	if !a.Equal(b) {
		t.Fatal("node-link frame differs from single-link frame")
	}
}

// Property: for any row tiling and any k, MergePieces preserves pixel
// content exactly (either merged or falling back).
func TestMergePiecesProperty(t *testing.T) {
	f := func(wSeed, hSeed, nSeed, kSeed uint8) bool {
		w := int(wSeed%16) + 4
		h := int(hSeed%16) + 4
		n := int(nSeed%uint8(h)) + 1
		k := int(kSeed%8) + 1
		regs, err := img.SplitRows(w, h, n)
		if err != nil {
			return false
		}
		pieces := make([]pipeline.Piece, n)
		for i, r := range regs {
			im := img.NewRGBA(r.W(), r.H())
			for j := range im.Pix {
				im.Pix[j] = float32((i*131 + j*17) % 255)
			}
			pieces[i] = pipeline.Piece{Region: r, Image: im}
		}
		reassemble := func(ps []pipeline.Piece) *img.RGBA {
			out := img.NewRGBA(w, h)
			for _, p := range ps {
				if err := out.BlitRGBA(p.Image, p.Region); err != nil {
					return nil
				}
			}
			return out
		}
		want := reassemble(pieces)
		merged, err := MergePieces(pieces, k)
		if err != nil {
			return false
		}
		got := reassemble(merged)
		if want == nil || got == nil {
			return false
		}
		for i := range want.Pix {
			if want.Pix[i] != got.Pix[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
