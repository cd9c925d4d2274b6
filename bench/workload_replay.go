package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/compress"
	"repro/internal/datagen"
	"repro/internal/display"
	"repro/internal/img"
	"repro/internal/pipeline"
	"repro/internal/render"
	"repro/internal/tf"
	"repro/internal/transport"
	"repro/internal/vol"
	"repro/internal/volio"
)

// replayWorkload is replay_pieces: frames rendered in set-up as eight
// pieces each by the parallel pipeline, pre-encoded jpeg+lzo, then
// replayed through a plain transport.Daemon to a display.Viewer with a
// fixed number of frames in flight (closed loop: the next frame goes
// out when the one `inflight` before it has been displayed).
type replayWorkload struct {
	env      env
	size     int
	nsrc     int
	pieces   int
	inflight int
	warmup   int

	vol *vol.Volume
	// src are the assembled source frames, payloads[i] frame i's
	// marshalled piece messages (leading frame id patched per send),
	// order the seed's replay permutation.
	src      []*img.Frame
	payloads [][][]byte
	order    []int
}

func newReplayPieces(e env) (workload, error) {
	w := &replayWorkload{env: e, size: 512, nsrc: 8, pieces: 8, inflight: 4, warmup: 60}
	if e.quick {
		w.size, w.nsrc, w.warmup = 128, 2, 8
	}
	return w, nil
}

func (w *replayWorkload) coldStarts() int { return 15 }

// setup renders the source frames with pipeline.Run P=8 L=1 emitting
// per-node pieces — the parallel-compression path — and encodes each
// piece once.
func (w *replayWorkload) setup() error {
	scale := 0.2
	if w.env.quick {
		scale = 0.1
	}
	// Step 0 lies before the shock enters the domain and renders
	// blank, so the source frames are steps 1..nsrc.
	g, err := datagen.ByName("mixing", scale, w.nsrc+1)
	if err != nil {
		return err
	}
	if w.vol, err = g.Step(w.nsrc / 2); err != nil {
		return err
	}
	codec, err := compress.ByName("jpeg+lzo")
	if err != nil {
		return err
	}
	w.src = make([]*img.Frame, w.nsrc)
	w.payloads = make([][][]byte, w.nsrc)
	opt := pipeline.Options{
		P: w.pieces, L: 1, ImageW: w.size, ImageH: w.size, TF: tf.Mixing(), EmitPieces: true,
		CameraFn: func(_ int, d vol.Dims) (*render.Camera, error) {
			return render.NewOrbitCamera(d, seedAzimuth(w.env.seed), 0.35, 1.8)
		},
	}
	_, err = pipeline.Run(volio.NewGenStore(g), opt, func(f *pipeline.Frame) error {
		if f.Step == 0 {
			return nil
		}
		src := f.Step - 1
		full := img.NewFrame(w.size, w.size)
		for i, p := range f.Pieces {
			piece := p.Image.ToFrame(0)
			if err := full.Blit(piece, p.Region); err != nil {
				return err
			}
			data, err := codec.EncodeFrame(piece)
			if err != nil {
				return err
			}
			im := &transport.ImageMsg{
				PieceIndex: uint16(i), PieceCount: uint16(len(f.Pieces)),
				X0: uint16(p.Region.X0), Y0: uint16(p.Region.Y0), X1: uint16(p.Region.X1), Y1: uint16(p.Region.Y1),
				W: uint16(w.size), H: uint16(w.size), Codec: codec.Name(), Data: data,
			}
			payload, err := im.Marshal()
			if err != nil {
				return err
			}
			w.payloads[src] = append(w.payloads[src], payload)
		}
		w.src[src] = full
		return nil
	})
	if err != nil {
		return err
	}
	w.order = rand.New(rand.NewSource(w.env.seed)).Perm(w.nsrc)
	return nil
}

type replaySession struct {
	d      *transport.Daemon
	rend   *transport.Endpoint
	viewer *display.Viewer
	col    *collector
	wire   *connMeter
	codecs *codecCounter
	// sent[k] is when frame k's first piece went out.
	sent []time.Time
}

func (w *replayWorkload) open(rec *recorder) (*replaySession, error) {
	d, err := transport.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &replaySession{d: d}
	dispEp, err := transport.Dial(d.Addr().String(), transport.RoleDisplay, nil)
	if err != nil {
		d.Close()
		return nil, err
	}
	s.viewer = display.NewViewer(dispEp)
	s.col = newCollector(primaryViewer, w.env)
	go s.col.consume(s.viewer)
	if rec != nil {
		// The viewer is the only decoder and frames complete in send
		// order, so the n-th group of `pieces` decodes is frame n.
		s.codecs = &codecCounter{rec: rec, pieces: w.pieces}
		s.codecs.install()
		s.wire = &connMeter{rec: rec, viewer: primaryViewer, frame: func() int { return len(s.sent) - 1 }}
		s.rend, err = transport.Dial(d.Addr().String(), transport.RoleRenderer, s.wire.wrap)
	} else {
		s.rend, err = transport.Dial(d.Addr().String(), transport.RoleRenderer, nil)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *replaySession) close() {
	if s.rend != nil {
		s.rend.Close()
	}
	s.viewer.Close()
	_ = s.d.Close()
	<-s.col.done
	if s.codecs != nil {
		s.codecs.remove()
	}
}

// send replays source frame order[k mod nsrc] as frame id k.
func (w *replayWorkload) send(s *replaySession, k int) error {
	s.sent = append(s.sent, time.Now())
	for _, p := range w.payloads[w.order[k%w.nsrc]] {
		binary.BigEndian.PutUint32(p, uint32(k))
		if err := s.rend.Send(transport.Message{Type: transport.MsgImage, Payload: p}); err != nil {
			return err
		}
	}
	return nil
}

// coldStart: fresh daemon, viewer and renderer connections, first
// frame displayed.
func (w *replayWorkload) coldStart() (time.Duration, error) {
	t0 := time.Now()
	s, err := w.open(nil)
	if err != nil {
		return 0, err
	}
	defer s.close()
	if err := w.send(s, 0); err != nil {
		return 0, err
	}
	if err := s.col.waitFor(1, drainTimeout); err != nil {
		return 0, err
	}
	first, _ := s.col.from(0)
	return first[0].shown.Sub(t0), nil
}

func (w *replayWorkload) window(d time.Duration, rec *recorder) (*windowResult, error) {
	s, err := w.open(rec)
	if err != nil {
		return nil, err
	}
	defer s.close()
	res := &windowResult{layer: map[string]float64{}}
	var m *meter
	var end time.Time
	var drop0, wire0, blocked0 int64
	k := 0
	for ; end.IsZero() || time.Now().Before(end); k++ {
		if err := s.col.waitFor(k-w.inflight+1, drainTimeout); err != nil {
			return nil, err
		}
		if k == w.warmup {
			// The window opens once every warm-up frame is on screen.
			if err := s.col.waitFor(w.warmup, drainTimeout); err != nil {
				return nil, err
			}
			drop0 = s.d.Stats().ImagesDropped.Load()
			if s.wire != nil {
				wire0, blocked0 = s.wire.bytes.Load(), s.wire.blocked.Load()
			}
			s.col.setKeeping(true)
			m = startMeter(rec != nil)
			end = time.Now().Add(d)
		}
		if err := w.send(s, k); err != nil {
			return nil, err
		}
	}
	// Drain: every frame sent is owed.
	drainErr := s.col.waitFor(k, drainTimeout)
	if err := s.viewer.Err(); err != nil {
		return nil, fmt.Errorf("replay_pieces: viewer: %w", err)
	}
	all, kept := s.col.from(w.warmup - 1)
	vw := viewerWindow{name: primaryViewer, begin: all[0].shown, samples: all[1:], kept: kept}
	for i := range vw.samples {
		vw.samples[i].source = s.sent[vw.samples[i].id]
	}
	vw.owed = k - w.warmup
	vw.failed = vw.owed - len(vw.samples)
	if drainErr != nil && vw.failed == 0 {
		return nil, drainErr
	}
	res.viewers = []viewerWindow{vw}
	res.framesAll = len(vw.samples)
	m.stop(res, len(vw.samples))
	if rec == nil {
		return res, nil
	}
	frames := float64(len(vw.samples))
	l := res.layer
	l["transport.daemon_dropped_msgs"] = float64(s.d.Stats().ImagesDropped.Load() - drop0)
	l["wan.wire_bytes_per_frame"] = ratio(float64(s.wire.bytes.Load()-wire0), frames)
	l["wan.write_blocked_ms_per_frame"] = ratio(float64(s.wire.blocked.Load()-blocked0)/1e6, frames)
	return res, nil
}

func (w *replayWorkload) psnr(id uint32, got *img.Frame) (float64, error) {
	return img.PSNR(got, w.src[w.order[int(id)%w.nsrc]])
}

func (w *replayWorkload) probeInputs() (*probeInputs, error) {
	return newProbeInputs(w.vol, tf.Mixing(), seedAzimuth(w.env.seed), w.size, w.pieces, w.pieces, "jpeg+lzo")
}
