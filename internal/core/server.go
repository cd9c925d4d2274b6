// Package core ties the whole system together into the paper's
// remote-visualization architecture (Figure 2): a render Server that
// runs the pipelined parallel renderer, compresses composited
// sub-images in parallel, and ships them through the display daemon to
// remote viewers; and a Session helper that wires daemon + server +
// viewer over (optionally WAN-shaped) loopback sockets for experiments
// and examples.
package core

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress"
	// Register the full codec set: servers switch codecs by name on
	// user-control messages.
	_ "repro/internal/compress/codecs"
	"repro/internal/control"
	"repro/internal/img"
	"repro/internal/obs"
	"repro/internal/obs/provenance"
	"repro/internal/pipeline"
	"repro/internal/render"
	"repro/internal/tf"
	"repro/internal/transport"
	"repro/internal/vol"
	"repro/internal/volio"
)

// ServerOptions configures a render server.
type ServerOptions struct {
	// DaemonAddr is the display daemon's address.
	DaemonAddr string
	// Wrap optionally wraps the daemon connection (e.g. wan.Shape).
	Wrap func(net.Conn) net.Conn
	// P and L are the processor count and group count.
	P, L int
	// ImageW, ImageH set the output image size.
	ImageW, ImageH int
	// Codec is the initial compression ("raw" models the X baseline).
	Codec string
	// Pieces is the number of compressed sub-images per frame: 1
	// compresses the assembled image, G compresses every node's
	// piece independently, intermediate values use the paper's
	// hybrid grouping. 0 means 1.
	Pieces int
	// TF is the initial transfer function.
	TF *tf.TF
	// View is the initial orbit view; zero value gets a default.
	View control.ViewEvent
	// Render are the ray-casting options (zero = defaults).
	Render render.Options
	// Steps caps steps per pass (0 = all); Loop repeats passes until
	// Stop, re-rendering the animation.
	Steps int
	Loop  bool
	// RegionInput enables the §7.1 parallel-I/O input path (requires
	// the store to support region reads).
	RegionInput bool
	// NodeLinks opens one renderer-interface connection per
	// compressed piece, as in the paper's Figure 2 where each compute
	// node talks to the daemon itself; pieces of a frame then travel
	// concurrently. Combine with a wan.Shared wrap so the flows
	// contend for one modelled physical link.
	NodeLinks bool
	// Reconnect, when set, makes the daemon link a resumable session:
	// on connection loss it redials with exponential backoff + jitter
	// per the policy, re-advertises codecs, and resumes streaming.
	// Frames produced while the link is down are dropped (counted in
	// FramesDropped) instead of aborting the run. NodeLinks side
	// connections are not session-managed.
	Reconnect *transport.RetryPolicy
	// Heartbeat, with Reconnect set, pings the daemon on this
	// interval so a stalled (partitioned) link is detected and
	// redialed even when TCP keeps the socket open.
	Heartbeat time.Duration
	// Breaker, with Reconnect set, circuit-breaks the daemon link:
	// after its failure threshold trips, reconnect attempts are refused
	// (still consuming retry budget) until its cooldown elapses and a
	// half-open probe succeeds, so a hard-down daemon is not hammered
	// at full dial rate. nil = no breaker.
	Breaker transport.UpstreamBreaker
	// Background is the gray level composited behind the volume.
	Background float32
	// Trace, when set, records per-group pipeline stage spans plus the
	// server's own encode/ship spans (track "server").
	Trace *obs.Tracer
	// Metrics, when set, receives pipeline stage histograms and the
	// server counters (see Server.Instrument).
	Metrics *obs.Registry
	// Prov, when set, records origin frame-provenance events
	// (rendered/composited/compressed/sent) and makes every outgoing
	// image carry a wire trace context (hop 0 = this server), so
	// daemons, relays and viewers downstream can log against it.
	Prov *provenance.Log
}

// ServerStats counts server activity.
type ServerStats struct {
	FramesSent atomic.Int64
	BytesSent  atomic.Int64
	EncodeNS   atomic.Int64
	RenderNS   atomic.Int64
	// FramesDropped counts frames discarded while the daemon link was
	// reconnecting (Reconnect mode only).
	FramesDropped atomic.Int64
}

// Server is the render-cluster side of the system.
type Server struct {
	opt   ServerOptions
	store volio.Store
	ep    transport.Link
	// sess is ep when Reconnect is enabled (for terminal-error and
	// health checks); nil otherwise.
	sess *transport.Session
	// nodeEps are the extra per-node connections (NodeLinks); piece i
	// of a frame travels over connection i mod len(eps).
	nodeEps []*transport.Endpoint
	ctrl    *control.State

	mu      sync.Mutex
	view    control.ViewEvent
	curTF   *tf.TF
	codec   compress.FrameCodec
	stride  int
	stopped bool

	frameID atomic.Uint32
	// traceID identifies this server's frame stream in wire trace
	// contexts (random per process lifetime).
	traceID uint64
	stats   ServerStats
}

// NewServer dials the daemon and prepares a server.
func NewServer(store volio.Store, opt ServerOptions) (*Server, error) {
	if opt.TF == nil {
		return nil, fmt.Errorf("core: nil transfer function")
	}
	if opt.Codec == "" {
		opt.Codec = "jpeg+lzo"
	}
	if opt.Pieces == 0 {
		opt.Pieces = 1
	}
	g := 0
	if opt.L > 0 {
		g = opt.P / opt.L
	}
	if opt.Pieces < 1 || (g > 0 && opt.Pieces > g) {
		return nil, fmt.Errorf("core: pieces %d out of [1,%d]", opt.Pieces, g)
	}
	if opt.View == (control.ViewEvent{}) {
		opt.View = control.ViewEvent{Azimuth: 0.6, Elevation: 0.35, Distance: 1.8}
	}
	codec, err := compress.ByName(opt.Codec)
	if err != nil {
		return nil, err
	}
	// Advertise the codec families this server can produce: the
	// adaptive stream broker restricts its per-client quality ladder
	// to these; the plain daemon ignores the message.
	advertise := func(ep *transport.Endpoint) error {
		return ep.Send(transport.Message{Type: transport.MsgAdvertise, Payload: transport.MarshalAdvertise(compress.Names())})
	}
	var ep transport.Link
	var sess *transport.Session
	if opt.Reconnect != nil {
		// Resumable session: every (re)connect re-runs the handshake
		// and re-advertises, so the broker's quality ladder restarts
		// cleanly when the server rejoins.
		sess, err = transport.NewSession(transport.SessionConfig{
			Role:      transport.RoleRenderer,
			Addr:      opt.DaemonAddr,
			Wrap:      opt.Wrap,
			Retry:     *opt.Reconnect,
			Heartbeat: opt.Heartbeat,
			Breaker:   opt.Breaker,
			OnConnect: advertise,
		})
		if err != nil {
			return nil, err
		}
		ep = sess
	} else {
		e, err := transport.Dial(opt.DaemonAddr, transport.RoleRenderer, opt.Wrap)
		if err != nil {
			return nil, err
		}
		if err := advertise(e); err != nil {
			e.Close()
			return nil, err
		}
		ep = e
	}
	s := &Server{
		opt:   opt,
		store: store,
		ep:    ep,
		sess:  sess,
		ctrl:  control.NewState(),
		view:  opt.View,
		curTF: opt.TF,
		codec: codec,
	}
	if opt.Prov != nil {
		s.traceID = rand.Uint64() | 1
	}
	if opt.NodeLinks && opt.Pieces > 1 {
		for i := 1; i < opt.Pieces; i++ {
			nep, err := transport.Dial(opt.DaemonAddr, transport.RoleRenderer, opt.Wrap)
			if err != nil {
				ep.Close()
				for _, e := range s.nodeEps {
					e.Close()
				}
				return nil, err
			}
			s.nodeEps = append(s.nodeEps, nep)
		}
	}
	s.Instrument(opt.Metrics)
	go s.controlLoop()
	return s, nil
}

// endpointFor returns the connection piece i travels on.
func (s *Server) endpointFor(i int) transport.Link {
	if len(s.nodeEps) == 0 || i == 0 {
		return s.ep
	}
	return s.nodeEps[(i-1)%len(s.nodeEps)]
}

// Stats exposes the server counters.
func (s *Server) Stats() *ServerStats { return &s.stats }

// Instrument registers the server counters on a metrics registry.
// Called automatically by NewServer when Options.Metrics is set; safe
// to call while running.
func (s *Server) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	st := &s.stats
	reg.CounterFunc("server_frames_sent_total",
		"Frames compressed and shipped to the display daemon.", st.FramesSent.Load)
	reg.CounterFunc("server_bytes_sent_total",
		"Compressed frame bytes shipped to the display daemon.", st.BytesSent.Load)
	reg.GaugeFunc("server_encode_seconds_total",
		"Cumulative frame compression time in seconds.", func() float64 {
			return time.Duration(st.EncodeNS.Load()).Seconds()
		})
	reg.GaugeFunc("server_render_seconds_total",
		"Cumulative render+composite time in seconds.", func() float64 {
			return time.Duration(st.RenderNS.Load()).Seconds()
		})
	reg.CounterFunc("server_frames_dropped_total",
		"Frames discarded while the daemon link was reconnecting.", st.FramesDropped.Load)
}

// LinkState reports the daemon-link health (zero value when the
// server runs without Reconnect).
func (s *Server) LinkState() transport.SessionState {
	if s.sess == nil {
		return transport.SessionState{Connected: true}
	}
	return s.sess.State()
}

// controlLoop ingests remote callbacks from the daemon.
func (s *Server) controlLoop() {
	for m := range s.ep.Inbox() {
		if m.Type != transport.MsgControl {
			continue
		}
		cm, err := transport.UnmarshalControl(m.Payload)
		if err != nil {
			continue
		}
		// Buffer only; applied between frames (paper §5).
		_ = s.ctrl.Ingest(cm)
	}
}

// applyControl drains buffered user input into the active state.
func (s *Server) applyControl() {
	p := s.ctrl.Apply()
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.View != nil {
		s.view = *p.View
	}
	if p.Colormap != nil {
		s.curTF = p.Colormap
	}
	if p.Codec != "" {
		if c, err := compress.ByName(p.Codec); err == nil {
			s.codec = c
		}
	}
	if p.Stride > 0 {
		s.stride = p.Stride
	}
}

// Stop ends Run after the current frame and closes the connections.
func (s *Server) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.ep.Close()
	for _, e := range s.nodeEps {
		e.Close()
	}
}

func (s *Server) isStopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped
}

// Run renders and streams until the pass completes (or forever with
// Loop) — call Stop from another goroutine to end it. Preview-mode
// stride changes take effect at the next pass.
func (s *Server) Run() error {
	for {
		s.mu.Lock()
		stride := s.stride
		s.mu.Unlock()
		store := volio.Strided(s.store, stride)
		steps := s.opt.Steps
		if stride > 1 && steps > 0 {
			steps = (steps + stride - 1) / stride
		}
		popt := pipeline.Options{
			P: s.opt.P, L: s.opt.L,
			ImageW: s.opt.ImageW, ImageH: s.opt.ImageH,
			TF:          s.opt.TF,
			Render:      s.opt.Render,
			Steps:       steps,
			EmitPieces:  true,
			RegionInput: s.opt.RegionInput,
			Trace:       s.opt.Trace,
			Metrics:     s.opt.Metrics,
			TFFn: func(step int) *tf.TF {
				s.mu.Lock()
				defer s.mu.Unlock()
				return s.curTF
			},
			CameraFn: func(step int, d vol.Dims) (*render.Camera, error) {
				s.mu.Lock()
				v := s.view
				s.mu.Unlock()
				return render.NewOrbitCamera(d, v.Azimuth, v.Elevation, v.Distance)
			},
			BeforeStep: func(step int) {
				s.applyControl()
				for !s.ctrl.Running() && !s.isStopped() {
					time.Sleep(5 * time.Millisecond)
					s.applyControl()
				}
			},
		}
		_, err := pipeline.Run(store, popt, s.sendFrame)
		if err != nil {
			if s.isStopped() {
				return nil
			}
			return err
		}
		if !s.opt.Loop || s.isStopped() {
			return nil
		}
	}
}

// sendFrame compresses a frame's pieces (hybrid-grouped to
// opt.Pieces) and ships them to the daemon.
func (s *Server) sendFrame(f *pipeline.Frame) error {
	if s.isStopped() {
		return fmt.Errorf("core: server stopped")
	}
	if s.sess != nil {
		if err := s.sess.Err(); err != nil {
			// Reconnection gave up: stop rendering into the void.
			return fmt.Errorf("core: daemon link lost: %w", err)
		}
	}
	s.stats.RenderNS.Add(int64(f.RenderTime + f.CompositeTime))
	defer s.opt.Trace.Begin("server", "core", "ship", "step", f.Step)()
	pieces, err := MergePieces(f.Pieces, s.opt.Pieces)
	if err != nil {
		return err
	}
	s.mu.Lock()
	codec := s.codec
	s.mu.Unlock()
	id := s.frameID.Add(1) - 1
	var tc *transport.TraceCtx
	if s.traceID != 0 {
		origin := time.Now().UnixNano()
		tc = &transport.TraceCtx{TraceID: s.traceID, FrameID: id, OriginUnixNano: origin}
		// The pipeline delivered a composited frame; back-date the
		// render mark by the composite stage so the origin timeline
		// shows both stages.
		s.opt.Prov.Record(provenance.Event{
			Trace: s.traceID, Frame: id, Event: provenance.EvRendered,
			UnixNano: origin - int64(f.CompositeTime),
		})
		s.opt.Prov.Record(provenance.Event{
			Trace: s.traceID, Frame: id, Event: provenance.EvComposited, UnixNano: origin,
		})
	}
	// With per-node links the pieces are compressed and shipped
	// concurrently, as the paper's compute nodes do ("as soon as a
	// processor completes the sub-image it is responsible for
	// compositing, it compresses and sends the compressed
	// sub-image").
	errs := make([]error, len(pieces))
	var wg sync.WaitGroup
	for i, p := range pieces {
		send := func(i int, p pipeline.Piece) {
			// Pool-backed conversion: the frame only lives until the
			// encode below, and SendImage writes synchronously, so
			// both the frame and the encoded payload recycle at the
			// end of the call — the per-piece path allocates nothing
			// at steady state.
			frame := p.Image.ToFrameInto(img.GetFrameRaw(p.Image.W, p.Image.H), s.opt.Background)
			defer img.PutFrame(frame)
			t0 := time.Now()
			data, err := codec.EncodeFrame(frame)
			if err != nil {
				errs[i] = err
				return
			}
			defer compress.Recycle(data)
			s.stats.EncodeNS.Add(int64(time.Since(t0)))
			msg := &transport.ImageMsg{
				FrameID:    id,
				PieceIndex: uint16(i),
				PieceCount: uint16(len(pieces)),
				X0:         uint16(p.Region.X0), Y0: uint16(p.Region.Y0),
				X1: uint16(p.Region.X1), Y1: uint16(p.Region.Y1),
				W: uint16(s.opt.ImageW), H: uint16(s.opt.ImageH),
				Codec: codec.Name(),
				Data:  data,
			}
			var out transport.Message
			out.Type = transport.MsgImage
			if out.Payload, err = msg.Marshal(); err != nil {
				errs[i] = err
				return
			}
			if tc != nil {
				s.opt.Prov.Record(provenance.Event{
					Trace: s.traceID, Frame: id, Event: provenance.EvCompressed,
					Bytes: len(data), Cause: codec.Name(),
				})
				// Downstream processes hold the frame at hop 1.
				fwd := *tc
				fwd.Hop = 1
				out.Trace = &fwd
			}
			if err := s.endpointFor(i).Send(out); err != nil {
				// In Reconnect mode a downed link degrades to frame
				// drops: the session is redialing in the background
				// (or has terminally failed, which Run surfaces), and
				// the animation resumes on rejoin.
				if s.sess != nil {
					s.stats.FramesDropped.Add(1)
					return
				}
				errs[i] = err
				return
			}
			if tc != nil {
				s.opt.Prov.Record(provenance.Event{
					Trace: s.traceID, Frame: id, Event: provenance.EvSent, Bytes: len(out.Payload),
				})
			}
			s.stats.BytesSent.Add(int64(len(data)))
		}
		if len(s.nodeEps) > 0 {
			wg.Add(1)
			go func(i int, p pipeline.Piece) {
				defer wg.Done()
				send(i, p)
			}(i, p)
		} else {
			send(i, p)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	s.stats.FramesSent.Add(1)
	return nil
}
