package main

import (
	"fmt"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/img"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/tf"
	"repro/internal/vol"
	"repro/internal/volio"
	"repro/internal/wan"
)

// coreWorkload is render_lan and wan_vortex: a dataset on disk served
// by volio.FileStore to core.StartSession (render server, plain
// transport.Daemon, display.Viewer over loopback TCP), streaming in a
// closed loop — the server renders the next frame only as fast as the
// socket to the daemon drains.
type coreWorkload struct {
	name   string
	env    env
	gen    datagen.Generator
	tf     *tf.TF
	codec  string
	link   wan.Profile // zero = unshaped
	warmup int
	size   int
	view   control.ViewEvent

	path string
	// refs caches the serial whole-volume reference render per step.
	refs map[int]*img.Frame
}

const (
	coreP      = 4
	coreL      = 2
	corePieces = 2
)

func newRenderLAN(e env) (workload, error) {
	// 8 of the jet's 150 steps: each costs 225 ms to synthesize and
	// set-up runs three times; the loop re-reads them from the .tvv.
	scale, steps, size, warmup := 1.0, 8, 512, 16
	if e.quick {
		scale, steps, size, warmup = 0.25, 4, 128, 4
	}
	g, err := datagen.ByName("jet", scale, steps)
	if err != nil {
		return nil, err
	}
	return &coreWorkload{name: "render_lan", env: e, gen: g, tf: tf.Jet(), codec: "lzo", warmup: warmup, size: size, view: seedView(e.seed)}, nil
}

func newWANVortex(e env) (workload, error) {
	// 48^3, not the 64^3 of the issue's sizing: at 64^3 one group renders
	// a frame in about the time the link carries one, and the workload
	// sits on the edge between render-bound and wire-bound.
	// 30 steps per pass: the server restarts the pipeline at every pass
	// end, and the link idles while the first frame of a pass renders.
	scale, steps, size, warmup := 0.375, 30, 512, 8
	if e.quick {
		scale, steps, size, warmup = 0.25, 4, 128, 4
	}
	g, err := datagen.ByName("vortex", scale, steps)
	if err != nil {
		return nil, err
	}
	return &coreWorkload{name: "wan_vortex", env: e, gen: g, tf: tf.Vortex(), codec: "jpeg+lzo", link: wan.JapanUCD(), warmup: warmup, size: size, view: seedView(e.seed)}, nil
}

// seedView turns the seed into the camera's start azimuth.
func seedView(seed int64) control.ViewEvent {
	return control.ViewEvent{Azimuth: seedAzimuth(seed), Elevation: 0.35, Distance: 1.8}
}

// seedAzimuth keeps the seeds within half a degree of one view: every
// seed renders different pixels, but rays cross the same amount of
// data, so runs on different seeds measure the same work and their
// spread is the host's noise, not the camera's.
func seedAzimuth(seed int64) float64 {
	return 0.6 + float64(seed%32)*0.0003
}

func (w *coreWorkload) coldStarts() int { return 5 }

// setup writes the dataset to a .tvv, as volio.WriteDataset does but
// synthesizing steps on every core.
func (w *coreWorkload) setup() error {
	w.path = filepath.Join(w.env.dir, w.name+".tvv")
	w.refs = map[int]*img.Frame{}
	return writeDataset(w.path, w.gen)
}

func writeDataset(path string, g datagen.Generator) error {
	n := g.Steps()
	batch := func(steps []int) ([]*vol.Volume, error) {
		out := make([]*vol.Volume, len(steps))
		errs := make([]error, len(steps))
		var wg sync.WaitGroup
		for i, t := range steps {
			wg.Add(1)
			go func(i, t int) {
				defer wg.Done()
				out[i], errs[i] = g.Step(t)
			}(i, t)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	// Range prepass over first, middle and last step, like
	// volio.WriteDataset, so every node classifies identically.
	probe, err := batch([]int{0, n / 2, n - 1})
	if err != nil {
		return err
	}
	hdr := volio.Header{Dims: g.Dims(), Steps: n, Min: probe[0].Min, Max: probe[0].Max}
	for _, v := range probe[1:] {
		hdr.Min = float32(math.Min(float64(hdr.Min), float64(v.Min)))
		hdr.Max = float32(math.Max(float64(hdr.Max), float64(v.Max)))
	}
	out, err := volio.Create(path, hdr)
	if err != nil {
		return err
	}
	width := runtime.GOMAXPROCS(0)
	for t := 0; t < n; t += width {
		var steps []int
		for s := t; s < n && s < t+width; s++ {
			steps = append(steps, s)
		}
		vols, err := batch(steps)
		if err != nil {
			out.Close()
			return err
		}
		for _, v := range vols {
			if err := out.WriteStep(v); err != nil {
				out.Close()
				return err
			}
		}
	}
	return out.Close()
}

// coreSession is one live daemon+server+viewer triple.
type coreSession struct {
	sess   *core.Session
	reader *volio.Reader
	store  *stampStore
	col    *collector
	wire   *connMeter    // traced only
	codecs *codecCounter // traced only
	reg    *obs.Registry // traced only
}

func (w *coreWorkload) open(rec *recorder) (*coreSession, error) {
	r, err := volio.Open(w.path)
	if err != nil {
		return nil, err
	}
	s := &coreSession{reader: r, store: &stampStore{base: volio.FileStore{R: r}, rec: rec}}
	opt := core.SessionOptions{
		Server: core.ServerOptions{
			P: coreP, L: coreL, ImageW: w.size, ImageH: w.size,
			Codec: w.codec, Pieces: corePieces, TF: w.tf, View: w.view, Loop: true,
		},
		Link: w.link,
	}
	if rec != nil {
		// Traced: the same shaping StartSession would apply for Link,
		// with the byte/blocking meter outside it, the pipeline's stage
		// histograms, and the codec observer.
		s.codecs = &codecCounter{rec: rec, pieces: corePieces}
		s.wire = &connMeter{rec: rec, viewer: primaryViewer, frame: s.codecs.sendingFrame}
		s.reg = obs.NewRegistry()
		opt.Server.Metrics = s.reg
		opt.Link = wan.Profile{}
		shared := wan.NewShared(w.link)
		opt.Server.Wrap = func(c net.Conn) net.Conn { return s.wire.wrap(shared.Wrap(c)) }
		s.codecs.install()
	}
	s.sess, err = core.StartSession(s.store, opt)
	if err != nil {
		if s.codecs != nil {
			s.codecs.remove()
		}
		r.Close()
		return nil, err
	}
	s.col = newCollector(primaryViewer, w.env)
	go s.col.consume(s.sess.Viewer)
	return s, nil
}

// close stops the server, waits for the pipeline to unwind (a render
// left running would steal CPU from whatever is measured next), then
// tears the rest down.
func (s *coreSession) close() {
	s.sess.Server.Stop()
	_ = s.sess.Wait()
	_ = s.sess.Close()
	<-s.col.done
	if s.codecs != nil {
		s.codecs.remove()
	}
	s.reader.Close()
}

// coldStart is the paper's start-up latency on the live stack: session
// start to first frame displayed.
func (w *coreWorkload) coldStart() (time.Duration, error) {
	t0 := time.Now()
	s, err := w.open(nil)
	if err != nil {
		return 0, err
	}
	defer s.close()
	if err := s.col.waitFor(1, drainTimeout); err != nil {
		return 0, err
	}
	first, _ := s.col.from(0)
	return first[0].shown.Sub(t0), nil
}

func (w *coreWorkload) window(d time.Duration, rec *recorder) (*windowResult, error) {
	s, err := w.open(rec)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if err := s.col.waitFor(w.warmup, 60*time.Second); err != nil {
		return nil, err
	}
	mark := s.col.count()
	res := &windowResult{layer: map[string]float64{}}
	st := s.sess.Server.Stats()
	sent0, renderNS0, encodeNS0, dropped0 := st.FramesSent.Load(), st.RenderNS.Load(), st.EncodeNS.Load(), st.FramesDropped.Load()
	fetch0, busy0, bytes0 := s.store.totals()
	daemonDrop0 := s.sess.Daemon.Stats().ImagesDropped.Load()
	var wire0, blocked0 int64
	if s.wire != nil {
		wire0, blocked0 = s.wire.bytes.Load(), s.wire.blocked.Load()
	}
	s.col.setKeeping(true)
	m := startMeter(rec != nil)
	time.Sleep(d)
	// A window must hold frames to say anything; only the -quick
	// windows under the race detector are short enough to need this.
	if err := s.col.waitFor(mark+2, drainTimeout); err != nil {
		return nil, err
	}
	if err := s.sess.Viewer.Err(); err != nil {
		return nil, fmt.Errorf("%s: viewer: %w", w.name, err)
	}
	all, kept := s.col.from(mark - 1)
	vw := viewerWindow{name: primaryViewer, begin: all[0].shown, samples: all[1:], kept: kept}
	m.stop(res, len(vw.samples))
	for i := range vw.samples {
		vw.samples[i].source = s.store.stamp(int(vw.samples[i].id))
	}
	// The stream numbers frames 0,1,2,...: every id between the first
	// and last displayed is owed, a hole is a lost frame.
	vw.failed = missingIDs(vw.samples)
	vw.owed = len(vw.samples) + vw.failed
	res.viewers = []viewerWindow{vw}
	res.framesAll = len(vw.samples)

	sent := float64(st.FramesSent.Load() - sent0)
	res.renderCompositeMS = ratio(float64(st.RenderNS.Load()-renderNS0)/1e6, sent)
	if rec == nil {
		return res, nil
	}
	frames := float64(len(vw.samples))
	l := res.layer
	fetch1, busy1, bytes1 := s.store.totals()
	l["volio.fetch_ms_per_step"] = ratio(ms(busy1-busy0), float64(fetch1-fetch0))
	l["volio.read_mb_per_s"] = ratio(float64(bytes1-bytes0)/1e6, (busy1 - busy0).Seconds())
	l["volio.bytes_per_step"] = ratio(float64(bytes1-bytes0), float64(fetch1-fetch0))
	l["core.render_composite_ms_per_frame"] = res.renderCompositeMS
	l["core.encode_ms_per_frame"] = ratio(float64(st.EncodeNS.Load()-encodeNS0)/1e6, sent)
	l["core.frames_dropped"] = float64(st.FramesDropped.Load() - dropped0)
	for _, stage := range []string{"fetch", "render", "composite", "deliver"} {
		h := s.reg.Histogram(fmt.Sprintf("pipeline_stage_seconds{stage=%q}", stage), "")
		l["pipeline."+stage+"_ms"] = h.Summary().Mean * 1e3
	}
	l["transport.daemon_dropped_msgs"] = float64(s.sess.Daemon.Stats().ImagesDropped.Load() - daemonDrop0)
	wire := float64(s.wire.bytes.Load() - wire0)
	l["wan.wire_bytes_per_frame"] = ratio(wire, frames)
	l["wan.write_blocked_ms_per_frame"] = ratio(float64(s.wire.blocked.Load()-blocked0)/1e6, frames)
	l["wan.utilization"] = ratio(wire, w.link.Bandwidth*res.wall.Seconds())
	return res, nil
}

// psnr compares a displayed frame with the serial whole-volume
// render.Render of its time step. Frame k shows step k mod steps,
// except that the two processor groups may deliver neighbours out of
// order, so the best match over steps k-1, k, k+1 counts.
func (w *coreWorkload) psnr(id uint32, got *img.Frame) (float64, error) {
	n := w.gen.Steps()
	best := math.Inf(-1)
	for _, step := range []int{int(id) % n, (int(id) + 1) % n, (int(id) + n - 1) % n} {
		ref, ok := w.refs[step]
		if !ok {
			var err error
			if ref, err = w.reference(step); err != nil {
				return 0, err
			}
			w.refs[step] = ref
		}
		p, err := img.PSNR(got, ref)
		if err != nil {
			return 0, err
		}
		best = math.Max(best, p)
	}
	return best, nil
}

func (w *coreWorkload) reference(step int) (*img.Frame, error) {
	v, err := w.readStep(step)
	if err != nil {
		return nil, err
	}
	cam, err := render.NewOrbitCamera(v.Dims, w.view.Azimuth, w.view.Elevation, w.view.Distance)
	if err != nil {
		return nil, err
	}
	rgba, _, err := render.Render(v, cam, w.tf, render.DefaultOptions(), w.size, w.size)
	if err != nil {
		return nil, err
	}
	return rgba.ToFrame(0), nil
}

func (w *coreWorkload) readStep(step int) (*vol.Volume, error) {
	r, err := volio.Open(w.path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.ReadStep(step)
}

func (w *coreWorkload) probeInputs() (*probeInputs, error) {
	v, err := w.readStep(0)
	if err != nil {
		return nil, err
	}
	return newProbeInputs(v, w.tf, w.view.Azimuth, w.size, coreP, corePieces, w.codec)
}
