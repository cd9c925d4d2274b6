package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"time"

	"repro/internal/datagen"
	"repro/internal/display"
	"repro/internal/img"
	"repro/internal/render"
	"repro/internal/stream"
	"repro/internal/tf"
	"repro/internal/transport"
	"repro/internal/vol"
	"repro/internal/wan"
)

// brokerWorkload is broker_fanout: pre-rendered frames ingested into a
// stream.Broker on a fixed schedule (open loop: the generator does not
// slow down when the broker does), fanned out to a viewer on the lan
// profile and one on nasa-ucd. Frame k is due at start + k/rate and
// timed from that instant.
type brokerWorkload struct {
	env    env
	size   int
	nsrc   int
	rate   float64 // frames per second
	warmup int     // frames ingested before the window opens

	vol *vol.Volume
	// src are the pre-rendered frames; payloads their raw ImageMsg
	// encodings, whose leading frame id is patched per ingest.
	src      []*img.Frame
	payloads [][]byte
}

func newBrokerFanout(e env) (workload, error) {
	// 5 s of warm-up: a fresh WAN session probes the lossless top rung
	// once (a 178 KB frame, 2 s on this link) before it settles.
	w := &brokerWorkload{env: e, size: 512, nsrc: 16, rate: 8, warmup: 40}
	if e.quick {
		w.size, w.nsrc, w.warmup = 128, 4, 4
	}
	return w, nil
}

func (w *brokerWorkload) coldStarts() int { return 5 }

// setup renders the source frames: one vortex step seen from nsrc
// positions of a camera orbit that starts at the seed's azimuth.
func (w *brokerWorkload) setup() error {
	scale := 0.5
	if w.env.quick {
		scale = 0.25
	}
	g, err := datagen.ByName("vortex", scale, 4)
	if err != nil {
		return err
	}
	if w.vol, err = g.Step(1); err != nil {
		return err
	}
	w.src, w.payloads = nil, nil
	for i := 0; i < w.nsrc; i++ {
		az := seedAzimuth(w.env.seed) + 2*math.Pi*float64(i)/float64(w.nsrc)
		cam, err := render.NewOrbitCamera(w.vol.Dims, az, 0.35, 1.8)
		if err != nil {
			return err
		}
		rgba, _, err := render.Render(w.vol, cam, tf.Vortex(), render.DefaultOptions(), w.size, w.size)
		if err != nil {
			return err
		}
		f := rgba.ToFrame(0)
		raw := make([]byte, 8, 8+len(f.Pix))
		binary.LittleEndian.PutUint32(raw, uint32(f.W))
		binary.LittleEndian.PutUint32(raw[4:], uint32(f.H))
		im := &transport.ImageMsg{
			PieceCount: 1, X1: uint16(f.W), Y1: uint16(f.H), W: uint16(f.W), H: uint16(f.H),
			Codec: "raw", Data: append(raw, f.Pix...),
		}
		p, err := im.Marshal()
		if err != nil {
			return err
		}
		w.src = append(w.src, f)
		w.payloads = append(w.payloads, p)
	}
	return nil
}

// brokerSession is a broker with its two viewers attached.
type brokerSession struct {
	b    *stream.Broker
	ln   net.Listener
	lan  *display.Viewer
	wan  *display.Viewer
	cols [2]*collector // primary (WAN) first
	wire *connMeter    // WAN conn, traced only
}

func (w *brokerWorkload) open(rec *recorder) (*brokerSession, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &brokerSession{b: stream.NewBroker(stream.Config{Target: 150 * time.Millisecond}), ln: ln}
	if rec != nil {
		s.wire = &connMeter{rec: rec, viewer: primaryViewer}
	}
	// attach dials the broker and hands it the accepted conn wrapped
	// in the viewer's link, so the broker-to-viewer direction is the
	// shaped one.
	attach := func(link wan.Profile, metered bool) (*display.Viewer, error) {
		accepted := make(chan net.Conn, 1)
		go func() {
			c, _ := ln.Accept()
			accepted <- c
		}()
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		server := <-accepted
		if server == nil {
			raw.Close()
			return nil, fmt.Errorf("broker_fanout: accept failed")
		}
		var shaped net.Conn = wan.Shape(server, link)
		if metered && s.wire != nil {
			shaped = s.wire.wrap(shaped)
		}
		s.b.ServeConn(shaped)
		ep, err := transport.NewEndpoint(raw, transport.RoleDisplay)
		if err != nil {
			return nil, err
		}
		return display.NewViewer(ep), nil
	}
	// LAN first: ClientSnapshots orders by session id, so [0] is the
	// LAN client and [1] the WAN client.
	if s.lan, err = attach(wan.LAN(), false); err == nil {
		s.wan, err = attach(wan.NASAUCD(), true)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	s.cols = [2]*collector{newCollector(primaryViewer, w.env), newCollector(lanViewer, w.env)}
	go s.cols[0].consume(s.wan)
	go s.cols[1].consume(s.lan)
	return s, nil
}

func (s *brokerSession) close() {
	_ = s.b.Close()
	s.ln.Close()
	for i, v := range []*display.Viewer{s.wan, s.lan} {
		if v == nil {
			continue
		}
		v.Close()
		if s.cols[i] != nil {
			<-s.cols[i].done
		}
	}
}

// ingest feeds source frame k to the broker under frame id k.
func (w *brokerWorkload) ingest(s *brokerSession, k int) {
	p := w.payloads[k%w.nsrc]
	binary.BigEndian.PutUint32(p, uint32(k))
	s.b.IngestImage(p, nil)
}

// coldStart is the WAN viewer's first usable frame on a fresh broker.
func (w *brokerWorkload) coldStart() (time.Duration, error) {
	s, err := w.open(nil)
	if err != nil {
		return 0, err
	}
	defer s.close()
	// Let the link go idle after the handshake, so the first frame pays
	// the propagation delay a first frame pays.
	time.Sleep(2 * wan.NASAUCD().Latency)
	t0 := time.Now()
	w.ingest(s, 0)
	if err := s.cols[0].waitFor(1, drainTimeout); err != nil {
		return 0, err
	}
	first, _ := s.cols[0].from(0)
	return first[0].shown.Sub(t0), nil
}

func (w *brokerWorkload) window(d time.Duration, rec *recorder) (*windowResult, error) {
	s, err := w.open(rec)
	if err != nil {
		return nil, err
	}
	defer s.close()
	var codecs *codecCounter
	if rec != nil {
		codecs = &codecCounter{rec: rec}
		codecs.install()
		defer codecs.remove()
	}
	res := &windowResult{layer: map[string]float64{}}
	gap := time.Duration(float64(time.Second) / w.rate)
	total := w.warmup + int(d.Seconds()*w.rate)
	start := time.Now().Add(10 * time.Millisecond)
	due := func(k int) time.Time { return start.Add(time.Duration(k) * gap) }

	var m *meter
	var st0 brokerCounters
	late := make([]float64, 0, total)
	var ingestBusy time.Duration
	for k := 0; k < total; k++ {
		time.Sleep(time.Until(due(k)))
		if k == w.warmup {
			st0 = readBrokerCounters(s)
			s.cols[0].setKeeping(true)
			s.cols[1].setKeeping(true)
			m = startMeter(rec != nil)
		}
		t0 := time.Now()
		w.ingest(s, k)
		if k >= w.warmup {
			t1 := time.Now()
			late = append(late, ms(t0.Sub(due(k))))
			ingestBusy += t1.Sub(t0)
			rec.interval("stream", "stream.ingest", "", -1, t0, t1, map[string]any{"frame": k})
		}
	}
	time.Sleep(time.Until(due(total)))
	framesIn := total - w.warmup
	// Drain: the LAN viewer is owed every frame; the WAN viewer every
	// frame its pacer did not drop, i.e. every frame the broker sent it.
	deadline := time.Now().Add(drainTimeout)
	for time.Now().Before(deadline) {
		snaps := s.b.ClientSnapshots()
		if len(snaps) == 2 && s.cols[1].count() >= total &&
			snaps[1].QueueLen == 0 && int64(s.cols[0].count()) >= snaps[1].FramesSent {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	st1 := readBrokerCounters(s)

	for i, col := range s.cols {
		all, kept := col.from(0)
		// Like the closed loops, a viewer's window opens at the display
		// of its last warm-up frame (at the first due instant if it
		// showed none).
		vw := viewerWindow{name: col.viewer, begin: due(w.warmup), kept: kept}
		for _, sm := range all {
			if int(sm.id) < w.warmup {
				vw.begin = sm.shown
				continue
			}
			sm.source = due(int(sm.id))
			vw.samples = append(vw.samples, sm)
		}
		if i == 1 {
			vw.owed = framesIn
			vw.failed = framesIn - len(vw.samples)
		} else {
			// Sent-but-never-shown frames are counted over the whole
			// session, warm-up included: from outside the broker a
			// send cannot be matched to a frame id.
			vw.failed = int(st1.wanSent) - len(all)
			vw.owed = len(vw.samples) + vw.failed
		}
		res.viewers = append(res.viewers, vw)
		res.framesAll += len(vw.samples)
	}
	m.stop(res, res.framesAll)
	l := res.layer
	lateP90 := percentile(late, 90)
	l["bench.gen_late_p90_ms"] = lateP90
	if lateP90 > 5 {
		res.invalid = fmt.Sprintf("open-loop generator ran late: p90 %.2f ms > 5 ms", lateP90)
	}
	if rec == nil {
		return res, nil
	}
	n := float64(framesIn)
	l["stream.ingest_ms_per_frame"] = ratio(ms(ingestBusy), n)
	l["stream.encodes_per_frame"] = ratio(float64(st1.encodes-st0.encodes), n)
	hits, misses := float64(st1.hits-st0.hits), float64(st1.misses-st0.misses)
	l["stream.cache_hit_rate"] = ratio(hits, hits+misses)
	l["stream.wan_drop_frac"] = ratio(float64(st1.wanDrops-st0.wanDrops), n)
	l["stream.est_bandwidth_kb_s"] = st1.wanBandwidth / 1e3
	switches := 0
	wanSamples := res.viewers[0].samples
	for i := 1; i < len(wanSamples); i++ {
		if wanSamples[i].codec != wanSamples[i-1].codec {
			switches++
		}
	}
	l["stream.wan_rung_switches"] = float64(switches)
	wire := float64(s.wire.bytes.Load() - st0.wire)
	shown := float64(len(wanSamples))
	l["wan.wire_bytes_per_frame"] = ratio(wire, shown)
	l["wan.write_blocked_ms_per_frame"] = ratio(float64(s.wire.blocked.Load()-st0.blocked)/1e6, shown)
	l["wan.utilization"] = ratio(wire, wan.NASAUCD().Bandwidth*res.wall.Seconds())
	return res, nil
}

// brokerCounters is one reading of the broker's public counters.
type brokerCounters struct {
	encodes, hits, misses int64
	wanDrops, wanSent     int64
	wanBandwidth          float64
	wire, blocked         int64
}

func readBrokerCounters(s *brokerSession) brokerCounters {
	c := brokerCounters{
		encodes: s.b.Stats().Encodes.Load(),
		hits:    s.b.Cache().Stats().Hits.Load(),
		misses:  s.b.Cache().Stats().Misses.Load(),
	}
	if snaps := s.b.ClientSnapshots(); len(snaps) == 2 {
		c.wanDrops, c.wanSent, c.wanBandwidth = snaps[1].Drops, snaps[1].FramesSent, snaps[1].Bandwidth
	}
	if s.wire != nil {
		c.wire, c.blocked = s.wire.bytes.Load(), s.wire.blocked.Load()
	}
	return c
}

// psnr compares against the pre-rendered source frame.
func (w *brokerWorkload) psnr(id uint32, got *img.Frame) (float64, error) {
	return img.PSNR(got, w.src[int(id)%w.nsrc])
}

func (w *brokerWorkload) probeInputs() (*probeInputs, error) {
	return newProbeInputs(w.vol, tf.Vortex(), seedAzimuth(w.env.seed), w.size, coreP, 1, "jls")
}
