package main

import (
	"bytes"
	"runtime"
	"sort"
	"time"

	"repro/internal/comm"
	"repro/internal/composite"
	"repro/internal/compress"
	"repro/internal/display"
	"repro/internal/img"
	"repro/internal/render"
	"repro/internal/stream"
	"repro/internal/tf"
	"repro/internal/transport"
	"repro/internal/vol"
)

// probeInputs are the workload's own data, handed to direct calls into
// each layer's public functions after the traced window.
type probeInputs struct {
	vol    *vol.Volume
	tf     *tf.TF
	cam    *render.Camera
	size   int
	bricks int // P: bricks per frame
	// frame is the workload's volume rendered whole; strip a
	// quarter-height band through its middle (small enough that bzip
	// at ~3 MB/s fits eleven repetitions in the probe budget); msgs
	// the frame cut into the workload's piece count, encoded with its
	// wire codec and wrapped as image messages.
	frame *img.Frame
	strip *img.Frame
	msgs  []*transport.ImageMsg
}

func newProbeInputs(v *vol.Volume, t *tf.TF, azimuth float64, size, bricks, pieces int, wireCodec string) (*probeInputs, error) {
	cam, err := render.NewOrbitCamera(v.Dims, azimuth, 0.35, 1.8)
	if err != nil {
		return nil, err
	}
	rgba, _, err := render.Render(v, cam, t, render.DefaultOptions(), size, size)
	if err != nil {
		return nil, err
	}
	in := &probeInputs{vol: v, tf: t, cam: cam, size: size, bricks: bricks, frame: rgba.ToFrame(0)}
	if in.strip, err = in.frame.SubFrame(img.Region{X0: 0, Y0: size * 3 / 8, X1: size, Y1: size * 5 / 8}); err != nil {
		return nil, err
	}
	codec, err := compress.ByName(wireCodec)
	if err != nil {
		return nil, err
	}
	regions, err := img.SplitRows(size, size, pieces)
	if err != nil {
		return nil, err
	}
	for i, r := range regions {
		sub, err := in.frame.SubFrame(r)
		if err != nil {
			return nil, err
		}
		data, err := codec.EncodeFrame(sub)
		if err != nil {
			return nil, err
		}
		in.msgs = append(in.msgs, &transport.ImageMsg{
			PieceIndex: uint16(i), PieceCount: uint16(pieces),
			X0: uint16(r.X0), Y0: uint16(r.Y0), X1: uint16(r.X1), Y1: uint16(r.Y1),
			W: uint16(size), H: uint16(size), Codec: wireCodec, Data: data,
		})
	}
	return in, nil
}

// timeReps runs op reps times and returns the median duration of one
// run and the mallocs per run. Probes run with the sessions closed, so
// the process is otherwise idle and the malloc delta is op's own.
func timeReps(reps int, op func() error) (time.Duration, float64, error) {
	ds := make([]time.Duration, reps)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range ds {
		t0 := time.Now()
		if err := op(); err != nil {
			return 0, 0, err
		}
		ds[i] = time.Since(t0)
	}
	runtime.ReadMemStats(&m1)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[reps/2], float64(m1.Mallocs-m0.Mallocs) / float64(reps), nil
}

// runProbes fills the probe-measured per-layer metrics.
func runProbes(in *probeInputs, reps int, out map[string]float64) error {
	for _, p := range []func(*probeInputs, int, map[string]float64) error{
		probeRender, probeComposite, probeCodecs, probeFraming, probeDaemon, probeStream, probeAssembler,
	} {
		if err := p(in, reps, out); err != nil {
			return err
		}
	}
	return nil
}

// partials renders the volume as n bricks, one partial image each.
func partials(in *probeInputs, n int) ([]vol.Box, []*img.RGBA, render.Stats, error) {
	boxes, err := vol.SplitKD(in.vol.Dims, n)
	if err != nil {
		return nil, nil, render.Stats{}, err
	}
	var total render.Stats
	ims := make([]*img.RGBA, n)
	for i, box := range boxes {
		b, err := in.vol.Extract(box, 2)
		if err != nil {
			return nil, nil, total, err
		}
		im, st, err := render.RenderBrick(b, in.cam, in.tf, render.DefaultOptions(), in.size, in.size)
		if err != nil {
			return nil, nil, total, err
		}
		ims[i] = im
		total.Rays += st.Rays
		total.Samples += st.Samples
		total.Skipped += st.Skipped
	}
	return boxes, ims, total, nil
}

func probeRender(in *probeInputs, reps int, out map[string]float64) error {
	var st render.Stats
	d, allocs, err := timeReps(reps, func() (err error) {
		_, _, st, err = partials(in, in.bricks)
		return err
	})
	if err != nil {
		return err
	}
	out["render.ms_per_frame"] = ms(d)
	out["render.ns_per_sample"] = ratio(float64(d), float64(st.Samples))
	out["render.samples_per_ray"] = ratio(float64(st.Samples), float64(st.Rays))
	out["render.skipped_frac"] = ratio(float64(st.Skipped), float64(st.Samples+st.Skipped))
	out["render.allocs_per_frame"] = allocs
	return nil
}

func probeComposite(in *probeInputs, reps int, out map[string]float64) error {
	const g = 2
	boxes, ims, _, err := partials(in, g)
	if err != nil {
		return err
	}
	var world *comm.World
	step := 0
	d, _, err := timeReps(reps, func() error {
		step++
		return comm.Run(g, func(c *comm.Comm) error {
			if c.Rank() == 0 {
				world = c.World()
			}
			reg, piece, err := composite.BinarySwap(c, ims[c.Rank()], boxes, in.cam.Eye, step)
			if err != nil {
				return err
			}
			_, err = composite.FinalGather(c, reg, piece, in.size, in.size, 0, step)
			return err
		})
	})
	if err != nil {
		return err
	}
	out["composite.binswap_ms_per_frame"] = ms(d)
	out["composite.bytes_per_frame"] = float64(world.BytesSent())
	out["composite.msgs_per_frame"] = float64(world.MessagesSent())
	d, _, err = timeReps(reps, func() error {
		step++
		return comm.Run(g, func(c *comm.Comm) error {
			tiles, err := composite.DFBComposite(c, ims[c.Rank()], boxes, in.cam.Eye, step, composite.DFBOptions{})
			if err != nil {
				return err
			}
			_, err = composite.GatherTiles(c, tiles, in.size, in.size, 0, step)
			return err
		})
	})
	out["composite.dfb_ms_per_frame"] = ms(d)
	return err
}

func probeCodecs(in *probeInputs, reps int, out map[string]float64) error {
	rawMB := float64(len(in.strip.Pix)) / 1e6
	for _, name := range codecNames {
		c, err := compress.ByName(name)
		if err != nil {
			return err
		}
		var data []byte
		enc, allocs, err := timeReps(reps, func() (err error) {
			compress.Recycle(data)
			data, err = c.EncodeFrame(in.strip)
			return err
		})
		if err != nil {
			return err
		}
		dec, _, err := timeReps(reps, func() error {
			_, err := c.DecodeFrame(data)
			return err
		})
		if err != nil {
			return err
		}
		n := "compress." + codecMetricName(name)
		out[n+".encode_mb_per_s"] = ratio(rawMB, enc.Seconds())
		out[n+".decode_mb_per_s"] = ratio(rawMB, dec.Seconds())
		out[n+".ratio"] = ratio(float64(len(in.strip.Pix)), float64(len(data)))
		out[n+".encode_allocs_per_op"] = allocs
	}
	return nil
}

// framingBatch is how many messages one timed repetition frames: a
// single WriteMessage is too short to time on its own.
const framingBatch = 200

func probeFraming(in *probeInputs, reps int, out map[string]float64) error {
	payload, err := in.msgs[0].Marshal()
	if err != nil {
		return err
	}
	msg := transport.Message{Type: transport.MsgImage, Payload: payload}
	fr := transport.Framer{Version: transport.ProtoV3}
	var buf bytes.Buffer
	wr, wAllocs, err := timeReps(reps, func() error {
		buf.Reset()
		for i := 0; i < framingBatch; i++ {
			if err := fr.WriteMessage(&buf, msg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	framed := buf.Bytes()
	rd, rAllocs, err := timeReps(reps, func() error {
		r := bytes.NewReader(framed)
		for i := 0; i < framingBatch; i++ {
			if _, err := fr.ReadMessage(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["transport.write_ns_per_msg"] = float64(wr) / framingBatch
	out["transport.read_ns_per_msg"] = float64(rd) / framingBatch
	out["transport.allocs_per_msg"] = (wAllocs + rAllocs) / framingBatch
	out["transport.overhead_bytes_per_msg"] = float64(len(framed))/framingBatch - float64(len(in.msgs[0].Data))
	return nil
}

// probeDaemon times one message renderer endpoint -> daemon -> display
// endpoint's inbox, with no viewer decoding behind it.
func probeDaemon(in *probeInputs, reps int, out map[string]float64) error {
	d, err := transport.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer d.Close()
	disp, err := transport.Dial(d.Addr().String(), transport.RoleDisplay, nil)
	if err != nil {
		return err
	}
	defer disp.Close()
	rend, err := transport.Dial(d.Addr().String(), transport.RoleRenderer, nil)
	if err != nil {
		return err
	}
	defer rend.Close()
	payload, err := in.msgs[0].Marshal()
	if err != nil {
		return err
	}
	us := make([]float64, 0, reps*10)
	for i := 0; i < cap(us); i++ {
		t0 := time.Now()
		if err := rend.Send(transport.Message{Type: transport.MsgImage, Payload: payload}); err != nil {
			return err
		}
		select {
		case <-disp.Inbox():
		case <-time.After(drainTimeout):
			return disp.Err()
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	out["transport.daemon_forward_us_p50"] = median(us)
	return nil
}

// streamBatch is the calls per timed repetition of the stream probes.
const streamBatch = 2000

func probeStream(in *probeInputs, reps int, out map[string]float64) error {
	est := stream.NewEstimator(0.3)
	for i := 0; i < 8; i++ {
		est.Observe(9000, 100*time.Millisecond)
		est.ObserveRTT(30 * time.Millisecond)
	}
	ctrl := stream.NewController(est, 150*time.Millisecond, nil, 0.3, 3)
	for i, p := range stream.DefaultLadder() {
		ctrl.ObserveSize(p, 200000/(i+1))
	}
	d, _, err := timeReps(reps, func() error {
		for i := 0; i < streamBatch; i++ {
			ctrl.Pick()
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["stream.pick_ns"] = float64(d) / streamBatch

	cache := stream.NewEncodeCache(4)
	point := stream.DefaultLadder()[0]
	encode := func() ([]byte, error) { return in.msgs[0].Data, nil }
	d, _, err = timeReps(reps, func() error {
		for i := 0; i < streamBatch; i++ {
			if _, err := cache.GetOrEncode(1, point, encode); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["stream.cache_get_ns_hit"] = float64(d) / streamBatch

	pacer := stream.NewPacer(3)
	sf := &stream.SourceFrame{ID: 1, Image: in.frame}
	d, _, err = timeReps(reps, func() error {
		for i := 0; i < streamBatch; i++ {
			pacer.Offer(sf)
			pacer.Next()
		}
		return nil
	})
	out["stream.pacer_offer_ns"] = float64(d) / streamBatch
	return err
}

func probeAssembler(in *probeInputs, reps int, out map[string]float64) error {
	asm := display.NewAssembler()
	id := uint32(0)
	_, allocs, err := timeReps(reps, func() error {
		id++
		for _, m := range in.msgs {
			m.FrameID = id
			if _, err := asm.Ingest(m); err != nil {
				return err
			}
		}
		return nil
	})
	out["display.ingest_allocs_per_piece"] = allocs / float64(len(in.msgs))
	return err
}
