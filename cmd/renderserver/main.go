// Command renderserver runs the parallel render server: it renders a
// time-varying dataset with P simulated processor nodes in L pipeline
// groups, compresses the composited images, and streams them to a
// display daemon. User-control messages (view, colormap, codec,
// start/stop) arrive back through the daemon as remote callbacks.
//
//	renderserver -daemon 127.0.0.1:7420 -dataset jet -p 8 -l 2 \
//	    -size 256 -codec jpeg+lzo -link nasa-ucd -loop
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/obs/provenance"
	"repro/internal/tf"
	"repro/internal/transport"
	"repro/internal/volio"
	"repro/internal/wan"
)

func main() {
	daemon := flag.String("daemon", "127.0.0.1:7420", "display daemon address")
	dataset := flag.String("dataset", "jet", "dataset: jet, vortex, mixing, or a .tvv file path")
	scale := flag.Float64("scale", 0.5, "generator grid scale (ignored for files)")
	steps := flag.Int("steps", 30, "time steps per pass (0 = all)")
	p := flag.Int("p", 8, "processor nodes")
	l := flag.Int("l", 2, "pipeline groups")
	size := flag.Int("size", 256, "square image size")
	codec := flag.String("codec", "jpeg+lzo", "initial codec (raw = X baseline)")
	pieces := flag.Int("pieces", 1, "compressed sub-images per frame (parallel compression)")
	link := flag.String("link", "", "shape the daemon connection: nasa-ucd, japan-ucd, lan")
	loop := flag.Bool("loop", false, "repeat the animation until interrupted")
	nodeLinks := flag.Bool("nodelinks", false, "one daemon connection per compressed piece (Figure 2)")
	reconnect := flag.Bool("reconnect", false, "survive daemon restarts: auto-redial with exponential backoff, dropping frames while the link is down")
	heartbeat := flag.Duration("heartbeat", 0, "with -reconnect: ping the daemon on this interval and redial after 3x of inbound silence (0 = off)")
	breakerN := flag.Int("breaker", 0, "with -reconnect: open a circuit after this many consecutive failed redials, skipping the network until a half-open probe succeeds (0 = off)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/status and /debug/trace on this address")
	flag.Parse()

	store, name, err := openStore(*dataset, *scale, *steps)
	if err != nil {
		fatal(err)
	}
	tfn, err := tf.Preset(name)
	if err != nil {
		tfn = tf.Jet()
	}
	opt := core.ServerOptions{
		DaemonAddr: *daemon,
		P:          *p, L: *l,
		ImageW: *size, ImageH: *size,
		Codec: *codec, Pieces: *pieces,
		TF: tfn, Steps: *steps, Loop: *loop,
		NodeLinks: *nodeLinks,
	}
	var br *guard.Breaker
	if *reconnect {
		rp := transport.DefaultRetry()
		opt.Reconnect = &rp
		opt.Heartbeat = *heartbeat
		if *breakerN > 0 {
			br = guard.NewBreaker(guard.BreakerConfig{Threshold: *breakerN})
			opt.Breaker = br
		}
	} else if *breakerN > 0 {
		fatal(fmt.Errorf("-breaker requires -reconnect"))
	}
	if *link != "" {
		prof, err := wan.ByName(*link)
		if err != nil {
			fatal(err)
		}
		opt.Wrap = func(c net.Conn) net.Conn { return wan.Shape(c, prof) }
	}
	if *debugAddr != "" {
		opt.Metrics = obs.NewRegistry()
		opt.Trace = obs.NewTracer(obs.WallClock(), obs.DefaultTraceCapacity)
		opt.Prov = provenance.NewLog("renderserver", 0)
		obs.InstrumentCodecs(opt.Metrics)
		obs.InstrumentRender(opt.Metrics)
		obs.InstrumentAllocs(opt.Metrics)
	}
	srv, err := core.NewServer(store, opt)
	if err != nil {
		fatal(err)
	}
	if *debugAddr != "" {
		st := srv.Stats()
		wd := guard.NewWatchdog(time.Second, nil)
		wd.Register("daemon-link", 5*time.Second, func() { _ = srv.LinkState() })
		defer wd.Close()
		dbg, err := obs.StartDebugServer(*debugAddr, obs.DebugConfig{
			Component: "renderserver",
			Registry:  opt.Metrics,
			Tracer:    opt.Trace,
			Frames:    opt.Prov.Handler(),
			Status: func() any {
				status := map[string]any{
					"frames_sent": st.FramesSent.Load(),
					"bytes_sent":  st.BytesSent.Load(),
					"watchdog":    wd.Status(),
				}
				if *reconnect {
					status["frames_dropped"] = st.FramesDropped.Load()
					status["link"] = srv.LinkState()
				}
				if br != nil {
					status["breaker"] = br.StateName()
				}
				return status
			},
		})
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Printf("debug endpoints on http://%s/metrics\n", dbg.Addr())
	}
	fmt.Printf("render server: %s %v, P=%d L=%d, %dx%d, codec %s -> %s\n",
		name, store.Dims(), *p, *l, *size, *size, *codec, *daemon)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		srv.Stop()
	}()
	if err := srv.Run(); err != nil {
		fatal(err)
	}
	st := srv.Stats()
	fmt.Printf("sent %d frames, %d compressed bytes\n", st.FramesSent.Load(), st.BytesSent.Load())
}

// openStore resolves a dataset name or .tvv path into a Store.
func openStore(dataset string, scale float64, steps int) (volio.Store, string, error) {
	if _, err := os.Stat(dataset); err == nil {
		r, err := volio.Open(dataset)
		if err != nil {
			return nil, "", err
		}
		return volio.FileStore{R: r}, "jet", nil
	}
	gen, err := datagen.ByName(dataset, scale, steps)
	if err != nil {
		return nil, "", err
	}
	return volio.NewGenStore(gen), dataset, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "renderserver:", err)
	os.Exit(1)
}
