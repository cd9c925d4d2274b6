// Command viewer is the display client: it connects to the display
// daemon, decompresses and assembles incoming frames, reports the
// displayed frame rate, optionally saves frames as PNGs, and can send
// user-control messages to the render server.
//
//	viewer -daemon 127.0.0.1:7420 -save frames/ -frames 30
//	viewer -daemon 127.0.0.1:7420 -colormap vortex -codec jpeg+bzip
//	viewer -daemon 127.0.0.1:7420 -link japan-ucd   # emulated WAN downlink
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/control"
	"repro/internal/display"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/obs/provenance"
	"repro/internal/tf"
	"repro/internal/transport"
	"repro/internal/wan"
)

func main() {
	daemon := flag.String("daemon", "127.0.0.1:7420", "display daemon address")
	save := flag.String("save", "", "directory to write received frames as PNG")
	frames := flag.Int("frames", 0, "exit after this many frames (0 = run until interrupted)")
	colormap := flag.String("colormap", "", "send a colormap change (jet, vortex, mixing, gray)")
	codec := flag.String("codec", "", "send a codec change")
	azimuth := flag.Float64("azimuth", 0, "send a view change with this azimuth (rad)")
	elevation := flag.Float64("elevation", 0, "view elevation (rad)")
	distance := flag.Float64("distance", 0, "view distance (x volume diagonal); 0 = no view change")
	stride := flag.Int("stride", 0, "send a preview-mode stride (render every k-th step; 0 = no change)")
	noack := flag.Bool("noack", false, "do not report frame receive timestamps (disables the adaptive daemon's feedback)")
	reconnect := flag.Bool("reconnect", false, "survive daemon restarts: auto-redial with exponential backoff and resume the frame stream")
	heartbeat := flag.Duration("heartbeat", 0, "with -reconnect: ping the daemon on this interval and redial after 3x of inbound silence (0 = off)")
	link := flag.String("link", "", "emulate receiving over a WAN profile (nasa-ucd, japan-ucd, lan); pace reads so the daemon sees that downlink")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /debug/status on this address")
	flag.Parse()

	var wrap func(net.Conn) net.Conn
	if *link != "" {
		prof, err := wan.ByName(*link)
		if err != nil {
			fatal(err)
		}
		wrap = func(c net.Conn) net.Conn { return wan.ShapeReads(c, prof) }
	}
	var ep transport.Link
	var sess *transport.Session
	if *reconnect {
		var err error
		sess, err = transport.NewSession(transport.SessionConfig{
			Role:      transport.RoleDisplay,
			Addr:      *daemon,
			Wrap:      wrap,
			Retry:     transport.DefaultRetry(),
			Heartbeat: *heartbeat,
			Logf:      log.Printf,
		})
		if err != nil {
			fatal(err)
		}
		ep = sess
	} else {
		e, err := transport.Dial(*daemon, transport.RoleDisplay, wrap)
		if err != nil {
			fatal(err)
		}
		ep = e
	}
	v := display.NewViewer(ep)
	v.SetAutoAck(!*noack)
	defer v.Close()

	if *debugAddr != "" {
		reg := obs.NewRegistry()
		obs.InstrumentCodecs(reg)
		prov := provenance.NewLog("viewer", 0)
		v.SetProvenance(prov, *daemon)
		reg.CounterFunc("viewer_frames_total", "Frames displayed.", func() int64 {
			st := v.Stats()
			return int64(st.Frames)
		})
		reg.CounterFunc("viewer_bytes_total", "Compressed payload bytes received.", func() int64 {
			st := v.Stats()
			return st.Bytes
		})
		reg.GaugeFunc("viewer_fps", "Average displayed frame rate.", func() float64 {
			st := v.Stats()
			return st.FPS()
		})
		reg.GaugeFunc("viewer_decode_seconds_total", "Cumulative frame decode time in seconds.", func() float64 {
			st := v.Stats()
			return st.DecodeTime.Seconds()
		})
		wd := guard.NewWatchdog(time.Second, nil)
		wd.Register("viewer", 5*time.Second, func() { _ = v.Stats() })
		defer wd.Close()
		dbg, err := obs.StartDebugServer(*debugAddr, obs.DebugConfig{
			Component: "viewer",
			Registry:  reg,
			Frames:    prov.Handler(),
			Status: func() any {
				status := map[string]any{"viewer": v.Stats(), "watchdog": wd.Status()}
				if sess != nil {
					status["link"] = sess.State()
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

	if *colormap != "" {
		t, err := tf.Preset(*colormap)
		if err != nil {
			fatal(err)
		}
		if err := v.SendControl(control.ColormapMsg(t)); err != nil {
			fatal(err)
		}
	}
	if *codec != "" {
		if err := v.SendControl(control.CodecMsg(*codec)); err != nil {
			fatal(err)
		}
	}
	if *distance > 0 {
		ev := control.ViewEvent{Azimuth: *azimuth, Elevation: *elevation, Distance: *distance}
		if err := v.SendControl(control.ViewMsg(ev)); err != nil {
			fatal(err)
		}
	}
	if *stride > 0 {
		if err := v.SendControl(control.StrideMsg(*stride)); err != nil {
			fatal(err)
		}
	}
	if *save != "" {
		if err := os.MkdirAll(*save, 0o755); err != nil {
			fatal(err)
		}
	}

	// The summary reports what this loop consumed, not v.Stats(): the
	// viewer goroutine keeps receiving after the -frames break.
	var st display.ViewerStats
	for fr := range v.Frames() {
		st.LastFrame = time.Now()
		if st.Frames == 0 {
			st.FirstFrame = st.LastFrame
		}
		st.Frames++
		st.Bytes += int64(fr.Bytes)
		st.DecodeTime += fr.DecodeTime
		fmt.Printf("frame %4d: %dx%d, %6d bytes in %d pieces, decode %v\n",
			fr.ID, fr.Image.W, fr.Image.H, fr.Bytes, fr.Pieces, fr.DecodeTime)
		if *save != "" {
			path := filepath.Join(*save, fmt.Sprintf("frame_%05d.png", fr.ID))
			if err := fr.Image.SavePNG(path); err != nil {
				fatal(err)
			}
		}
		if *frames > 0 && st.Frames >= *frames {
			break
		}
	}
	if err := v.Err(); err != nil {
		fatal(err)
	}
	fmt.Printf("received %d frames (%.2f fps, %d bytes, decode total %v)\n",
		st.Frames, st.FPS(), st.Bytes, st.DecodeTime)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "viewer:", err)
	os.Exit(1)
}
