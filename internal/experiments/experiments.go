// Package experiments regenerates every table and figure of the
// paper's evaluation (§6). Each experiment returns a structured result
// and can print it in the paper's row/series format; cmd/paperbench
// drives them all.
//
// Measurement strategy per experiment:
//
//   - Table 1 (compressed image sizes) — real renders of the jet
//     dataset at four sizes, encoded by the six real codecs.
//   - Figure 8 / Table 2 (frame transfer time / frame rate, NASA→UCD)
//     — real encoded frames pushed through real loopback TCP shaped to
//     the calibrated NASA–UCD link profile, decoded by the real
//     display path.
//   - Figures 6, 7 (partitioning) — the calibrated discrete-event
//     pipeline simulator (package sim): a 1-CPU host cannot time a
//     64-node machine directly.
//   - Figure 9 (render vs display breakdown) — simulated render stage
//     (calibrated) plus real shaped-link display measurements.
//   - Figure 10 (decompression vs piece count) — real parallel
//     compression pieces decoded by the real assembler.
//   - Figure 11 (Japan→UCD) — as Figure 8 on the Japan link profile.
//   - §6 dataset contrasts — real vortex/mixing renders and codecs.
package experiments

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	_ "repro/internal/compress/codecs"
	"repro/internal/datagen"
	"repro/internal/img"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/tf"
	"repro/internal/vol"
	"repro/internal/wan"
)

// Sizes are the image sizes of the paper's tables (square).
var Sizes = []int{128, 256, 512, 1024}

// Context caches rendered frames and the calibration across
// experiments.
type Context struct {
	// Quick shrinks sizes and repetition counts for use under `go
	// test` time budgets.
	Quick bool
	// Out receives printed tables; nil discards them.
	Out io.Writer
	// TracePath, when non-empty, makes Trace write the simulated
	// schedule here as Chrome trace-event JSON.
	TracePath string

	mu     sync.Mutex
	frames map[string]*img.Frame
	vols   map[string]*vol.Volume
	cal    *sim.Calibration
}

// New creates an experiment context.
func New(out io.Writer, quick bool) *Context {
	if out == nil {
		out = io.Discard
	}
	return &Context{Out: out, Quick: quick, frames: map[string]*img.Frame{}, vols: map[string]*vol.Volume{}}
}

func (c *Context) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// sizes returns the experiment's image sizes (smaller under Quick).
func (c *Context) sizes() []int {
	if c.Quick {
		return []int{128, 256}
	}
	return Sizes
}

// datasetScale returns the volume scale for a dataset.
func (c *Context) datasetScale(name string) float64 {
	if c.Quick {
		if name == "mixing" {
			return 0.2
		}
		return 0.4
	}
	if name == "mixing" {
		// Full-size mixing steps are 168 MB; half scale preserves the
		// "16x more data" contrast against the small sets while
		// staying comfortably in memory.
		return 0.5
	}
	return 1.0
}

// volume returns (cached) one representative time step of a dataset.
func (c *Context) volume(name string) (*vol.Volume, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.vols[name]; ok {
		return v, nil
	}
	gen, err := datagen.ByName(name, c.datasetScale(name), 30)
	if err != nil {
		return nil, err
	}
	v, err := gen.Step(15)
	if err != nil {
		return nil, err
	}
	c.vols[name] = v
	return v, nil
}

// frame returns (cached) a real rendered frame of a dataset at size
// s x s, framed like the paper's figures (volume filling the image).
func (c *Context) frame(name string, s int) (*img.Frame, error) {
	key := fmt.Sprintf("%s/%d", name, s)
	c.mu.Lock()
	if f, ok := c.frames[key]; ok {
		c.mu.Unlock()
		return f, nil
	}
	c.mu.Unlock()
	v, err := c.volume(name)
	if err != nil {
		return nil, err
	}
	tfn, err := tf.Preset(name)
	if err != nil {
		return nil, err
	}
	cam, err := render.NewOrbitCamera(v.Dims, 0.6, 0.35, 1.2)
	if err != nil {
		return nil, err
	}
	im, _, err := render.Render(v, cam, tfn, render.DefaultOptions(), s, s)
	if err != nil {
		return nil, err
	}
	f := im.ToFrame(0)
	c.mu.Lock()
	c.frames[key] = f
	c.mu.Unlock()
	return f, nil
}

// calibration runs (once) the renderer/codec calibration used by the
// simulator-backed experiments.
func (c *Context) calibration() (*sim.Calibration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cal != nil {
		return c.cal, nil
	}
	scale := 0.4
	if c.Quick {
		scale = 0.2
	}
	cal, err := sim.Calibrate(sim.CalibrationOptions{Dataset: "jet", Scale: scale, ImageSize: 96})
	if err != nil {
		return nil, err
	}
	c.cal = cal
	return cal, nil
}

// jetDims returns the full-scale jet grid (the simulated experiments
// always model the paper-scale dataset, regardless of Quick).
func jetDims() vol.Dims { return vol.Dims{NX: 129, NY: 129, NZ: 104} }

// measureTransfer pushes payload through a real loopback TCP
// connection whose sender side is shaped to the link profile and
// returns the time from first write to full receipt, averaged over
// reps.
func measureTransfer(payload []byte, link wan.Profile, reps int) (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		conn, err := ln.Accept()
		ch <- accepted{conn, err}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer client.Close()
	acc := <-ch
	if acc.err != nil {
		return 0, acc.err
	}
	defer acc.conn.Close()
	shaped := wan.Shape(client, link)

	var total time.Duration
	buf := make([]byte, 64<<10)
	for r := 0; r < reps; r++ {
		done := make(chan error, 1)
		go func() {
			remaining := len(payload)
			for remaining > 0 {
				n, err := acc.conn.Read(buf)
				if err != nil {
					done <- err
					return
				}
				remaining -= n
			}
			done <- nil
		}()
		start := time.Now()
		if _, err := shaped.Write(payload); err != nil {
			return 0, err
		}
		if err := <-done; err != nil {
			return 0, err
		}
		total += time.Since(start)
	}
	return total / time.Duration(reps), nil
}
