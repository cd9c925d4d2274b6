package experiments

import (
	"fmt"
	"time"

	"repro/internal/compress"
	"repro/internal/metrics"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/tf"
	"repro/internal/vol"
	"repro/internal/wan"
)

// DatasetRow contrasts render time against image-transport time for
// one dataset at 512x512 — the paper's §6 selective tests: the dense
// turbulent-vortex images compress poorly, so transport (0.325 s)
// exceeds rendering (0.178 s); the much larger fluid-mixing data
// renders ~4 s per frame, making transport (about a tenth of that)
// negligible.
type DatasetRow struct {
	Dataset string
	// RenderPerFrame is the simulated per-group render time on 64
	// RWCP nodes (paper-scaled, with the dataset's measured render
	// cost relative to the jet).
	RenderPerFrame time.Duration
	// InterFrame is the steady-state time between frames from the
	// pipelined renderer (the rate the transport must keep up with).
	InterFrame time.Duration
	// TransportPerFrame is the real measured transfer+decode time of
	// the real encoded frame over the Japan link.
	TransportPerFrame time.Duration
	// CompressedBytes of the 512^2 frame.
	CompressedBytes int
}

// DatasetsResult holds the §6 dataset contrast rows.
type DatasetsResult struct {
	Rows []DatasetRow
}

// datasetDims returns the full-scale grid of each dataset; the
// simulated render cost always models paper scale.
func datasetDims(name string) vol.Dims {
	switch name {
	case "vortex":
		return vol.Dims{NX: 128, NY: 128, NZ: 128}
	case "mixing":
		return vol.Dims{NX: 640, NY: 256, NZ: 256}
	}
	return jetDims()
}

// Datasets runs the vortex and mixing contrasts.
func (c *Context) Datasets() (*DatasetsResult, error) {
	cal, err := c.calibration()
	if err != nil {
		return nil, err
	}
	link := wan.JapanUCD()
	size := 512
	if c.Quick {
		size = 128
	}
	codec, err := compress.ByName("jpeg+lzo")
	if err != nil {
		return nil, err
	}
	reps := 2
	if c.Quick {
		reps = 1
	}
	res := &DatasetsResult{}
	var jetSamples int
	for _, name := range []string{"jet", "vortex", "mixing"} {
		dims := datasetDims(name)
		m, _ := cal.ScaleToPaper(sim.RWCP(), jetDims())
		w := cal.WorkloadFor(m, dims, 16, size, size)
		w.Link = link
		// Scale the jet-anchored T1 by the samples a real render of the
		// dataset takes relative to the jet (the first row) at the same
		// image size — content effects (early termination on dense
		// data, sparse skips) are invisible to the geometric probe, and
		// a sample count, unlike a wall-clock ratio, repeats exactly.
		samples, err := c.renderSamples(name, 128)
		if err != nil {
			return nil, err
		}
		if name == "jet" {
			jetSamples = samples
		}
		w.T1Render = time.Duration(float64(w.T1Render) * float64(samples) / float64(jetSamples))
		r, err := sim.Run(sim.Config{Machine: m, Work: w, P: 64, L: 4})
		if err != nil {
			return nil, err
		}
		f, err := c.frame(name, size)
		if err != nil {
			return nil, err
		}
		data, err := codec.EncodeFrame(f)
		if err != nil {
			return nil, err
		}
		transfer, err := measureTransfer(data, link, reps)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := codec.DecodeFrame(data); err != nil {
				return nil, err
			}
		}
		decode := time.Since(t0) / time.Duration(reps)
		res.Rows = append(res.Rows, DatasetRow{
			Dataset:           name,
			RenderPerFrame:    r.RenderPerFrame,
			InterFrame:        r.InterFrameDelay,
			TransportPerFrame: transfer + decode,
			CompressedBytes:   len(data),
		})
	}
	c.printf("Section 6 dataset contrasts (%dx%d frames, 64 procs, Japan->UCD)\n", size, size)
	t := metrics.NewTable("dataset", "render/frame(s)", "interframe(s)", "transport/frame(s)", "bytes")
	for _, row := range res.Rows {
		t.Row(row.Dataset,
			fmt.Sprintf("%.3f", row.RenderPerFrame.Seconds()),
			fmt.Sprintf("%.3f", row.InterFrame.Seconds()),
			fmt.Sprintf("%.3f", row.TransportPerFrame.Seconds()),
			fmt.Sprintf("%d", row.CompressedBytes))
	}
	c.printf("%s\n", t.String())
	return res, nil
}

// renderSamples counts the volume samples a real render of the
// dataset's cached volume takes at s x s.
func (c *Context) renderSamples(name string, s int) (int, error) {
	v, err := c.volume(name)
	if err != nil {
		return 0, err
	}
	tfn, err := tf.Preset(name)
	if err != nil {
		return 0, err
	}
	cam, err := render.NewOrbitCamera(v.Dims, 0.6, 0.35, 1.2)
	if err != nil {
		return 0, err
	}
	_, st, err := render.Render(v, cam, tfn, render.DefaultOptions(), s, s)
	return st.Samples, err
}
