package experiments

import (
	"fmt"
	"os"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wan"
)

// Fig6Result holds overall execution time versus partition count for
// several machine sizes.
type Fig6Result struct {
	// Ls[p] lists the partition counts tried for machine size p.
	Ls map[int][]int
	// Overall[p][l] is the overall execution time.
	Overall map[int]map[int]time.Duration
	// OptimalL[p] is the argmin.
	OptimalL map[int]int
	Steps    int
}

// fig6Ps are the machine sizes of Figure 6.
var fig6Ps = []int{16, 32, 64}

// calibratedConfig builds the simulator configuration for the RWCP
// batch experiments: jet dataset, 128 steps, 256x256 images.
func (c *Context) calibratedConfig(p, l, steps int) (sim.Config, error) {
	cal, err := c.calibration()
	if err != nil {
		return sim.Config{}, err
	}
	m, _ := cal.ScaleToPaper(sim.RWCP(), jetDims())
	w := cal.WorkloadFor(m, jetDims(), steps, 256, 256)
	// Figures 6 and 7 are batch-mode on the cluster; image output goes
	// to the fast local network (the WAN study is Figures 8-11).
	w.Link = wan.LAN()
	return sim.Config{Machine: m, Work: w, P: p, L: l}, nil
}

// Fig6 sweeps the partition count for P in {16, 32, 64}.
func (c *Context) Fig6() (*Fig6Result, error) {
	const steps = 128 // "the first 128 time steps of the turbulent jet data set"
	res := &Fig6Result{
		Ls:       map[int][]int{},
		Overall:  map[int]map[int]time.Duration{},
		OptimalL: map[int]int{},
		Steps:    steps,
	}
	for _, p := range fig6Ps {
		res.Overall[p] = map[int]time.Duration{}
		best := 0
		for l := 1; l <= p; l *= 2 {
			cfg, err := c.calibratedConfig(p, l, steps)
			if err != nil {
				return nil, err
			}
			r, err := sim.Run(cfg)
			if err != nil {
				return nil, err
			}
			res.Ls[p] = append(res.Ls[p], l)
			res.Overall[p][l] = r.Overall
			if best == 0 || r.Overall < res.Overall[p][best] {
				best = l
			}
		}
		res.OptimalL[p] = best
	}
	c.printf("Figure 6: overall execution time vs number of partitions (RWCP, jet, %d steps, 256x256)\n", steps)
	var series []*metrics.Series
	for _, p := range fig6Ps {
		s := &metrics.Series{Name: fmt.Sprintf("P=%d", p)}
		for _, l := range res.Ls[p] {
			s.Add(float64(l), res.Overall[p][l].Seconds())
		}
		series = append(series, s)
	}
	// Pad shorter series: WriteSeries shares the x column of the
	// longest machine (P=64); print per machine instead for clarity.
	for _, s := range series {
		_ = metrics.WriteSeries(c.Out, "L", s)
		c.printf("\n")
	}
	for _, p := range fig6Ps {
		c.printf("optimal L for P=%d: %d\n", p, res.OptimalL[p])
	}
	c.printf("\n")
	return res, nil
}

// Fig7Result holds the three §3 metrics versus partition count for
// P = 32.
type Fig7Result struct {
	Ls         []int
	Startup    map[int]time.Duration
	Overall    map[int]time.Duration
	InterFrame map[int]time.Duration
}

// Fig7 reports start-up latency, overall time and inter-frame delay
// versus L at P=32.
func (c *Context) Fig7() (*Fig7Result, error) {
	const p, steps = 32, 128
	res := &Fig7Result{
		Startup:    map[int]time.Duration{},
		Overall:    map[int]time.Duration{},
		InterFrame: map[int]time.Duration{},
	}
	for l := 1; l <= p; l *= 2 {
		cfg, err := c.calibratedConfig(p, l, steps)
		if err != nil {
			return nil, err
		}
		r, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		res.Ls = append(res.Ls, l)
		res.Startup[l] = r.StartupLatency
		res.Overall[l] = r.Overall
		res.InterFrame[l] = r.InterFrameDelay
	}
	c.printf("Figure 7: metrics vs number of partitions (P=32, RWCP)\n")
	sS := &metrics.Series{Name: "startup(s)"}
	sO := &metrics.Series{Name: "overall(s)"}
	sI := &metrics.Series{Name: "interframe(s)"}
	for _, l := range res.Ls {
		sS.Add(float64(l), res.Startup[l].Seconds())
		sO.Add(float64(l), res.Overall[l].Seconds())
		sI.Add(float64(l), res.InterFrame[l].Seconds())
	}
	_ = metrics.WriteSeries(c.Out, "L", sS, sO, sI)
	c.printf("\n")
	return res, nil
}

// Trace prints an ASCII Gantt chart of the first steps of the
// calibrated pipeline at the Figure 6 optimum (P=32, L=4) — a
// diagnostic view of how input, rendering and output overlap.
func (c *Context) Trace() (string, error) {
	cfg, err := c.calibratedConfig(32, 4, 12)
	if err != nil {
		return "", err
	}
	r, err := sim.Run(cfg)
	if err != nil {
		return "", err
	}
	out := sim.GanttString(r.Trace, 100)
	c.printf("%s\n", out)
	if c.TracePath != "" {
		tr := obs.NewTracer(nil, obs.DefaultTraceCapacity)
		sim.ExportSpans(tr, r.Trace)
		f, err := os.Create(c.TracePath)
		if err != nil {
			return "", err
		}
		if err := tr.WriteChrome(f); err != nil {
			f.Close()
			return "", err
		}
		if err := f.Close(); err != nil {
			return "", err
		}
		c.printf("wrote simulated-schedule Chrome trace %s\n", c.TracePath)
	}
	return out, nil
}

// Fig9Row is one bar pair of Figure 9: per-frame render time vs
// display time at one image size.
type Fig9Row struct {
	Size    int
	Render  time.Duration // render + composite + compress on 16 nodes
	Display time.Duration // transfer + viewer decode
}

// Fig9Result holds the X (top chart) and daemon (bottom chart)
// breakdowns.
type Fig9Result struct {
	X      []Fig9Row
	Daemon []Fig9Row
}

// Fig9 reproduces the render/display time breakdown on 16 processors
// of the O2K with the NASA–UCD link: the simulated render stage
// (calibrated) plus the real measured display path.
func (c *Context) Fig9() (*Fig9Result, error) {
	cal, err := c.calibration()
	if err != nil {
		return nil, err
	}
	m, _ := cal.ScaleToPaper(sim.O2K(), jetDims())
	link := wan.NASAUCD()
	reps := 2
	if c.Quick {
		reps = 1
	}
	res := &Fig9Result{}
	for _, s := range c.sizes() {
		w := cal.WorkloadFor(m, jetDims(), 16, s, s)
		w.Link = link
		// Interactive viewing: the whole 16-processor machine renders
		// each frame (one group), as in the paper's Figure 9 setup.
		cfg := sim.Config{Machine: m, Work: w, P: 16, L: 1}
		r, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		// Real display-path measurements.
		x, err := c.measureDisplayPath("jet", s, "raw", link, reps)
		if err != nil {
			return nil, err
		}
		cp, err := c.measureDisplayPath("jet", s, "jpeg+lzo", link, reps)
		if err != nil {
			return nil, err
		}
		res.X = append(res.X, Fig9Row{Size: s, Render: r.RenderPerFrame, Display: x.Transfer + x.Decode})
		res.Daemon = append(res.Daemon, Fig9Row{Size: s, Render: r.RenderPerFrame + cp.Encode, Display: cp.Transfer + cp.Decode})
	}
	c.printf("Figure 9: per-frame render vs display time, 16 procs O2K, NASA->UCD\n")
	t := metrics.NewTable("imgsize", "mode", "render(s)", "display(s)")
	for i := range res.X {
		t.Row(fmt.Sprintf("%d^2", res.X[i].Size), "X",
			fmt.Sprintf("%.3f", res.X[i].Render.Seconds()),
			fmt.Sprintf("%.3f", res.X[i].Display.Seconds()))
		t.Row(fmt.Sprintf("%d^2", res.Daemon[i].Size), "daemon",
			fmt.Sprintf("%.3f", res.Daemon[i].Render.Seconds()),
			fmt.Sprintf("%.3f", res.Daemon[i].Display.Seconds()))
	}
	c.printf("%s\n", t.String())
	return res, nil
}
