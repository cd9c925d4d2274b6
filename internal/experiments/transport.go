package experiments

import (
	"fmt"
	"time"

	"repro/internal/compress"
	"repro/internal/metrics"
	"repro/internal/wan"
)

// TransferPoint is one (image size, method) measurement.
type TransferPoint struct {
	Size int
	// Encode, Transfer, Decode are the real measured phase times; X
	// rows have no encode phase.
	Encode, Transfer, Decode time.Duration
	// Bytes actually transferred.
	Bytes int
}

// Total returns the per-frame display time (the paper's Figure 8 bar).
func (p TransferPoint) Total() time.Duration { return p.Encode + p.Transfer + p.Decode }

// FPS returns the steady-state frame rate the link supports (the
// paper's Table 2 entry): transfer and decode pipeline, so the period
// is the slower of the two, plus encode which runs on the (parallel)
// render side and is ignored for the rate as in the paper.
func (p TransferPoint) FPS() float64 {
	period := p.Transfer
	if p.Decode > period {
		period = p.Decode
	}
	if period <= 0 {
		return 0
	}
	return 1 / period.Seconds()
}

// TransferResult holds the X and compression measurements per size —
// the data behind Figure 8 (times), Table 2 (rates) and Figure 11
// (Japan link).
type TransferResult struct {
	Link  wan.Profile
	Sizes []int
	X     map[int]TransferPoint
	Comp  map[int]TransferPoint
	// Codec is the compression method used for the Comp rows.
	Codec string
}

// measureDisplayPath measures one frame of a dataset at a size through
// the real encode → shaped-transfer → decode path.
func (c *Context) measureDisplayPath(dataset string, size int, codecName string, link wan.Profile, reps int) (TransferPoint, error) {
	f, err := c.frame(dataset, size)
	if err != nil {
		return TransferPoint{}, err
	}
	codec, err := compress.ByName(codecName)
	if err != nil {
		return TransferPoint{}, err
	}
	var p TransferPoint
	p.Size = size
	t0 := time.Now()
	data, err := codec.EncodeFrame(f)
	if err != nil {
		return TransferPoint{}, err
	}
	p.Encode = time.Since(t0)
	p.Bytes = len(data)
	p.Transfer, err = measureTransfer(data, link, reps)
	if err != nil {
		return TransferPoint{}, err
	}
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		if _, err := codec.DecodeFrame(data); err != nil {
			return TransferPoint{}, err
		}
	}
	p.Decode = time.Since(t0) / time.Duration(reps)
	return p, nil
}

// transferExperiment measures X (raw) vs compression rows over a link.
func (c *Context) transferExperiment(link wan.Profile, label string) (*TransferResult, error) {
	res := &TransferResult{
		Link:  link,
		Sizes: c.sizes(),
		X:     map[int]TransferPoint{},
		Comp:  map[int]TransferPoint{},
		Codec: "jpeg+lzo",
	}
	reps := 3
	if c.Quick {
		reps = 1
	}
	for _, s := range res.Sizes {
		x, err := c.measureDisplayPath("jet", s, "raw", link, reps)
		if err != nil {
			return nil, fmt.Errorf("%s raw %d: %w", label, s, err)
		}
		x.Encode = 0 // X ships pixels without an encode stage
		res.X[s] = x
		cp, err := c.measureDisplayPath("jet", s, res.Codec, link, reps)
		if err != nil {
			return nil, fmt.Errorf("%s %s %d: %w", label, res.Codec, s, err)
		}
		res.Comp[s] = cp
	}
	return res, nil
}

// Fig8 measures the time to send one frame NASA Ames → UC Davis via X
// versus the compression-based daemon.
func (c *Context) Fig8() (*TransferResult, error) {
	res, err := c.transferExperiment(wan.NASAUCD(), "fig8")
	if err != nil {
		return nil, err
	}
	c.printTransferTimes("Figure 8: time to send one frame, NASA Ames -> UCD", res)
	return res, nil
}

// Table2 reports actual frame rates NASA Ames → UC Davis.
func (c *Context) Table2() (*TransferResult, error) {
	res, err := c.transferExperiment(wan.NASAUCD(), "table2")
	if err != nil {
		return nil, err
	}
	c.printf("Table 2: actual frame rates (frames per second), NASA Ames -> UCD\n")
	header := []string{"method"}
	for _, s := range res.Sizes {
		header = append(header, fmt.Sprintf("%d^2", s))
	}
	t := metrics.NewTable(header...)
	rowX := []string{"X-Window"}
	rowC := []string{"Compression"}
	for _, s := range res.Sizes {
		rowX = append(rowX, fmt.Sprintf("%.2f", res.X[s].FPS()))
		rowC = append(rowC, fmt.Sprintf("%.2f", res.Comp[s].FPS()))
	}
	t.Row(rowX...)
	t.Row(rowC...)
	c.printf("%s\n", t.String())
	return res, nil
}

// Fig11 repeats the per-frame display measurement over the
// RWCP (Japan) → UC Davis link.
func (c *Context) Fig11() (*TransferResult, error) {
	res, err := c.transferExperiment(wan.JapanUCD(), "fig11")
	if err != nil {
		return nil, err
	}
	c.printTransferTimes("Figure 11: overall time per frame, RWCP (Japan) -> UCD", res)
	return res, nil
}

func (c *Context) printTransferTimes(title string, res *TransferResult) {
	c.printf("%s (link %s: %.0f KB/s, %v one-way)\n", title, res.Link.Name,
		res.Link.Bandwidth/1e3, res.Link.Latency)
	t := metrics.NewTable("imgsize", "X-display(s)", "daemon(s)", "X-bytes", "daemon-bytes")
	for _, s := range res.Sizes {
		t.Row(
			fmt.Sprintf("%d^2", s),
			fmt.Sprintf("%.3f", res.X[s].Total().Seconds()),
			fmt.Sprintf("%.3f", res.Comp[s].Total().Seconds()),
			fmt.Sprintf("%d", res.X[s].Bytes),
			fmt.Sprintf("%d", res.Comp[s].Bytes),
		)
	}
	c.printf("%s\n", t.String())
}
