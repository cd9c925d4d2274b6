package experiments

import (
	"fmt"
	"time"

	"repro/internal/compress"
	"repro/internal/display"
	"repro/internal/img"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// Fig10Point is the decode+assembly time when a frame arrives as N
// parallel-compression pieces: the fastest of several repetitions,
// so a scheduler stall in one repetition does not skew the figure.
type Fig10Point struct {
	Pieces     int
	Decode     time.Duration
	TotalBytes int
}

// Fig10Result compares decompressing a single full image against
// multiple sub-image pieces — the paper's Figure 10 (512x512, up to
// 64 processors).
type Fig10Result struct {
	Size   int
	Points []Fig10Point
}

// Fig10 measures real piece decoding through the display assembler.
func (c *Context) Fig10() (*Fig10Result, error) {
	size := 512
	if c.Quick {
		size = 128
	}
	f, err := c.frame("jet", size)
	if err != nil {
		return nil, err
	}
	codec, err := compress.ByName("jpeg+lzo")
	if err != nil {
		return nil, err
	}
	const reps = 5
	res := &Fig10Result{Size: size}
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		if n > size {
			break
		}
		regs, err := img.SplitRows(f.W, f.H, n)
		if err != nil {
			return nil, err
		}
		msgs := make([]*transport.ImageMsg, n)
		total := 0
		for i, r := range regs {
			sub, err := f.SubFrame(r)
			if err != nil {
				return nil, err
			}
			data, err := codec.EncodeFrame(sub)
			if err != nil {
				return nil, err
			}
			total += len(data)
			msgs[i] = &transport.ImageMsg{
				FrameID: 0, PieceIndex: uint16(i), PieceCount: uint16(n),
				X0: uint16(r.X0), Y0: uint16(r.Y0), X1: uint16(r.X1), Y1: uint16(r.Y1),
				W: uint16(f.W), H: uint16(f.H), Codec: "jpeg+lzo", Data: data,
			}
		}
		var best time.Duration
		for rep := 0; rep < reps; rep++ {
			asm := display.NewAssembler()
			start := time.Now()
			var done bool
			for i, m := range msgs {
				mm := *m
				mm.FrameID = uint32(rep)
				fr, err := asm.Ingest(&mm)
				if err != nil {
					return nil, err
				}
				if fr != nil {
					if i != len(msgs)-1 {
						return nil, fmt.Errorf("fig10: early completion")
					}
					done = true
				}
			}
			if !done {
				return nil, fmt.Errorf("fig10: frame never completed with %d pieces", n)
			}
			if el := time.Since(start); rep == 0 || el < best {
				best = el
			}
		}
		res.Points = append(res.Points, Fig10Point{Pieces: n, Decode: best, TotalBytes: total})
	}
	c.printf("Figure 10: time to decompress a %dx%d frame arriving as N sub-images\n", size, size)
	t := metrics.NewTable("pieces", "decode+assemble(s)", "bytes")
	for _, p := range res.Points {
		t.Row(fmt.Sprintf("%d", p.Pieces), fmt.Sprintf("%.4f", p.Decode.Seconds()), fmt.Sprintf("%d", p.TotalBytes))
	}
	c.printf("%s\n", t.String())
	return res, nil
}
