// Package prog implements progressive frame transmission: a
// reversible integer Haar (S-transform) wavelet decomposition whose
// coefficients are emitted as an ordered sequence of refinement
// passes. Pass 0 carries the coarsest low-pass band — a usable
// preview at a small fraction of the full-frame bytes — and each
// later pass adds one level of detail subbands. The stream can be
// truncated at any pass boundary (Truncate/SplitPreview), a truncated
// prefix still decodes to a frame, and the viewer refines in place as
// later passes arrive (Decoder). The full
// stream is exactly lossless: the S-transform is integer-reversible.
//
// Coefficients are entropy-coded with the adaptive Golomb-Rice coder
// shared with the jls codec; the low-pass band is DPCM-predicted.
// Pass/channel blocks are independent, so encoding parallelizes over
// the PR 4 worker-pool pattern with bit-identical output at every
// worker count.
package prog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/compress/rice"
	"repro/internal/img"
)

// MaxPixels bounds the frames the codec will encode or decode; it
// keeps adversarial headers from forcing huge coefficient-plane
// allocations before any payload is read.
const MaxPixels = 1 << 22

// MaxLevels bounds the wavelet decomposition depth.
const MaxLevels = 8

// DefaultLevels is the decomposition depth the encoder uses (clamped
// down for tiny frames). Four levels put the preview band at 1/256 of
// the pixels.
const DefaultLevels = 4

// magic identifies a prog stream.
var magic = [4]byte{'P', 'G', 'F', '1'}

// headerLen is magic, u16 width, u16 height, u8 levels,
// u8 totalPasses, u16 reserved.
const headerLen = 12

// recHeadLen is the fixed prefix of one pass record: u8 passIndex,
// u8 flags, u32 record payload length.
const recHeadLen = 6

// ErrCorrupt reports a malformed prog stream (distinct from a clean
// truncation at a pass boundary, which decodes fine).
var ErrCorrupt = errors.New("prog: corrupt stream")

// Codec is the progressive frame codec. The zero value encodes every
// pass (lossless) at DefaultLevels with one worker per CPU.
type Codec struct {
	// Passes, when positive, emits only the first Passes passes —
	// a deliberately truncated (preview) stream. 0 emits all
	// levels+1 passes.
	Passes int
	// Workers bounds encode parallelism; <=0 means GOMAXPROCS.
	// The encoded output is identical for every setting.
	Workers int
}

// Name implements compress.FrameCodec.
func (Codec) Name() string { return "prog" }

// Lossless implements compress.FrameCodec: the full-pass stream is
// exactly reversible; a preview-truncated instance is not.
func (c Codec) Lossless() bool { return c.Passes <= 0 }

// maxLevelsFor returns how many times both dimensions can still be
// halved (a level needs at least 2 samples in each direction).
func maxLevelsFor(w, h int) int {
	n := 0
	for w >= 2 && h >= 2 && n < MaxLevels {
		w, h = (w+1)/2, (h+1)/2
		n++
	}
	return n
}

// levelsFor returns the encoder's decomposition depth for a w×h frame.
func levelsFor(w, h int) int {
	return min(DefaultLevels, maxLevelsFor(w, h))
}

// dims returns the per-level low-band dimensions: dims[0] = (w,h),
// dims[j] = size of the LL band after j transform levels.
func dims(w, h, levels int) ([]int, []int) {
	cw := make([]int, levels+1)
	ch := make([]int, levels+1)
	cw[0], ch[0] = w, h
	for j := 1; j <= levels; j++ {
		cw[j], ch[j] = (cw[j-1]+1)/2, (ch[j-1]+1)/2
	}
	return cw, ch
}

// fwd1D S-transforms seg (length n) into low/high halves in place,
// via tmp (cap >= n): low[i]=(a+b)>>1, high[i]=a-b; an odd tail
// sample passes straight into the low band.
func fwd1D(seg []int32, tmp []int32) {
	n := len(seg)
	low := (n + 1) / 2
	for i := 0; i+1 < n; i += 2 {
		a, b := seg[i], seg[i+1]
		tmp[i/2] = (a + b) >> 1
		tmp[low+i/2] = a - b
	}
	if n&1 == 1 {
		tmp[low-1] = seg[n-1]
	}
	copy(seg, tmp[:n])
}

// inv1D inverts fwd1D: a = s + ((d+1)>>1), b = a - d.
func inv1D(seg []int32, tmp []int32) {
	n := len(seg)
	low := (n + 1) / 2
	for i := 0; i < n/2; i++ {
		s, d := seg[i], seg[low+i]
		a := s + ((d + 1) >> 1)
		tmp[2*i] = a
		tmp[2*i+1] = a - d
	}
	if n&1 == 1 {
		tmp[n-1] = seg[low-1]
	}
	copy(seg, tmp[:n])
}

// forward applies `levels` separable S-transform steps to the w×h
// plane (row stride w), rows then columns, shrinking the active LL
// region each step. col/tmp are scratch of length >= max(w,h).
func forward(plane []int32, w, h, levels int, col, tmp []int32) {
	cw, chh := w, h
	for j := 0; j < levels; j++ {
		for y := 0; y < chh; y++ {
			fwd1D(plane[y*w:y*w+cw], tmp)
		}
		for x := 0; x < cw; x++ {
			for y := 0; y < chh; y++ {
				col[y] = plane[y*w+x]
			}
			fwd1D(col[:chh], tmp)
			for y := 0; y < chh; y++ {
				plane[y*w+x] = col[y]
			}
		}
		cw, chh = (cw+1)/2, (chh+1)/2
	}
}

// inverse undoes forward, coarsest level first, columns then rows.
func inverse(plane []int32, w, h, levels int, col, tmp []int32) {
	cw, chh := dims(w, h, levels)
	for j := levels; j >= 1; j-- {
		pw, ph := cw[j-1], chh[j-1]
		for x := 0; x < pw; x++ {
			for y := 0; y < ph; y++ {
				col[y] = plane[y*w+x]
			}
			inv1D(col[:ph], tmp)
			for y := 0; y < ph; y++ {
				plane[y*w+x] = col[y]
			}
		}
		for y := 0; y < ph; y++ {
			inv1D(plane[y*w:y*w+pw], tmp)
		}
	}
}

// subband is a coefficient rectangle coded as one unit within a pass.
type subband struct{ x0, y0, x1, y1 int }

// passBands lists the subbands of pass p (p=0: the coarsest LL;
// p>=1: the HL/LH/HH detail bands of level levels-p+1).
func passBands(p, levels int, cw, ch []int) []subband {
	if p == 0 {
		return []subband{{0, 0, cw[levels], ch[levels]}}
	}
	j := levels - p + 1
	return []subband{
		{cw[j], 0, cw[j-1], ch[j]},       // HL: high in x, low in y
		{0, ch[j], cw[j], ch[j-1]},       // LH
		{cw[j], ch[j], cw[j-1], ch[j-1]}, // HH
	}
}

// passCoeffs counts the coefficients of one pass (per channel) — the
// decoder's 1-bit-per-coefficient minimum-payload check.
func passCoeffs(p, levels int, cw, ch []int) int {
	n := 0
	for _, b := range passBands(p, levels, cw, ch) {
		if b.x1 > b.x0 && b.y1 > b.y0 {
			n += (b.x1 - b.x0) * (b.y1 - b.y0)
		}
	}
	return n
}

// encScratch pools the per-unit bit writer.
type encScratch struct{ w rice.Writer }

var encPool = sync.Pool{New: func() any { return new(encScratch) }}

// planePool recycles int32 coefficient planes and scratch columns.
var planePool sync.Pool // *[]int32

func getPlane(n int) []int32 {
	if p, ok := planePool.Get().(*[]int32); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]int32, n)
}

func putPlane(p []int32) {
	if cap(p) > 0 {
		planePool.Put(&p)
	}
}

// encodeUnit entropy-codes one (pass, channel) block.
func encodeUnit(plane []int32, w, pass, levels int, cw, ch []int, s *encScratch) []byte {
	s.w.Reset()
	if pass == 0 {
		model := rice.NewModel()
		prev := int32(128)
		b := passBands(0, levels, cw, ch)[0]
		for y := b.y0; y < b.y1; y++ {
			for x := b.x0; x < b.x1; x++ {
				v := plane[y*w+x]
				m := rice.MapSigned(v - prev)
				s.w.WriteRice(m, model.K())
				model.Update(m)
				prev = v
			}
		}
		return s.w.Finish()
	}
	for _, b := range passBands(pass, levels, cw, ch) {
		model := rice.NewModel()
		for y := b.y0; y < b.y1; y++ {
			for x := b.x0; x < b.x1; x++ {
				m := rice.MapSigned(plane[y*w+x])
				s.w.WriteRice(m, model.K())
				model.Update(m)
			}
		}
	}
	return s.w.Finish()
}

// decodeUnit inverts encodeUnit into plane.
func decodeUnit(data []byte, plane []int32, w, pass, levels int, cw, ch []int) error {
	r := rice.NewReader(data)
	if pass == 0 {
		model := rice.NewModel()
		prev := int32(128)
		b := passBands(0, levels, cw, ch)[0]
		for y := b.y0; y < b.y1; y++ {
			for x := b.x0; x < b.x1; x++ {
				m, err := r.ReadRice(model.K())
				if err != nil {
					return err
				}
				model.Update(m)
				prev += rice.UnmapSigned(m)
				plane[y*w+x] = prev
			}
		}
		return nil
	}
	for _, b := range passBands(pass, levels, cw, ch) {
		model := rice.NewModel()
		for y := b.y0; y < b.y1; y++ {
			for x := b.x0; x < b.x1; x++ {
				m, err := r.ReadRice(model.K())
				if err != nil {
					return err
				}
				model.Update(m)
				plane[y*w+x] = rice.UnmapSigned(m)
			}
		}
	}
	return nil
}

// EncodeFrame implements compress.FrameCodec. Channels are
// transformed and (pass, channel) blocks entropy-coded over an atomic
// work cursor; assembly is in index order, so output is bit-identical
// at every worker count.
func (c Codec) EncodeFrame(f *img.Frame) ([]byte, error) {
	if f.W <= 0 || f.H <= 0 || f.W > 1<<15 || f.H > 1<<15 || f.W*f.H > MaxPixels {
		return nil, fmt.Errorf("prog: implausible frame %dx%d", f.W, f.H)
	}
	if len(f.Pix) != f.W*f.H*3 {
		return nil, fmt.Errorf("prog: frame payload %d != %d", len(f.Pix), f.W*f.H*3)
	}
	levels := levelsFor(f.W, f.H)
	total := levels + 1
	emit := total
	if c.Passes > 0 && c.Passes < total {
		emit = c.Passes
	}
	cw, ch := dims(f.W, f.H, levels)
	n := f.W * f.H

	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Stage 1: deinterleave and transform, one unit per channel.
	planes := [3][]int32{getPlane(n), getPlane(n), getPlane(n)}
	{
		var cursor atomic.Int64
		var wg sync.WaitGroup
		cworkers := workers
		if cworkers > 3 {
			cworkers = 3
		}
		for wk := 0; wk < cworkers; wk++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				side := f.W
				if f.H > side {
					side = f.H
				}
				col := getPlane(side)
				tmp := getPlane(side)
				defer putPlane(col)
				defer putPlane(tmp)
				for {
					chn := int(cursor.Add(1)) - 1
					if chn >= 3 {
						return
					}
					p := planes[chn]
					for i := 0; i < n; i++ {
						p[i] = int32(f.Pix[i*3+chn])
					}
					forward(p, f.W, f.H, levels, col, tmp)
				}
			}()
		}
		wg.Wait()
	}

	// Stage 2: entropy-code (pass, channel) units.
	blocks := make([][]byte, emit*3)
	scratches := make([]*encScratch, emit*3)
	{
		var cursor atomic.Int64
		var wg sync.WaitGroup
		uworkers := workers
		if uworkers > emit*3 {
			uworkers = emit * 3
		}
		for wk := 0; wk < uworkers; wk++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					u := int(cursor.Add(1)) - 1
					if u >= emit*3 {
						return
					}
					pass, chn := u/3, u%3
					s := encPool.Get().(*encScratch)
					blocks[u] = encodeUnit(planes[chn], f.W, pass, levels, cw, ch, s)
					scratches[u] = s
				}
			}()
		}
		wg.Wait()
	}

	size := headerLen
	for p := 0; p < emit; p++ {
		size += recHeadLen + 12
		for chn := 0; chn < 3; chn++ {
			size += len(blocks[p*3+chn])
		}
	}
	out := make([]byte, headerLen, size)
	copy(out, magic[:])
	binary.LittleEndian.PutUint16(out[4:], uint16(f.W))
	binary.LittleEndian.PutUint16(out[6:], uint16(f.H))
	out[8] = byte(levels)
	out[9] = byte(total)
	var u32 [4]byte
	for p := 0; p < emit; p++ {
		recLen := 12
		for chn := 0; chn < 3; chn++ {
			recLen += len(blocks[p*3+chn])
		}
		out = append(out, byte(p), 0)
		binary.LittleEndian.PutUint32(u32[:], uint32(recLen))
		out = append(out, u32[:]...)
		for chn := 0; chn < 3; chn++ {
			binary.LittleEndian.PutUint32(u32[:], uint32(len(blocks[p*3+chn])))
			out = append(out, u32[:]...)
			out = append(out, blocks[p*3+chn]...)
		}
	}
	for u := range scratches {
		// Blocks alias the scratch writers' buffers; recycle only
		// after assembly copied them out.
		encPool.Put(scratches[u])
	}
	for _, p := range planes {
		putPlane(p)
	}
	return out, nil
}

// StreamInfo describes a parsed prog stream.
type StreamInfo struct {
	W, H        int
	Levels      int
	TotalPasses int
	// Passes is how many complete pass records the stream holds.
	Passes int
	// Boundaries[i] is the byte length of the prefix ending after
	// pass record i — the only legal truncation points.
	Boundaries []int
}

// parseStream validates framing. With tolerateTail, an incomplete
// final record is allowed (the caller is mid-refinement) and its
// bytes are ignored; otherwise any trailing bytes are ErrCorrupt.
func parseStream(data []byte, tolerateTail bool) (StreamInfo, error) {
	var si StreamInfo
	if len(data) < headerLen || [4]byte(data[:4]) != magic {
		return si, ErrCorrupt
	}
	si.W = int(binary.LittleEndian.Uint16(data[4:]))
	si.H = int(binary.LittleEndian.Uint16(data[6:]))
	si.Levels = int(data[8])
	si.TotalPasses = int(data[9])
	if si.W <= 0 || si.H <= 0 || si.W*si.H > MaxPixels {
		return si, fmt.Errorf("prog: implausible frame %dx%d: %w", si.W, si.H, ErrCorrupt)
	}
	if si.Levels > maxLevelsFor(si.W, si.H) || si.TotalPasses != si.Levels+1 {
		return si, fmt.Errorf("prog: levels %d / passes %d for %dx%d: %w",
			si.Levels, si.TotalPasses, si.W, si.H, ErrCorrupt)
	}
	cw, ch := dims(si.W, si.H, si.Levels)
	off := headerLen
	for off < len(data) {
		if len(data)-off < recHeadLen {
			if tolerateTail {
				break
			}
			return si, ErrCorrupt
		}
		pass := int(data[off])
		recLen := int(binary.LittleEndian.Uint32(data[off+2:]))
		if pass != si.Passes || pass >= si.TotalPasses || recLen < 12 || recLen > 16+MaxPixels*16 {
			return si, fmt.Errorf("prog: record %d (pass %d, len %d): %w", si.Passes, pass, recLen, ErrCorrupt)
		}
		if len(data)-off-recHeadLen < recLen {
			if tolerateTail {
				break
			}
			return si, ErrCorrupt
		}
		// Channel sub-framing plus the 1-bit-per-coefficient floor
		// that stops tiny adversarial records from driving big
		// plane allocations.
		minBits := passCoeffs(pass, si.Levels, cw, ch)
		chOff := off + recHeadLen
		for chn := 0; chn < 3; chn++ {
			chLen := int(binary.LittleEndian.Uint32(data[chOff:]))
			if chLen < 0 || chLen > recLen || 8*chLen < minBits {
				return si, fmt.Errorf("prog: pass %d channel %d len %d: %w", pass, chn, chLen, ErrCorrupt)
			}
			chOff += 4 + chLen
		}
		if chOff != off+recHeadLen+recLen {
			return si, fmt.Errorf("prog: pass %d channel framing: %w", pass, ErrCorrupt)
		}
		off = chOff
		si.Passes++
		si.Boundaries = append(si.Boundaries, off)
	}
	if si.Passes == 0 && !tolerateTail {
		return si, fmt.Errorf("prog: no complete pass record: %w", ErrCorrupt)
	}
	return si, nil
}

// Truncate returns the prefix of data holding the first `passes`
// pass records — the wire-layer degradation step.
func Truncate(data []byte, passes int) ([]byte, error) {
	si, err := parseStream(data, false)
	if err != nil {
		return nil, err
	}
	if passes <= 0 || passes > si.Passes {
		return nil, fmt.Errorf("prog: truncate to %d of %d passes", passes, si.Passes)
	}
	return data[:si.Boundaries[passes-1]], nil
}

// SplitPreview splits a full stream into a standalone preview prefix
// (header + pass 0) and the refinement tail (the remaining pass
// records, raw). ok is false when the stream has no tail to split.
func SplitPreview(data []byte) (head, tail []byte, ok bool) {
	si, err := parseStream(data, false)
	if err != nil || si.Passes < 2 {
		return nil, nil, false
	}
	return data[:si.Boundaries[0]], data[si.Boundaries[0]:], true
}

// reconstruct decodes the first `passes` records of a validated
// stream into a frame.
func reconstruct(data []byte, si StreamInfo, passes int) (*img.Frame, error) {
	cw, ch := dims(si.W, si.H, si.Levels)
	n := si.W * si.H
	planes := [3][]int32{getPlane(n), getPlane(n), getPlane(n)}
	defer func() {
		for _, p := range planes {
			putPlane(p)
		}
	}()
	for _, p := range planes {
		for i := range p {
			p[i] = 0
		}
	}
	off := headerLen
	for pass := 0; pass < passes; pass++ {
		chOff := off + recHeadLen
		for chn := 0; chn < 3; chn++ {
			chLen := int(binary.LittleEndian.Uint32(data[chOff:]))
			if err := decodeUnit(data[chOff+4:chOff+4+chLen], planes[chn], si.W, pass, si.Levels, cw, ch); err != nil {
				return nil, fmt.Errorf("prog: pass %d channel %d: %w", pass, chn, ErrCorrupt)
			}
			chOff += 4 + chLen
		}
		off = si.Boundaries[pass]
	}
	side := si.W
	if si.H > side {
		side = si.H
	}
	col := getPlane(side)
	tmp := getPlane(side)
	defer putPlane(col)
	defer putPlane(tmp)
	f := img.NewFrame(si.W, si.H)
	for chn, p := range planes {
		inverse(p, si.W, si.H, si.Levels, col, tmp)
		for i := 0; i < n; i++ {
			v := p[i]
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			f.Pix[i*3+chn] = byte(v)
		}
	}
	return f, nil
}

// DecodeFrame implements compress.FrameCodec. Any pass-boundary
// prefix decodes: fewer passes simply reconstruct a coarser frame.
func (Codec) DecodeFrame(data []byte) (*img.Frame, error) {
	si, err := parseStream(data, false)
	if err != nil {
		return nil, err
	}
	return reconstruct(data, si, si.Passes)
}

// Decoder accumulates a progressive stream chunk by chunk (preview
// message, then refinement tails) and re-renders the best frame
// available after each addition.
type Decoder struct {
	buf    []byte
	passes int
	info   StreamInfo
}

// NewDecoder returns an empty progressive decoder.
func NewDecoder() *Decoder { return &Decoder{} }

// Add appends chunk and, when at least one new complete pass record
// has arrived, returns the refined frame. It returns (nil, nil) when
// more bytes are needed for the next boundary. A chunk that breaks
// the stream's framing returns an error; the decoder is then dead.
func (d *Decoder) Add(chunk []byte) (*img.Frame, error) {
	d.buf = append(d.buf, chunk...)
	si, err := parseStream(d.buf, true)
	if err != nil {
		return nil, err
	}
	d.info = si
	if si.Passes == d.passes {
		return nil, nil
	}
	d.passes = si.Passes
	return reconstruct(d.buf, si, si.Passes)
}

// Passes reports how many complete passes have been decoded.
func (d *Decoder) Passes() int { return d.passes }

// TotalPasses reports the stream's declared pass count (0 before the
// header has arrived).
func (d *Decoder) TotalPasses() int { return d.info.TotalPasses }

// Complete reports whether every pass of the stream has arrived.
func (d *Decoder) Complete() bool {
	return d.passes > 0 && d.passes == d.info.TotalPasses
}
