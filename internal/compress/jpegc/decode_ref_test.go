package jpegc

// The decoder as it stood before decode cost was made to follow block
// content: whole-image planes, a full 64-term inverse DCT per block,
// bit-at-a-time entropy decode and per-pixel colour conversion. It is
// the oracle the tests hold Decode to, bit for bit. The only edit is in
// assemble, where the colour products are wrapped in float64() so that
// no platform fuses them into the following add.

import (
	"fmt"

	"repro/internal/img"
)

// refHuff is a Huffman decoding table built from a DHT segment.
type refHuff struct {
	firstCode [17]int32 // first code of each length
	firstVal  [17]int32 // index into vals of first symbol of each length
	maxCode   [17]int32 // last code of each length (-1 if none)
	vals      []byte
}

func refBuildHuff(counts [16]byte, vals []byte) *refHuff {
	h := &refHuff{vals: vals}
	code := int32(0)
	idx := int32(0)
	for l := 1; l <= 16; l++ {
		h.firstCode[l] = code
		h.firstVal[l] = idx
		n := int32(counts[l-1])
		if n == 0 {
			h.maxCode[l] = -1
		} else {
			h.maxCode[l] = code + n - 1
		}
		code = (code + n) << 1
		idx += n
	}
	return h
}

// refScanReader reads entropy-coded bits, unstuffing 0xFF00 and stopping
// at markers.
type refScanReader struct {
	src    []byte
	pos    int
	acc    uint32
	nAcc   uint
	marker byte // pending marker (0 if none)
}

// fill pulls one more byte into the accumulator.
func (r *refScanReader) fill() error {
	if r.marker != 0 {
		return fmt.Errorf("%w: read past marker ff%02x", ErrFormat, r.marker)
	}
	if r.pos >= len(r.src) {
		return fmt.Errorf("%w: truncated scan", ErrFormat)
	}
	b := r.src[r.pos]
	r.pos++
	if b == 0xff {
		if r.pos >= len(r.src) {
			return fmt.Errorf("%w: truncated marker", ErrFormat)
		}
		nxt := r.src[r.pos]
		r.pos++
		if nxt != 0x00 {
			r.marker = nxt
			// Treat as padding; callers must notice the marker.
			r.acc = r.acc<<8 | 0xff
			r.nAcc += 8
			return nil
		}
	}
	r.acc = r.acc<<8 | uint32(b)
	r.nAcc += 8
	return nil
}

func (r *refScanReader) bit() (uint32, error) {
	if r.nAcc == 0 {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	r.nAcc--
	return (r.acc >> r.nAcc) & 1, nil
}

func (r *refScanReader) bits(n byte) (int32, error) {
	var v int32
	for i := byte(0); i < n; i++ {
		b, err := r.bit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | int32(b)
	}
	return v, nil
}

// decodeSym reads one Huffman-coded symbol.
func (r *refScanReader) decodeSym(h *refHuff) (byte, error) {
	code := int32(0)
	for l := 1; l <= 16; l++ {
		b, err := r.bit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | int32(b)
		if h.maxCode[l] >= 0 && code <= h.maxCode[l] {
			return h.vals[h.firstVal[l]+code-h.firstCode[l]], nil
		}
	}
	return 0, fmt.Errorf("%w: bad Huffman code", ErrFormat)
}

// refComponent is one color plane of the frame being decoded.
type refComponent struct {
	id     byte
	h, v   int // sampling factors
	quant  byte
	dcTab  byte
	acTab  byte
	dcPred int32
	// plane at (W/maxH*h) x (H/maxV*v) resolution, padded to MCU
	// multiples.
	plane  []byte
	stride int
}

// refDecode parses a baseline JPEG into an RGB frame.
func refDecode(data []byte) (*img.Frame, error) {
	d := &refDecoder{src: data}
	return d.decode()
}

type refDecoder struct {
	src []byte
	pos int

	quant   [4][64]int32 // natural order
	huffDC  [4]*refHuff
	huffAC  [4]*refHuff
	w, h    int
	comps   []*refComponent
	maxH    int
	maxV    int
	restart int // restart interval in MCUs (0 = none)
	sawSOF  bool
}

func (d *refDecoder) u8() (byte, error) {
	if d.pos >= len(d.src) {
		return 0, fmt.Errorf("%w: truncated", ErrFormat)
	}
	b := d.src[d.pos]
	d.pos++
	return b, nil
}

func (d *refDecoder) u16() (int, error) {
	hi, err := d.u8()
	if err != nil {
		return 0, err
	}
	lo, err := d.u8()
	if err != nil {
		return 0, err
	}
	return int(hi)<<8 | int(lo), nil
}

func (d *refDecoder) segment() ([]byte, error) {
	n, err := d.u16()
	if err != nil {
		return nil, err
	}
	if n < 2 || d.pos+n-2 > len(d.src) {
		return nil, fmt.Errorf("%w: bad segment length %d", ErrFormat, n)
	}
	seg := d.src[d.pos : d.pos+n-2]
	d.pos += n - 2
	return seg, nil
}

func (d *refDecoder) decode() (*img.Frame, error) {
	m, err := d.u8()
	if err != nil {
		return nil, err
	}
	m2, err := d.u8()
	if err != nil {
		return nil, err
	}
	if m != 0xff || m2 != 0xd8 {
		return nil, fmt.Errorf("%w: missing SOI", ErrFormat)
	}
	for {
		b, err := d.u8()
		if err != nil {
			return nil, err
		}
		if b != 0xff {
			return nil, fmt.Errorf("%w: expected marker, got %02x", ErrFormat, b)
		}
		marker, err := d.u8()
		if err != nil {
			return nil, err
		}
		for marker == 0xff { // fill bytes
			if marker, err = d.u8(); err != nil {
				return nil, err
			}
		}
		switch {
		case marker == 0xd9: // EOI before SOS
			return nil, fmt.Errorf("%w: no image data", ErrFormat)
		case marker == 0xc0: // SOF0 baseline
			if err := d.parseSOF(); err != nil {
				return nil, err
			}
		case marker == 0xc4:
			if err := d.parseDHT(); err != nil {
				return nil, err
			}
		case marker == 0xdb:
			if err := d.parseDQT(); err != nil {
				return nil, err
			}
		case marker == 0xdd: // DRI
			seg, err := d.segment()
			if err != nil {
				return nil, err
			}
			if len(seg) != 2 {
				return nil, fmt.Errorf("%w: bad DRI", ErrFormat)
			}
			d.restart = int(seg[0])<<8 | int(seg[1])
		case marker == 0xda: // SOS
			return d.parseScan()
		case marker >= 0xc1 && marker <= 0xcf && marker != 0xc4 && marker != 0xc8 && marker != 0xcc:
			return nil, fmt.Errorf("%w: non-baseline SOF marker ff%02x", ErrFormat, marker)
		default: // APPn, COM, anything skippable
			if _, err := d.segment(); err != nil {
				return nil, err
			}
		}
	}
}

func (d *refDecoder) parseDQT() error {
	seg, err := d.segment()
	if err != nil {
		return err
	}
	for len(seg) > 0 {
		pq := seg[0] >> 4
		tq := seg[0] & 0xf
		if tq > 3 {
			return fmt.Errorf("%w: quant table id %d", ErrFormat, tq)
		}
		seg = seg[1:]
		n := 64
		if pq == 1 {
			n = 128
		}
		if len(seg) < n {
			return fmt.Errorf("%w: short DQT", ErrFormat)
		}
		for z := 0; z < 64; z++ {
			var v int32
			if pq == 1 {
				v = int32(seg[2*z])<<8 | int32(seg[2*z+1])
			} else {
				v = int32(seg[z])
			}
			d.quant[tq][zigzag[z]] = v
		}
		seg = seg[n:]
	}
	return nil
}

func (d *refDecoder) parseDHT() error {
	seg, err := d.segment()
	if err != nil {
		return err
	}
	for len(seg) > 0 {
		if len(seg) < 17 {
			return fmt.Errorf("%w: short DHT", ErrFormat)
		}
		class := seg[0] >> 4
		id := seg[0] & 0xf
		if class > 1 || id > 3 {
			return fmt.Errorf("%w: DHT class %d id %d", ErrFormat, class, id)
		}
		var counts [16]byte
		total := 0
		for i := 0; i < 16; i++ {
			counts[i] = seg[1+i]
			total += int(counts[i])
		}
		if len(seg) < 17+total {
			return fmt.Errorf("%w: short DHT values", ErrFormat)
		}
		vals := make([]byte, total)
		copy(vals, seg[17:17+total])
		h := refBuildHuff(counts, vals)
		if class == 0 {
			d.huffDC[id] = h
		} else {
			d.huffAC[id] = h
		}
		seg = seg[17+total:]
	}
	return nil
}

func (d *refDecoder) parseSOF() error {
	seg, err := d.segment()
	if err != nil {
		return err
	}
	if len(seg) < 6 {
		return fmt.Errorf("%w: short SOF", ErrFormat)
	}
	if seg[0] != 8 {
		return fmt.Errorf("%w: precision %d", ErrFormat, seg[0])
	}
	d.h = int(seg[1])<<8 | int(seg[2])
	d.w = int(seg[3])<<8 | int(seg[4])
	nc := int(seg[5])
	if d.w < 1 || d.h < 1 {
		return fmt.Errorf("%w: image %dx%d", ErrFormat, d.w, d.h)
	}
	if nc != 1 && nc != 3 {
		return fmt.Errorf("%w: %d refComponents", ErrFormat, nc)
	}
	if len(seg) < 6+3*nc {
		return fmt.Errorf("%w: short SOF refComponents", ErrFormat)
	}
	d.comps = nil
	d.maxH, d.maxV = 1, 1
	for i := 0; i < nc; i++ {
		c := &refComponent{
			id:    seg[6+3*i],
			h:     int(seg[7+3*i] >> 4),
			v:     int(seg[7+3*i] & 0xf),
			quant: seg[8+3*i],
		}
		if c.h < 1 || c.h > 4 || c.v < 1 || c.v > 4 || c.quant > 3 {
			return fmt.Errorf("%w: refComponent %d sampling %dx%d quant %d", ErrFormat, i, c.h, c.v, c.quant)
		}
		if c.h > d.maxH {
			d.maxH = c.h
		}
		if c.v > d.maxV {
			d.maxV = c.v
		}
		d.comps = append(d.comps, c)
	}
	d.sawSOF = true
	return nil
}

func (d *refDecoder) parseScan() (*img.Frame, error) {
	if !d.sawSOF {
		return nil, fmt.Errorf("%w: SOS before SOF", ErrFormat)
	}
	seg, err := d.segment()
	if err != nil {
		return nil, err
	}
	if len(seg) < 1 {
		return nil, fmt.Errorf("%w: empty SOS", ErrFormat)
	}
	ns := int(seg[0])
	if ns != len(d.comps) {
		return nil, fmt.Errorf("%w: scan has %d of %d refComponents (non-interleaved scans unsupported)", ErrFormat, ns, len(d.comps))
	}
	if len(seg) < 1+2*ns+3 {
		return nil, fmt.Errorf("%w: short SOS", ErrFormat)
	}
	for i := 0; i < ns; i++ {
		id := seg[1+2*i]
		tabs := seg[2+2*i]
		found := false
		for _, c := range d.comps {
			if c.id == id {
				c.dcTab = tabs >> 4
				c.acTab = tabs & 0xf
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: scan references unknown refComponent %d", ErrFormat, id)
		}
	}

	mcuW := 8 * d.maxH
	mcuH := 8 * d.maxV
	mcusX := (d.w + mcuW - 1) / mcuW
	mcusY := (d.h + mcuH - 1) / mcuH
	for _, c := range d.comps {
		c.stride = mcusX * 8 * c.h
		c.plane = make([]byte, c.stride*mcusY*8*c.v)
	}

	sr := &refScanReader{src: d.src, pos: d.pos}
	mcu := 0
	for my := 0; my < mcusY; my++ {
		for mx := 0; mx < mcusX; mx++ {
			if d.restart > 0 && mcu > 0 && mcu%d.restart == 0 {
				if err := d.restartMarker(sr); err != nil {
					return nil, err
				}
			}
			for _, c := range d.comps {
				for by := 0; by < c.v; by++ {
					for bx := 0; bx < c.h; bx++ {
						if err := d.decodeBlock(sr, c, (my*c.v+by)*8, (mx*c.h+bx)*8); err != nil {
							return nil, err
						}
					}
				}
			}
			mcu++
		}
	}
	return d.assemble(), nil
}

// restartMarker consumes an RSTn marker and resets entropy state.
func (d *refDecoder) restartMarker(sr *refScanReader) error {
	// Discard bits to byte boundary; the marker may already have been
	// latched by fill, otherwise it follows immediately.
	sr.nAcc = 0
	if sr.marker == 0 {
		if sr.pos+2 > len(sr.src) || sr.src[sr.pos] != 0xff {
			return fmt.Errorf("%w: missing restart marker", ErrFormat)
		}
		sr.marker = sr.src[sr.pos+1]
		sr.pos += 2
	}
	if sr.marker < 0xd0 || sr.marker > 0xd7 {
		return fmt.Errorf("%w: expected RSTn, got ff%02x", ErrFormat, sr.marker)
	}
	sr.marker = 0
	for _, c := range d.comps {
		c.dcPred = 0
	}
	return nil
}

// decodeBlock entropy-decodes one 8x8 block of refComponent c and stores
// the spatial result at (px,py) of its plane.
func (d *refDecoder) decodeBlock(sr *refScanReader, c *refComponent, py, px int) error {
	dcH := d.huffDC[c.dcTab]
	acH := d.huffAC[c.acTab]
	if dcH == nil || acH == nil {
		return fmt.Errorf("%w: missing Huffman table", ErrFormat)
	}
	q := &d.quant[c.quant]

	var zz [64]int32
	s, err := sr.decodeSym(dcH)
	if err != nil {
		return err
	}
	if s > 11 {
		return fmt.Errorf("%w: DC size %d", ErrFormat, s)
	}
	amp, err := sr.bits(s)
	if err != nil {
		return err
	}
	c.dcPred += extend(amp, s)
	zz[0] = c.dcPred

	for k := 1; k < 64; {
		sym, err := sr.decodeSym(acH)
		if err != nil {
			return err
		}
		run := int(sym >> 4)
		size := sym & 0xf
		if size == 0 {
			if run == 15 { // ZRL
				k += 16
				continue
			}
			break // EOB
		}
		k += run
		if k > 63 {
			return fmt.Errorf("%w: AC index %d", ErrFormat, k)
		}
		amp, err := sr.bits(size)
		if err != nil {
			return err
		}
		zz[k] = extend(amp, size)
		k++
	}

	var blk [64]float64
	for z := 0; z < 64; z++ {
		blk[zigzag[z]] = float64(zz[z] * q[zigzag[z]])
	}
	idct2dAccurate(&blk)
	for y := 0; y < 8; y++ {
		row := (py+y)*c.stride + px
		for x := 0; x < 8; x++ {
			c.plane[row+x] = clampByte(int(blk[y*8+x] + 128.5))
		}
	}
	return nil
}

// assemble upsamples chroma and converts to RGB.
func (d *refDecoder) assemble() *img.Frame {
	f := img.NewFrame(d.w, d.h)
	if len(d.comps) == 1 {
		c := d.comps[0]
		for y := 0; y < d.h; y++ {
			for x := 0; x < d.w; x++ {
				v := c.plane[y*c.stride+x]
				f.Set(x, y, v, v, v)
			}
		}
		return f
	}
	cy, ccb, ccr := d.comps[0], d.comps[1], d.comps[2]
	for y := 0; y < d.h; y++ {
		for x := 0; x < d.w; x++ {
			Y := float64(refSample(cy, x, y, d.maxH, d.maxV))
			Cb := float64(refSample(ccb, x, y, d.maxH, d.maxV)) - 128
			Cr := float64(refSample(ccr, x, y, d.maxH, d.maxV)) - 128
			r := Y + float64(1.402*Cr)
			g := Y - float64(0.344136*Cb) - float64(0.714136*Cr)
			b := Y + float64(1.772*Cb)
			f.Set(x, y, clampByte(int(r+0.5)), clampByte(int(g+0.5)), clampByte(int(b+0.5)))
		}
	}
	return f
}

// sample reads refComponent c at full-resolution pixel (x,y) with box
// (nearest) upsampling.
func refSample(c *refComponent, x, y, maxH, maxV int) byte {
	sx := x * c.h / maxH
	sy := y * c.v / maxV
	return c.plane[sy*c.stride+sx]
}

// idct2dAccurate computes the accurate float inverse DCT: coefficients
// in, spatial samples out.
func idct2dAccurate(b *[64]float64) {
	var tmp [64]float64
	// Columns.
	for u := 0; u < 8; u++ {
		for y := 0; y < 8; y++ {
			var s float64
			for v := 0; v < 8; v++ {
				s += cosTab[v][y] * b[v*8+u]
			}
			tmp[y*8+u] = s
		}
	}
	// Rows.
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			var s float64
			for u := 0; u < 8; u++ {
				s += cosTab[u][x] * tmp[y*8+u]
			}
			b[y*8+x] = s
		}
	}
}
