package jpegc

import (
	"errors"
	"fmt"

	"repro/internal/img"
)

// ErrFormat reports a malformed or unsupported JPEG stream.
var ErrFormat = errors.New("jpegc: invalid or unsupported JPEG")

// decHuff is a Huffman decoding table built from a DHT segment.
type decHuff struct {
	firstCode [17]int32 // first code of each length
	firstVal  [17]int32 // index into vals of first symbol of each length
	maxCode   [17]int32 // last code of each length (-1 if none)
	// look maps the next 8 bits of the scan to sym<<8 | len for codes of
	// up to 8 bits; 0 means the code is longer and decodeSym walks it.
	look [256]uint16
	vals []byte // aliases the DHT segment in the source
	set  bool   // a DHT defined this table
}

// build fills h from a DHT's counts and values.
func (h *decHuff) build(counts [16]byte, vals []byte) {
	*h = decHuff{vals: vals, set: true}
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
		// A table may list more codes than l bits can spell; the walk
		// never reaches those.
		for c := code; l <= 8 && c < code+n && c < 1<<l; c++ {
			e := uint16(vals[idx+c-code])<<8 | uint16(l)
			for p := c << (8 - l); p < (c+1)<<(8-l); p++ {
				h.look[p] = e
			}
		}
		code = (code + n) << 1
		idx += n
	}
}

// scanReader reads entropy-coded bits, unstuffing 0xFF00 and stopping
// at markers.
type scanReader struct {
	src    []byte
	pos    int
	acc    uint32
	nAcc   uint
	marker byte // pending marker (0 if none)
	// widths holds, two bits each and newest lowest, how many source
	// bytes each of the last four fills consumed, so align can give
	// back the ones prefetch pulled in early.
	widths uint8
}

// fill pulls one more byte into the accumulator; a failed fill leaves
// the reader as it was.
func (r *scanReader) fill() error {
	if r.marker != 0 {
		return fmt.Errorf("%w: read past marker ff%02x", ErrFormat, r.marker)
	}
	if r.pos >= len(r.src) {
		return fmt.Errorf("%w: truncated scan", ErrFormat)
	}
	b := r.src[r.pos]
	if b != 0xff {
		r.pos++
		r.widths = r.widths<<2 | 1
		r.acc = r.acc<<8 | uint32(b)
		r.nAcc += 8
		return nil
	}
	if r.pos+1 >= len(r.src) {
		return fmt.Errorf("%w: truncated marker", ErrFormat)
	}
	// A stuffed ff00 is a data byte; anything else is a marker, which
	// reads as padding until the caller notices it.
	if nxt := r.src[r.pos+1]; nxt != 0x00 {
		r.marker = nxt
	}
	r.pos += 2
	r.widths = r.widths<<2 | 2
	r.acc = r.acc<<8 | 0xff
	r.nAcc += 8
	return nil
}

// prefetch tops the accumulator up so the table lookups have bits to
// look at. It stops at a latched marker or the end of the data and never
// fails: whatever the source cannot supply is asked for again, and
// refused, by the bit that needs it.
func (r *scanReader) prefetch() {
	for r.nAcc <= 24 && r.marker == 0 && r.fill() == nil {
	}
}

// align discards the bits left in the current byte and gives back the
// whole bytes prefetch read beyond it, leaving pos and marker where a
// reader that fetched a byte only on needing a bit from it would be.
func (r *scanReader) align() {
	if r.nAcc >= 8 {
		r.marker = 0 // latched by the last fill, which is given back
		for n := r.nAcc / 8; n > 0; n-- {
			r.pos -= int(r.widths & 3)
			r.widths >>= 2
		}
	}
	r.nAcc = 0
}

func (r *scanReader) bit() (uint32, error) {
	if r.nAcc == 0 {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	r.nAcc--
	return (r.acc >> r.nAcc) & 1, nil
}

func (r *scanReader) bits(n byte) (int32, error) {
	if r.nAcc < uint(n) {
		r.prefetch()
	}
	if r.nAcc >= uint(n) {
		r.nAcc -= uint(n)
		return int32(r.acc>>r.nAcc) & (1<<n - 1), nil
	}
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
func (r *scanReader) decodeSym(h *decHuff) (byte, error) {
	if r.nAcc < 8 {
		r.prefetch()
	}
	if r.nAcc >= 8 {
		if e := h.look[byte(r.acc>>(r.nAcc-8))]; e != 0 {
			r.nAcc -= uint(e & 0xff)
			return byte(e >> 8), nil
		}
	}
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

// extend converts an amplitude code of the given size to a value.
func extend(v int32, size byte) int32 {
	if size == 0 {
		return 0
	}
	if v < 1<<(size-1) {
		return v - (1 << size) + 1
	}
	return v
}

// component is one color plane of the frame being decoded.
type component struct {
	id     byte
	h, v   int // sampling factors
	quant  byte
	dcTab  byte
	acTab  byte
	dcPred int32
	// plane holds the component's samples for the MCU row being
	// decoded: stride x 8v, at (W/maxH*h) resolution padded to whole
	// MCUs. flat[by*stride/8+bx] reports that block (bx,by) of the row
	// had no AC coefficient, so all 64 of its samples are equal.
	plane  []byte
	flat   []bool
	stride int
}

// Decode parses a baseline JPEG into an RGB frame.
func Decode(data []byte) (*img.Frame, error) {
	d := decoder{src: data}
	return d.decode()
}

type decoder struct {
	src []byte
	pos int

	quant   [4][64]int32 // natural order
	huffDC  [4]decHuff
	huffAC  [4]decHuff
	w, h    int
	comps   [3]component
	nComps  int
	maxH    int
	maxV    int
	restart int // restart interval in MCUs (0 = none)
}

func (d *decoder) u8() (byte, error) {
	if d.pos >= len(d.src) {
		return 0, fmt.Errorf("%w: truncated", ErrFormat)
	}
	b := d.src[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) u16() (int, error) {
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

func (d *decoder) segment() ([]byte, error) {
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

func (d *decoder) decode() (*img.Frame, error) {
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

func (d *decoder) parseDQT() error {
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

func (d *decoder) parseDHT() error {
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
		h := &d.huffDC[id]
		if class == 1 {
			h = &d.huffAC[id]
		}
		h.build(counts, seg[17:17+total])
		seg = seg[17+total:]
	}
	return nil
}

func (d *decoder) parseSOF() error {
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
		return fmt.Errorf("%w: %d components", ErrFormat, nc)
	}
	if len(seg) < 6+3*nc {
		return fmt.Errorf("%w: short SOF components", ErrFormat)
	}
	d.nComps = 0
	d.maxH, d.maxV = 1, 1
	for i := 0; i < nc; i++ {
		c := component{
			id:    seg[6+3*i],
			h:     int(seg[7+3*i] >> 4),
			v:     int(seg[7+3*i] & 0xf),
			quant: seg[8+3*i],
		}
		if c.h < 1 || c.h > 4 || c.v < 1 || c.v > 4 || c.quant > 3 {
			return fmt.Errorf("%w: component %d sampling %dx%d quant %d", ErrFormat, i, c.h, c.v, c.quant)
		}
		if c.h > d.maxH {
			d.maxH = c.h
		}
		if c.v > d.maxV {
			d.maxV = c.v
		}
		d.comps[i] = c
	}
	d.nComps = nc
	return nil
}

func (d *decoder) parseScan() (*img.Frame, error) {
	if d.nComps == 0 {
		return nil, fmt.Errorf("%w: SOS before SOF", ErrFormat)
	}
	seg, err := d.segment()
	if err != nil {
		return nil, err
	}
	if len(seg) < 1 {
		return nil, fmt.Errorf("%w: empty SOS", ErrFormat)
	}
	comps := d.comps[:d.nComps]
	ns := int(seg[0])
	if ns != len(comps) {
		return nil, fmt.Errorf("%w: scan has %d of %d components (non-interleaved scans unsupported)", ErrFormat, ns, len(comps))
	}
	if len(seg) < 1+2*ns+3 {
		return nil, fmt.Errorf("%w: short SOS", ErrFormat)
	}
	for i := 0; i < ns; i++ {
		id := seg[1+2*i]
		tabs := seg[2+2*i]
		found := false
		for j := range comps {
			if c := &comps[j]; c.id == id {
				c.dcTab = tabs >> 4
				c.acTab = tabs & 0xf
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: scan references unknown component %d", ErrFormat, id)
		}
	}

	mcuW := 8 * d.maxH
	mcuH := 8 * d.maxV
	mcusX := (d.w + mcuW - 1) / mcuW
	mcusY := (d.h + mcuH - 1) / mcuH
	blocksPerMCU, planeLen := 0, 0
	for i := range comps {
		c := &comps[i]
		if c.dcTab > 3 || c.acTab > 3 || !d.huffDC[c.dcTab].set || !d.huffAC[c.acTab].set {
			return nil, fmt.Errorf("%w: missing Huffman table", ErrFormat)
		}
		c.stride = mcusX * 8 * c.h
		planeLen += c.stride * 8 * c.v
		blocksPerMCU += c.h * c.v
	}
	// The header sizes every allocation below, so hold it against the
	// data first: a block costs at least a DC and an AC code of one bit
	// each, and a scan too short for its blocks can only fail.
	if int64(len(d.src)-d.pos)*8 < 2*int64(mcusX)*int64(mcusY)*int64(blocksPerMCU) {
		return nil, fmt.Errorf("%w: %d bytes of scan for a %dx%d image", ErrFormat, len(d.src)-d.pos, d.w, d.h)
	}
	planes := make([]byte, planeLen)
	flats := make([]bool, mcusX*blocksPerMCU)
	for i := range comps {
		c := &comps[i]
		n := c.stride * 8 * c.v
		c.plane, planes = planes[:n:n], planes[n:]
		n = mcusX * c.h * c.v
		c.flat, flats = flats[:n:n], flats[n:]
	}
	f := img.NewFrame(d.w, d.h)

	sr := scanReader{src: d.src, pos: d.pos}
	mcu := 0
	for my := 0; my < mcusY; my++ {
		for mx := 0; mx < mcusX; mx++ {
			if d.restart > 0 && mcu > 0 && mcu%d.restart == 0 {
				if err := d.restartMarker(&sr); err != nil {
					return nil, err
				}
			}
			for i := range comps {
				c := &comps[i]
				for by := 0; by < c.v; by++ {
					for bx := 0; bx < c.h; bx++ {
						if err := d.decodeBlock(&sr, c, by, mx*c.h+bx); err != nil {
							return nil, err
						}
					}
				}
			}
			mcu++
		}
		d.convertBand(f, my*mcuH, min(my*mcuH+mcuH, d.h))
	}
	return f, nil
}

// restartMarker consumes an RSTn marker and resets entropy state.
func (d *decoder) restartMarker(sr *scanReader) error {
	// Discard bits to byte boundary; the marker may already have been
	// latched by fill, otherwise it follows immediately.
	sr.align()
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
	for i := range d.comps {
		d.comps[i].dcPred = 0
	}
	return nil
}

// decodeBlock entropy-decodes block (bx,by) of component c's current
// MCU row and stores its samples in the band plane. What it costs
// follows what the block holds: a block with no AC coefficient is one
// value, and the inverse DCT of any other visits only the coefficients
// that were coded.
func (d *decoder) decodeBlock(sr *scanReader, c *component, by, bx int) error {
	q := &d.quant[c.quant]

	s, err := sr.decodeSym(&d.huffDC[c.dcTab])
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

	var blk [64]float64 // dequantized, natural order
	blk[0] = float64(c.dcPred * q[0])
	colMask := uint8(1) // columns holding a coded coefficient
	flat := true        // no AC coefficient coded
	acH := &d.huffAC[c.acTab]
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
		n := zigzag[k]
		blk[n] = float64(extend(amp, size) * q[n])
		colMask |= 1 << (n & 7)
		flat = false
		k++
	}

	dst := c.plane[by*8*c.stride+bx*8:]
	c.flat[by*(c.stride/8)+bx] = flat
	if flat {
		// Both passes of the inverse DCT reduce to the DC term times
		// cosTab[0][x], which is the same for every x.
		v := clampByte(int(cosTab[0][0]*(cosTab[0][0]*blk[0]) + 128.5))
		for y := 0; y < 8; y++ {
			row := dst[y*c.stride:][:8]
			for x := range row {
				row[x] = v
			}
		}
		return nil
	}
	idct2dSparse(&blk, colMask)
	for y := 0; y < 8; y++ {
		row := dst[y*c.stride:][:8]
		for x := range row {
			row[x] = clampByte(int(blk[y*8+x] + 128.5))
		}
	}
	return nil
}

func clampByte(v int) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// Chroma contributions to R, G and B by sample value, filled once in
// init: the products the per-pixel conversion would otherwise form.
var crR, cbG, crG, cbB [256]float64

func init() {
	for i := range crR {
		c := float64(i) - 128
		crR[i] = 1.402 * c
		cbG[i] = 0.344136 * c
		crG[i] = 0.714136 * c
		cbB[i] = 1.772 * c
	}
}

// rgb converts one JFIF full-range YCbCr sample. Y arrives as a float
// to keep this within the inlining budget: it runs once per pixel.
func rgb(Y float64, cb, cr byte) (r, g, b byte) {
	return clampByte(int(Y + crR[cr] + 0.5)),
		clampByte(int(Y - cbG[cb] - crG[cr] + 0.5)),
		clampByte(int(Y + cbB[cb] + 0.5))
}

// convertBand upsamples chroma and converts the decoded MCU row, image
// rows y0 to y1, into f.
func (d *decoder) convertBand(f *img.Frame, y0, y1 int) {
	out := f.Pix[y0*d.w*3 : y1*d.w*3]
	cy, ccb, ccr := &d.comps[0], &d.comps[1], &d.comps[2]
	switch {
	case d.nComps == 1:
		for y := 0; y < y1-y0; y++ {
			for _, v := range cy.plane[y*cy.stride:][:d.w] {
				out[0], out[1], out[2] = v, v, v
				out = out[3:]
			}
		}
	case cy.h == d.maxH && cy.v == d.maxV && cy.h <= 2 && cy.v <= 2 &&
		ccb.h == 1 && ccb.v == 1 && ccr.h == 1 && ccr.v == 1:
		d.convertBlocks(out, y1-y0)
	default:
		for y := 0; y < y1-y0; y++ {
			for x := 0; x < d.w; x++ {
				out[0], out[1], out[2] = rgb(
					float64(sample(cy, x, y, d.maxH, d.maxV)),
					sample(ccb, x, y, d.maxH, d.maxV),
					sample(ccr, x, y, d.maxH, d.maxV))
				out = out[3:]
			}
		}
	}
}

// convertBlocks is convertBand for the layouts encoders emit: luma at
// full resolution, one or two blocks each way, over one chroma block
// per MCU (4:4:4, 4:2:2, 4:4:0, 4:2:0). It walks the band luma block by
// luma block so that a block flat in all three components — the
// background of a rendered frame — is converted once and filled.
func (d *decoder) convertBlocks(out []byte, rows int) {
	cy, ccb, ccr := &d.comps[0], &d.comps[1], &d.comps[2]
	hs, vs := uint(cy.h-1), uint(cy.v-1) // chroma = luma >> shift
	for y0 := 0; y0 < rows; y0 += 8 {
		y1 := min(y0+8, rows)
		for x0 := 0; x0 < d.w; x0 += 8 {
			n := min(8, d.w-x0)
			bx, mx := x0/8, x0/8>>hs
			if cy.flat[y0/8*(cy.stride/8)+bx] && ccb.flat[mx] && ccr.flat[mx] {
				var px [8 * 3]byte
				r, g, b := rgb(float64(cy.plane[y0*cy.stride+x0]), ccb.plane[mx*8], ccr.plane[mx*8])
				for i := 0; i < len(px); i += 3 {
					px[i], px[i+1], px[i+2] = r, g, b
				}
				for y := y0; y < y1; y++ {
					copy(out[(y*d.w+x0)*3:], px[:n*3])
				}
				continue
			}
			for y := y0; y < y1; y++ {
				cbRow := ccb.plane[int(uint(y)>>vs)*ccb.stride:]
				crRow := ccr.plane[int(uint(y)>>vs)*ccr.stride:]
				o := out[(y*d.w+x0)*3:][:n*3]
				for x, Y := range cy.plane[y*cy.stride+x0:][:n] {
					cx := uint(x0+x) >> hs
					o[3*x], o[3*x+1], o[3*x+2] = rgb(float64(Y), cbRow[cx], crRow[cx])
				}
			}
		}
	}
}

// sample reads component c at pixel (x,y) of the current MCU row — full
// resolution, y counted from the top of the band — with box (nearest)
// upsampling.
func sample(c *component, x, y, maxH, maxV int) byte {
	sx := x * c.h / maxH
	sy := y * c.v / maxV
	return c.plane[sy*c.stride+sx]
}
