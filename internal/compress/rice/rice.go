// Package rice provides the bit-level entropy coding shared by the
// prediction codecs: an MSB-first bit writer/reader and Golomb-Rice
// coding of non-negative integers with the context-free adaptive
// parameter estimation of JPEG-LS (LOCO-I). Both the jls near-lossless
// codec and the prog progressive wavelet codec code their residuals
// through this package.
package rice

import (
	"errors"
	"math/bits"
)

// ErrTruncated reports a bit stream that ended mid-symbol.
var ErrTruncated = errors.New("rice: truncated bit stream")

// EscQuot is the unary-quotient escape threshold: a Rice symbol whose
// quotient would reach it is instead coded as EscQuot ones, a zero,
// and the raw 16-bit value. This bounds the damage a mistuned k (or an
// adversarial stream) can do to one symbol at 17+EscQuot bits.
const EscQuot = 47

// escBits is the width of the escaped raw value. Every value the
// prediction codecs emit fits: pixel residuals span [-255,255] and
// S-transform coefficients [-510,510], so mapped values stay < 1<<11.
const escBits = 16

// MapSigned folds a signed residual into the non-negative integers,
// interleaving positives and negatives (0,-1,1,-2,...) so small
// magnitudes of either sign get short codes.
func MapSigned(q int32) uint32 {
	if q >= 0 {
		return uint32(q) << 1
	}
	return uint32(-q)<<1 - 1
}

// UnmapSigned inverts MapSigned.
func UnmapSigned(m uint32) int32 {
	if m&1 == 0 {
		return int32(m >> 1)
	}
	return -int32(m+1) >> 1
}

// Model is the context-free adaptive Golomb parameter state of
// JPEG-LS: A accumulates mapped-residual magnitudes, N counts coded
// symbols, and K derives the Rice parameter as the smallest k with
// N<<k >= A. Periodic halving keeps the model tracking local
// statistics instead of the whole stream's history.
type Model struct {
	A, N uint32
}

// NewModel returns the JPEG-LS initial state (a small positive A so
// the first symbols are not coded at k=0 regardless of content).
func NewModel() Model { return Model{A: 4, N: 1} }

// K returns the current Rice parameter.
func (m *Model) K() uint {
	var k uint
	for k < 24 && m.N<<k < m.A {
		k++
	}
	return k
}

// Update folds one coded mapped value into the statistics.
func (m *Model) Update(mapped uint32) {
	m.A += mapped
	m.N++
	if m.N >= 64 {
		m.A >>= 1
		m.N >>= 1
	}
}

// Writer is an append-only MSB-first bit writer. The zero value is
// ready to use.
type Writer struct {
	buf []byte
	acc uint64
	n   uint // pending bits in acc, right-aligned
}

// Reset re-arms the writer for a fresh stream, reusing the backing
// array grown by earlier encodes.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc = 0
	w.n = 0
}

// WriteBits appends the low n bits of v, most significant first.
// n must be <= 57.
func (w *Writer) WriteBits(v uint64, n uint) {
	w.acc = w.acc<<n | v&(1<<n-1)
	w.n += n
	for w.n >= 8 {
		w.n -= 8
		w.buf = append(w.buf, byte(w.acc>>w.n))
	}
	w.acc &= 1<<w.n - 1
}

// writeOnes appends q one-bits.
func (w *Writer) writeOnes(q uint32) {
	for q >= 32 {
		w.WriteBits(1<<32-1, 32)
		q -= 32
	}
	w.WriteBits(1<<q-1, uint(q))
}

// WriteRice appends one Golomb-Rice symbol: quotient in unary (ones
// terminated by a zero) then k remainder bits, escaping to a raw
// 16-bit field when the quotient reaches EscQuot. mapped must be
// < 1<<16.
func (w *Writer) WriteRice(mapped uint32, k uint) {
	if q := mapped >> k; q < EscQuot {
		w.writeOnes(q)
		w.WriteBits(uint64(mapped)&(1<<k-1), k+1) // zero terminator, then k remainder bits
		return
	}
	w.writeOnes(EscQuot)
	w.WriteBits(uint64(mapped), escBits+1) // leading zero terminates the unary run, then the raw value
}

// Len reports the bytes a Finish call would currently return.
func (w *Writer) Len() int {
	return len(w.buf) + int(w.n+7)/8
}

// Finish zero-pads to a byte boundary and returns the encoded bytes.
// The writer must be Reset before reuse.
func (w *Writer) Finish() []byte {
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.acc<<(8-w.n)))
		w.acc, w.n = 0, 0
	}
	return w.buf
}

// Reader consumes an MSB-first bit stream.
type Reader struct {
	data []byte
	pos  int
	acc  uint64
	n    uint
}

// NewReader returns a reader over data. The reader does not copy data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// fill tops the accumulator up to at least want bits, or errors.
func (r *Reader) fill(want uint) error {
	for r.n < want {
		if r.pos >= len(r.data) {
			return ErrTruncated
		}
		r.acc = r.acc<<8 | uint64(r.data[r.pos])
		r.pos++
		r.n += 8
	}
	return nil
}

// ReadBits consumes n bits (n <= 57) and returns them right-aligned.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if err := r.fill(n); err != nil {
		return 0, err
	}
	r.n -= n
	v := r.acc >> r.n
	r.acc &= 1<<r.n - 1
	return v, nil
}

// readUnary counts leading ones up to max, consuming the terminating
// zero unless max is hit first.
func (r *Reader) readUnary(max uint32) (uint32, error) {
	var q uint32
	for {
		if r.n == 0 {
			if err := r.fill(1); err != nil {
				return 0, err
			}
		}
		avail := r.acc & (1<<r.n - 1)
		lead := uint(bits.LeadingZeros64(^(avail << (64 - r.n)))) // run of ones at the front
		if lead > r.n {
			lead = r.n
		}
		if q+uint32(lead) >= max {
			take := uint(max - q)
			r.n -= take
			r.acc &= 1<<r.n - 1
			return max, nil
		}
		q += uint32(lead)
		r.n -= lead
		r.acc &= 1<<r.n - 1
		if r.n > 0 { // a zero terminates the run
			r.n--
			r.acc &= 1<<r.n - 1
			return q, nil
		}
	}
}

// ReadRice consumes one symbol written by WriteRice with parameter k.
func (r *Reader) ReadRice(k uint) (uint32, error) {
	q, err := r.readUnary(EscQuot)
	if err != nil {
		return 0, err
	}
	if q == EscQuot {
		v, err := r.ReadBits(escBits + 1) // terminating zero + raw value
		if err != nil {
			return 0, err
		}
		return uint32(v & (1<<escBits - 1)), nil
	}
	rem, err := r.ReadBits(k)
	if err != nil {
		return 0, err
	}
	return q<<k | uint32(rem), nil
}
