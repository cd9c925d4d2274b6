package jpegc

import "repro/internal/img"

// Codec adapts the JPEG implementation to compress.FrameCodec.
type Codec struct {
	// Quality in 1..100; 0 means the default of 75.
	Quality int
}

// Name implements compress.FrameCodec.
func (Codec) Name() string { return "jpeg" }

// Lossless implements compress.FrameCodec.
func (Codec) Lossless() bool { return false }

// EncodeFrame implements compress.FrameCodec.
func (c Codec) EncodeFrame(f *img.Frame) ([]byte, error) {
	q := c.Quality
	if q == 0 {
		q = 75
	}
	return Encode(f, q)
}

// DecodeFrame implements compress.FrameCodec.
func (Codec) DecodeFrame(data []byte) (*img.Frame, error) {
	return Decode(data)
}
