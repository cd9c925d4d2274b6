package img

import (
	"sync"
	"sync/atomic"
)

// Buffer pools for the per-frame hot path. The renderer, compositor
// and encode path churn through one RGBA and one Frame per frame per
// node; recycling them turns the steady-state frame loop into a
// zero-allocation path. Pools are capacity-based rather than
// size-classed: a pooled buffer is reused whenever its capacity
// covers the request, which fits the pipeline's workload of a few
// fixed image sizes.

var (
	rgbaPool  sync.Pool // *RGBA
	framePool sync.Pool // *Frame

	poolHits   atomic.Int64
	poolMisses atomic.Int64
	poolPuts   atomic.Int64
)

// PoolStats is a snapshot of the image buffer pool counters.
type PoolStats struct {
	// Hits counts Get calls satisfied from the pool, Misses calls
	// that fell through to a fresh allocation, Puts returns.
	Hits, Misses, Puts int64
}

// Pools reports the image buffer pool counters; the observability
// layer bridges them to an allocation gauge.
func Pools() PoolStats {
	return PoolStats{
		Hits:   poolHits.Load(),
		Misses: poolMisses.Load(),
		Puts:   poolPuts.Load(),
	}
}

// GetRGBA returns a cleared w x h float image, reusing a pooled
// buffer when one with sufficient capacity is available. A drop-in
// replacement for NewRGBA on paths that PutRGBA when done.
func GetRGBA(w, h int) *RGBA {
	need := w * h * 4
	if im, ok := rgbaPool.Get().(*RGBA); ok && cap(im.Pix) >= need {
		poolHits.Add(1)
		im.W, im.H = w, h
		im.Pix = im.Pix[:need]
		clear(im.Pix)
		return im
	}
	poolMisses.Add(1)
	return NewRGBA(w, h)
}

// GetRGBARaw is GetRGBA without the clear: pixel contents are
// undefined. For callers that overwrite every pixel (sub-image
// copies, full-frame conversions) the memset would be pure memory
// traffic.
func GetRGBARaw(w, h int) *RGBA {
	need := w * h * 4
	if im, ok := rgbaPool.Get().(*RGBA); ok && cap(im.Pix) >= need {
		poolHits.Add(1)
		im.W, im.H = w, h
		im.Pix = im.Pix[:need]
		return im
	}
	poolMisses.Add(1)
	return NewRGBA(w, h)
}

// PutRGBA recycles an image obtained from GetRGBA (or NewRGBA). The
// caller must not touch im afterwards; nil is ignored.
func PutRGBA(im *RGBA) {
	if im == nil || cap(im.Pix) == 0 {
		return
	}
	poolPuts.Add(1)
	rgbaPool.Put(im)
}

// GetFrameRaw returns a w x h byte frame from the pool. Pixel
// contents are undefined, for callers that overwrite every pixel.
func GetFrameRaw(w, h int) *Frame {
	need := w * h * 3
	if f, ok := framePool.Get().(*Frame); ok && cap(f.Pix) >= need {
		poolHits.Add(1)
		f.W, f.H = w, h
		f.Pix = f.Pix[:need]
		return f
	}
	poolMisses.Add(1)
	return NewFrame(w, h)
}

// PutFrame recycles a frame obtained from GetFrameRaw (or NewFrame).
// The caller must not touch f afterwards; nil is ignored.
func PutFrame(f *Frame) {
	if f == nil || cap(f.Pix) == 0 {
		return
	}
	poolPuts.Add(1)
	framePool.Put(f)
}
