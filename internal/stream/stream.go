// Package stream is the adaptive streaming subsystem of the display
// daemon: it turns the daemon from a fixed-quality relay into a stream
// broker that serves many concurrent viewers over heterogeneous links.
//
// Three mechanisms cooperate, per client:
//
//   - an EWMA bandwidth/RTT Estimator observes how long each frame
//     takes to push through the (possibly WAN-shaped) connection and
//     how long the display's receive acks take to come back;
//   - a Controller picks the codec and JPEG quality (an operating
//     Point on a quality Ladder) that the estimated link can carry
//     within the target inter-frame delay, with hysteresis so the
//     quality does not flap;
//   - a Pacer bounds the per-client frame backlog, dropping the
//     oldest queued frame so a slow client always receives the newest
//     frame and never stalls the renderer.
//
// Across clients, an EncodeCache keyed by (frameID, codec, quality)
// makes N viewers at the same operating point cost one encode — the
// network-data-cache idea of Bethel et al. applied to the encode
// stage. The Broker ties it together: it speaks the transport
// package's wire protocol, accepts renderer and display connections,
// decodes incoming frames once, and runs one adaptive session per
// display.
package stream

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/compress"
	"repro/internal/compress/bzp"
	"repro/internal/compress/jls"
	"repro/internal/compress/jpegc"
	"repro/internal/compress/lzo"
	"repro/internal/compress/prog"
	"repro/internal/guard"
)

// Point is one encode operating point: a codec family plus its
// family-specific tuning (JPEG quality, jls error bound, prog
// truncation pass). It is the unit the Controller selects and the
// EncodeCache keys on.
type Point struct {
	// Codec is a registered codec family name (raw, lzo, bzip, jpeg,
	// jpeg+lzo, jpeg+bzip, jls, prog).
	Codec string
	// Quality is the JPEG quality in 1..100; ignored by non-JPEG
	// families.
	Quality int
	// Near is the jls per-pixel error bound (0 = lossless); ignored
	// by other families.
	Near int
	// Passes, for the prog family, truncates the stream after that
	// many refinement passes (0 = full stream). It is part of the
	// cache key: a preview-only entry and a full-frame entry for the
	// same frame are different bytes.
	Passes int
}

// String renders the point for tables and cache keys. Every field
// that changes the encoded bytes must be visible here — the encode
// cache keys on this string.
func (p Point) String() string {
	switch {
	case p.Quality > 0 && strings.HasPrefix(p.Codec, "jpeg"):
		return fmt.Sprintf("%s@q%d", p.Codec, p.Quality)
	case p.Codec == "jls" && p.Near > 0:
		return fmt.Sprintf("%s@n%d", p.Codec, p.Near)
	case p.Codec == "prog" && p.Passes > 0:
		return fmt.Sprintf("%s@p%d", p.Codec, p.Passes)
	}
	return p.Codec
}

// Family returns the codec family name that travels on the wire (the
// decoder resolves it through the compress registry; JPEG quality is
// self-describing in the bitstream).
func (p Point) Family() string { return p.Codec }

// FrameCodec constructs the quality-parameterized codec for the point.
func (p Point) FrameCodec() (compress.FrameCodec, error) {
	q := p.Quality
	switch p.Codec {
	case "jpeg":
		return compress.Instrument(jpegc.Codec{Quality: q}), nil
	case "jpeg+lzo":
		return compress.Instrument(compress.Chain{F: jpegc.Codec{Quality: q}, B: lzo.Codec{}}), nil
	case "jpeg+bzip":
		return compress.Instrument(compress.Chain{F: jpegc.Codec{Quality: q}, B: bzp.Codec{}}), nil
	case "jls":
		return compress.Instrument(jls.Codec{Near: p.Near}), nil
	case "prog":
		return compress.Instrument(prog.Codec{Passes: p.Passes}), nil
	}
	return compress.ByName(p.Codec)
}

// DefaultLadder returns the broker's operating points, best quality
// first. The top rung is lossless jls (better ratio than LZO at a
// fraction of BZIP's CPU); the middle interleaves the paper's
// two-phase JPEG+LZO with near-lossless jls bounds; the bottom rungs
// are progressive-wavelet truncations — the floor ships only the
// preview pass, so even the RWCP (Japan) to UC Davis path gets a
// usable frame in under a second and refines when capacity allows.
func DefaultLadder() []Point {
	return []Point{
		{Codec: "jls"},
		{Codec: "jpeg+lzo", Quality: 85},
		{Codec: "jpeg+lzo", Quality: 75},
		{Codec: "jls", Near: 2},
		{Codec: "jpeg+lzo", Quality: 60},
		{Codec: "jls", Near: 4},
		{Codec: "jpeg", Quality: 45},
		{Codec: "jpeg", Quality: 30},
		{Codec: "prog", Passes: 3},
		{Codec: "prog", Passes: 2},
		{Codec: "prog", Passes: 1},
	}
}

// Config parameterizes a Broker.
type Config struct {
	// Target is the per-client target inter-frame delay the controller
	// aims for (default 200ms, i.e. 5 fps).
	Target time.Duration
	// Ladder is the ordered set of operating points, best quality
	// first (default DefaultLadder).
	Ladder []Point
	// QueueDepth bounds the per-client pacer queue (default 3).
	QueueDepth int
	// CacheFrames bounds the encode cache to this many distinct frame
	// IDs (default 4).
	CacheFrames int
	// DisableCache encodes per client per frame — the baseline the
	// fan-out cache is measured against.
	DisableCache bool
	// FixedPoint, when non-nil, disables adaptation and serves every
	// client at this operating point — the fixed-quality baseline.
	FixedPoint *Point
	// Alpha is the EWMA smoothing factor in (0,1] (default 0.3).
	Alpha float64
	// UpHold is how many consecutive picks must favor a better rung
	// before the controller upgrades (default 3); downgrades are
	// immediate.
	UpHold int
	// Guard, when set, attaches the broker to a process-wide resource
	// governor: decoded frames in flight, pacer queues, and the encode
	// cache charge byte accounts against its budget; new display
	// connections pass admission control (rejected with MsgBusy over
	// budget); and under pressure the broker walks the degradation
	// ladder — quality floor, narrowed pacers, paused cache fills,
	// shedding the newest non-relay clients. nil = unguarded.
	Guard *guard.Governor
	// Logf receives diagnostics; nil silences them. It routes the
	// broker's obs.Logger.
	Logf func(format string, args ...any)
}

// withDefaults fills the zero values.
func (c Config) withDefaults() Config {
	if c.Target <= 0 {
		c.Target = 200 * time.Millisecond
	}
	if len(c.Ladder) == 0 {
		c.Ladder = DefaultLadder()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 3
	}
	if c.CacheFrames <= 0 {
		c.CacheFrames = 4
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.UpHold <= 0 {
		c.UpHold = 3
	}
	return c
}
