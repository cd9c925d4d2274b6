// Package wan shapes network connections to wide-area-link profiles:
// a one-way propagation delay plus a token-bucket bandwidth limit
// wrapped around any net.Conn. It stands in for the real links of the
// paper's evaluation — the NASA Ames ↔ UC Davis path (~120 miles) and
// the RWCP (Japan) ↔ UC Davis path — so the transport experiments run
// against loopback TCP with realistic timing.
package wan

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Profile describes a link.
type Profile struct {
	// Name labels the link in reports.
	Name string
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Bandwidth in bytes per second (0 = unlimited).
	Bandwidth float64
	// Burst is the token-bucket depth in bytes; 0 defaults to 64 KiB.
	Burst float64
}

// TransferTime returns the modelled time to push n bytes through the
// link: serialization at the bandwidth plus one propagation delay.
// Used by the discrete-event simulator; the shaped Conn produces the
// same behaviour on real sockets.
func (p Profile) TransferTime(n int) time.Duration {
	d := p.Latency
	if p.Bandwidth > 0 {
		d += time.Duration(float64(n) / p.Bandwidth * float64(time.Second))
	}
	return d
}

// Link profiles calibrated to the paper's observed rates.
//
// NASAUCD: Table 2 reports 0.5 fps for raw 256x256 frames (196,608
// bytes) and 0.03 fps at 1024x1024 (3.1 MB) over X, i.e. ~90 KB/s
// effective throughput on the late-90s research link; Figure 8's
// ~35 s X transfer of a 1024x1024 frame matches the same rate.
//
// JapanUCD: Figure 11 reports X transfers taking about twice the
// NASA–UCD times, with trans-Pacific latency.
func NASAUCD() Profile {
	return Profile{Name: "nasa-ucd", Latency: 15 * time.Millisecond, Bandwidth: 90e3, Burst: 4 << 10}
}

// JapanUCD returns the RWCP (Japan) to UC Davis link profile.
func JapanUCD() Profile {
	return Profile{Name: "japan-ucd", Latency: 60 * time.Millisecond, Bandwidth: 45e3, Burst: 4 << 10}
}

// LAN returns the fast local network between the storage device and
// the parallel machine.
func LAN() Profile {
	return Profile{Name: "lan", Latency: 200 * time.Microsecond, Bandwidth: 10e6}
}

// Unlimited returns an unshaped profile.
func Unlimited() Profile { return Profile{Name: "unlimited"} }

// ByName looks up a built-in profile.
func ByName(name string) (Profile, error) {
	switch name {
	case "nasa-ucd":
		return NASAUCD(), nil
	case "japan-ucd":
		return JapanUCD(), nil
	case "lan":
		return LAN(), nil
	case "unlimited", "":
		return Unlimited(), nil
	}
	return Profile{}, fmt.Errorf("wan: unknown link profile %q", name)
}

// bucket is a shared token bucket; several connections draining one
// bucket model flows sharing a single physical link.
type bucket struct {
	prof Profile

	mu     sync.Mutex
	tokens float64
	last   time.Time
	// lastWrite tracks write activity so propagation delay is charged
	// per burst rather than per call.
	lastWrite time.Time
}

func newBucket(p Profile) *bucket {
	return &bucket{prof: p, tokens: p.burst(), last: time.Now()}
}

// Conn shapes writes on an underlying net.Conn to a profile. Reads
// pass through (the peer's writes are shaped on their side; for
// loopback experiments wrap both ends, or one end for an asymmetric
// study). Writes block to model serialization delay; the propagation
// delay is charged once per write burst.
type Conn struct {
	net.Conn
	bk *bucket
}

// Shape wraps c with the profile's bandwidth and latency (a private
// bucket; use Shared to make several connections contend for one
// link).
func Shape(c net.Conn, p Profile) *Conn {
	return &Conn{Conn: c, bk: newBucket(p)}
}

// Shared is one modelled physical link that any number of connections
// share: every wrapped connection drains the same token bucket, so k
// concurrent flows each see ~1/k of the bandwidth — the situation of
// the paper's compute nodes all sending sub-images over one wide-area
// path.
type Shared struct{ bk *bucket }

// NewShared builds a shared link.
func NewShared(p Profile) *Shared { return &Shared{bk: newBucket(p)} }

// Wrap attaches a connection to the shared link.
func (s *Shared) Wrap(c net.Conn) net.Conn { return &Conn{Conn: c, bk: s.bk} }

func (p Profile) burst() float64 {
	if p.Burst > 0 {
		return p.Burst
	}
	return 64 << 10
}

// Write implements net.Conn with token-bucket pacing.
func (c *Conn) Write(b []byte) (int, error) {
	bk := c.bk
	if bk.prof.Bandwidth <= 0 && bk.prof.Latency <= 0 {
		return c.Conn.Write(b)
	}
	bk.mu.Lock()
	now := time.Now()
	// Propagation delay once per burst: if the link has been idle
	// longer than the latency, charge it again.
	if bk.prof.Latency > 0 && now.Sub(bk.lastWrite) > bk.prof.Latency {
		bk.mu.Unlock()
		time.Sleep(bk.prof.Latency)
		bk.mu.Lock()
		now = time.Now()
	}
	bk.lastWrite = now
	written := 0
	for written < len(b) {
		chunk := len(b) - written
		if max := int(bk.prof.burst()); chunk > max {
			chunk = max
		}
		if bk.prof.Bandwidth > 0 {
			for {
				now = time.Now()
				bk.tokens += now.Sub(bk.last).Seconds() * bk.prof.Bandwidth
				bk.last = now
				if bk.tokens > bk.prof.burst() {
					bk.tokens = bk.prof.burst()
				}
				if bk.tokens >= float64(chunk) {
					bk.tokens -= float64(chunk)
					break
				}
				need := (float64(chunk) - bk.tokens) / bk.prof.Bandwidth
				bk.mu.Unlock()
				time.Sleep(time.Duration(need * float64(time.Second)))
				bk.mu.Lock()
			}
		}
		n, err := c.Conn.Write(b[written : written+chunk])
		written += n
		if err != nil {
			bk.mu.Unlock()
			return written, err
		}
	}
	bk.lastWrite = time.Now()
	bk.mu.Unlock()
	return written, nil
}

// take blocks until n tokens accumulate, charging the propagation
// delay once per idle burst — the read-side counterpart of Write's
// pacing loop.
func (bk *bucket) take(n int) {
	bk.mu.Lock()
	now := time.Now()
	if bk.prof.Latency > 0 && now.Sub(bk.lastWrite) > bk.prof.Latency {
		bk.mu.Unlock()
		time.Sleep(bk.prof.Latency)
		bk.mu.Lock()
	}
	bk.lastWrite = time.Now()
	if bk.prof.Bandwidth > 0 {
		remaining := float64(n)
		for remaining > 0 {
			now = time.Now()
			bk.tokens += now.Sub(bk.last).Seconds() * bk.prof.Bandwidth
			bk.last = now
			if bk.tokens > bk.prof.burst() {
				bk.tokens = bk.prof.burst()
			}
			if bk.tokens >= remaining {
				bk.tokens -= remaining
				break
			}
			remaining -= bk.tokens
			bk.tokens = 0
			need := remaining / bk.prof.Bandwidth
			if max := bk.prof.burst() / bk.prof.Bandwidth; need > max {
				need = max
			}
			bk.mu.Unlock()
			time.Sleep(time.Duration(need * float64(time.Second)))
			bk.mu.Lock()
		}
	}
	bk.lastWrite = time.Now()
	bk.mu.Unlock()
}

// readConn shapes reads; see ShapeReads.
type readConn struct {
	net.Conn
	bk *bucket
}

// Read drains the token bucket for every byte delivered.
func (c *readConn) Read(b []byte) (int, error) {
	bk := c.bk
	// Cap each read at the burst so pacing applies per chunk rather
	// than after one huge buffered read.
	if max := int(bk.prof.burst()); bk.prof.Bandwidth > 0 && len(b) > max {
		b = b[:max]
	}
	n, err := c.Conn.Read(b)
	if n > 0 && (bk.prof.Bandwidth > 0 || bk.prof.Latency > 0) {
		bk.take(n)
	}
	return n, err
}

// ShapeReads wraps c so its reads are paced to the profile — emulating
// a slow downlink from the receiving side. Once kernel socket buffers
// fill, TCP backpressure stalls the remote writer, so the peer
// observes the modelled bandwidth without cooperating; the display
// client uses this to join an adaptive daemon over an emulated WAN
// profile.
func ShapeReads(c net.Conn, p Profile) net.Conn {
	return &readConn{Conn: c, bk: newBucket(p)}
}
