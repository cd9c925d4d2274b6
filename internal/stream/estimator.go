package stream

import (
	"sync"
	"time"
)

// Estimator tracks one client's link with exponentially weighted
// moving averages. Bandwidth comes from observed send times on the
// (WAN-shaped) connection — the shaped writer blocks for the modelled
// serialization delay, so wall-clock write time is the signal — and
// RTT comes from the display's receive acks.
type Estimator struct {
	mu    sync.Mutex
	alpha float64

	bw        float64 // bytes per second
	bwSamples int
	rtt       time.Duration
	minRTT    time.Duration
	rttOK     bool
}

// NewEstimator returns an estimator with the given EWMA smoothing
// factor (clamped into (0,1]).
func NewEstimator(alpha float64) *Estimator {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	return &Estimator{alpha: alpha}
}

// Observe records one send: n bytes took d of wall clock to write.
// Sub-microsecond or empty sends are ignored (loopback noise).
func (e *Estimator) Observe(n int, d time.Duration) {
	if n <= 0 || d <= 0 {
		return
	}
	inst := float64(n) / d.Seconds()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.bwSamples == 0 {
		e.bw = inst
	} else {
		e.bw = e.alpha*inst + (1-e.alpha)*e.bw
	}
	e.bwSamples++
}

// ObserveRTT records one ack round trip.
func (e *Estimator) ObserveRTT(d time.Duration) {
	if d <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.rttOK {
		e.rtt = d
		e.minRTT = d
		e.rttOK = true
		return
	}
	e.rtt = time.Duration(e.alpha*float64(d) + (1-e.alpha)*float64(e.rtt))
	if d < e.minRTT {
		e.minRTT = d
	}
}

// Bandwidth returns the smoothed estimate in bytes per second (0 until
// the first observation).
func (e *Estimator) Bandwidth() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.bw
}

// Samples reports how many sends have been observed.
func (e *Estimator) Samples() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.bwSamples
}

// RTT returns the smoothed round-trip estimate (0 until the first
// ack).
func (e *Estimator) RTT() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rtt
}

// MinRTT returns the smallest round trip seen (0 until the first ack).
func (e *Estimator) MinRTT() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.minRTT
}
