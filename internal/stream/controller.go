package stream

import (
	"sync"
	"time"
)

// Controller picks the operating point for one client. Each frame it
// predicts, per ladder rung, how long the encoded frame would take on
// the estimated link (using a per-rung EWMA of encoded sizes) and
// selects the best rung that fits the target inter-frame delay.
// Downgrades apply immediately — a stalling client needs relief now —
// while upgrades require the better rung to fit for UpHold consecutive
// picks, so transient bandwidth spikes do not cause quality flapping.
type Controller struct {
	mu     sync.Mutex
	ladder []Point
	target time.Duration
	est    *Estimator
	alpha  float64
	upHold int

	sizes  map[string]float64 // EWMA encoded bytes per point
	cur    int                // current ladder index
	better int                // consecutive picks favoring an upgrade
	floor  int                // minimum ladder index forced by the governor
}

// NewController builds a controller over the estimator; target and
// ladder come from the broker config. The controller starts at the top
// rung and adapts down as evidence arrives.
func NewController(est *Estimator, target time.Duration, ladder []Point, alpha float64, upHold int) *Controller {
	if len(ladder) == 0 {
		ladder = DefaultLadder()
	}
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	if upHold <= 0 {
		upHold = 3
	}
	return &Controller{
		ladder: append([]Point(nil), ladder...),
		target: target,
		est:    est,
		alpha:  alpha,
		upHold: upHold,
		sizes:  map[string]float64{},
	}
}

// Restrict drops ladder rungs whose codec family is not in the
// advertised set (no-op for an empty set, or if nothing would remain).
func (c *Controller) Restrict(families []string) {
	if len(families) == 0 {
		return
	}
	allowed := map[string]bool{}
	for _, f := range families {
		allowed[f] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.ladder[:0:0]
	for _, p := range c.ladder {
		if allowed[p.Family()] {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 {
		return
	}
	c.ladder = kept
	if c.cur >= len(kept) {
		c.cur = len(kept) - 1
	}
	if c.floor >= len(kept) {
		c.floor = len(kept) - 1
	}
}

// LadderLen returns the (possibly Restrict-ed) ladder length.
func (c *Controller) LadderLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ladder)
}

// SetFloor forces the controller to operate at ladder index >= floor
// (0 = best rung, no floor) — the resource governor's quality-step
// degradation. The clamp applies immediately and caps future upgrades
// until the floor is lifted.
func (c *Controller) SetFloor(floor int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if floor < 0 {
		floor = 0
	}
	if floor > len(c.ladder)-1 {
		floor = len(c.ladder) - 1
	}
	c.floor = floor
	if c.cur < floor {
		c.cur = floor
		c.better = 0
	}
}

// ObserveSize feeds the encoded size of a frame at a point back into
// the per-rung size model.
func (c *Controller) ObserveSize(p Point, bytes int) {
	if bytes <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := p.String()
	if prev, ok := c.sizes[k]; ok {
		c.sizes[k] = c.alpha*float64(bytes) + (1-c.alpha)*prev
	} else {
		c.sizes[k] = float64(bytes)
	}
}

// predictedSize returns the modelled encoded size for ladder rung i,
// falling back to the nearest rung with data (ladder rungs are ordered
// largest-first, so a neighbor is a sane stand-in before the rung has
// been probed). Returns 0 when no rung has data yet.
func (c *Controller) predictedSize(i int) float64 {
	if s, ok := c.sizes[c.ladder[i].String()]; ok {
		return s
	}
	for d := 1; d < len(c.ladder); d++ {
		if i-d >= 0 {
			if s, ok := c.sizes[c.ladder[i-d].String()]; ok {
				return s
			}
		}
		if i+d < len(c.ladder) {
			if s, ok := c.sizes[c.ladder[i+d].String()]; ok {
				return s
			}
		}
	}
	return 0
}

// Pick returns the operating point to encode the next frame at.
func (c *Controller) Pick() Point {
	c.mu.Lock()
	defer c.mu.Unlock()
	bw := c.est.Bandwidth()
	if bw <= 0 {
		// No evidence yet: serve the current rung and learn from it.
		return c.ladder[c.cur]
	}
	// Propagation comes from the minimum observed round trip: smoothed
	// RTT also absorbs receiver decode time and host contention, which
	// would penalize every rung equally and drive fast clients to the
	// floor.
	rtt := c.est.MinRTT()
	fits := func(i int) bool {
		size := c.predictedSize(i)
		if size <= 0 {
			return false
		}
		pred := time.Duration(size/bw*float64(time.Second)) + rtt/2
		return pred <= c.target
	}
	// best = highest-quality rung that fits; the bottom rung is the
	// floor even when nothing fits.
	best := len(c.ladder) - 1
	for i := range c.ladder {
		if fits(i) {
			best = i
			break
		}
	}
	switch {
	case best > c.cur:
		// Too expensive for the link: downgrade immediately.
		c.cur = best
		c.better = 0
	case best < c.cur && c.cur > c.floor:
		c.better++
		if c.better >= c.upHold {
			c.cur--
			c.better = 0
		}
	default:
		c.better = 0
	}
	if c.cur < c.floor {
		c.cur = c.floor
		c.better = 0
	}
	return c.ladder[c.cur]
}

// dropStepDown is how many pacer evictions between two consecutive
// sends count as congestion whatever the bandwidth estimate says.
const dropStepDown = 3

// ObserveDrops takes the number of frames the client's pacer evicted
// since the previous send and returns the rung to send at. A burst of
// dropStepDown or more means frames arrive faster than the link drains
// them — true even when write-blocking time over-reads bandwidth on a
// buffered link — so the controller steps down one rung (the bottom
// rung is the floor) and restarts the upgrade hysteresis.
func (c *Controller) ObserveDrops(n int64) Point {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n >= dropStepDown {
		c.better = 0
		if c.cur < len(c.ladder)-1 {
			c.cur++
		}
	}
	return c.ladder[c.cur]
}

// Current returns the active rung without advancing the hysteresis.
func (c *Controller) Current() Point {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ladder[c.cur]
}

// ProbePoint returns the cheapest ladder rung — the cold-start probe a
// broker serves before any bandwidth evidence exists. On the default
// ladder this is the progressive preview pass, so an unknown (possibly
// transoceanic) link's first frame is a few hundred bytes: the viewer
// paints almost immediately and the send itself seeds the estimator.
func (c *Controller) ProbePoint() Point {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ladder[len(c.ladder)-1]
}
