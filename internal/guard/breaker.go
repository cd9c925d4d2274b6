package guard

import (
	"sync"
	"sync/atomic"
	"time"
)

// Breaker states.
const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed = iota
	// BreakerOpen fails fast until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets exactly one probe through; its outcome
	// closes or re-opens the breaker.
	BreakerHalfOpen
)

// BreakerConfig parameterizes a circuit breaker.
type BreakerConfig struct {
	// Threshold is how many consecutive failures open the breaker
	// (default 5).
	Threshold int
	// Cooldown is how long an open breaker rejects before admitting a
	// half-open probe (default 2s).
	Cooldown time.Duration
	// Now replaces the clock for tests (nil = time.Now).
	Now func() time.Time
}

// Breaker is a circuit breaker for an upstream link: after Threshold
// consecutive failures it opens and Allow fails fast — a relay stops
// hammering a dead parent with dial attempts — until Cooldown elapses,
// when a single half-open probe is admitted. The probe's Success
// closes the breaker; its Failure re-opens it for another cooldown.
// A nil *Breaker is inert (Allow always true), so callers thread an
// optional breaker without nil checks. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    int
	failures int
	openedAt time.Time
	probing  bool

	// opens counts transitions into the open state, rejected the
	// attempts failed fast while open.
	opens    atomic.Int64
	rejected atomic.Int64
}

// NewBreaker builds a breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 2 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg}
}

// Allow reports whether an attempt may proceed now. While open it
// returns false until the cooldown elapses, then admits exactly one
// half-open probe at a time.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			b.rejected.Add(1)
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			b.rejected.Add(1)
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a successful attempt, closing the breaker.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
	b.mu.Unlock()
}

// Failure records a failed attempt: a failed half-open probe re-opens
// immediately; Threshold consecutive closed-state failures open.
func (b *Breaker) Failure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.open()
	case BreakerClosed:
		b.failures++
		if b.failures >= b.cfg.Threshold {
			b.open()
		}
	default: // already open (failure from an attempt admitted earlier)
		b.openedAt = b.cfg.Now()
	}
}

// open transitions to the open state (mu held).
func (b *Breaker) open() {
	b.state = BreakerOpen
	b.openedAt = b.cfg.Now()
	b.failures = 0
	b.probing = false
	b.opens.Add(1)
}

// State returns the current breaker state.
func (b *Breaker) State() int {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// StateName renders the state for status output.
func (b *Breaker) StateName() string {
	switch b.State() {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "closed"
}
