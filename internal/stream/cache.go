package stream

import (
	"sync"
	"sync/atomic"

	"repro/internal/guard"
)

// CacheStats counts encode-cache activity.
type CacheStats struct {
	Hits      atomic.Int64
	Misses    atomic.Int64
	Evictions atomic.Int64
	// Invalidations counts entries evicted explicitly — a client ladder
	// stepping away from a point mid-frame, or a generation bump on
	// renderer reconnect. They are counted in Evictions too.
	Invalidations atomic.Int64
	// FillsPaused counts misses served without inserting because the
	// resource governor paused cache fills under memory pressure.
	FillsPaused atomic.Int64
}

// HitRate returns hits / (hits + misses).
func (s *CacheStats) HitRate() float64 {
	h, m := s.Hits.Load(), s.Misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

type cacheKey struct {
	gen     uint64
	frameID uint32
	point   string
}

type cacheEntry struct {
	ready chan struct{}
	data  []byte
	err   error
	// bytes is the budget charge for this entry: set (under the cache
	// mutex) when the encode completes while the entry is still
	// resident, refunded when the entry is evicted.
	bytes int64
}

// EncodeCache is the encode-once fan-out cache: entries are keyed by
// (generation, frameID, codec, quality), so any number of clients at
// the same operating point share a single encode. Concurrent requests
// for a missing key coalesce — the first caller encodes, the rest wait
// for its result. Old frames are evicted once more than a bounded
// number of distinct frame IDs are resident (viewers only ever want
// recent frames, so eviction is by frame age, not LRU touch order).
//
// The generation guards against stale hits across frame-ID restarts: a
// renderer that reconnects (PR 3's auto-reconnect restarts sequences)
// re-sends frame IDs from 0, and without the generation in the key the
// cache would serve the previous animation's frame 0 bytes for the new
// one. BumpGeneration retires every resident entry and makes old keys
// unreachable. Invalidate evicts one (frame, point) entry — the broker
// calls it when a client's ladder steps away from a point mid-frame and
// no other client still operates there, so abandoned-quality entries do
// not squat in the bounded frame window.
type EncodeCache struct {
	mu       sync.Mutex
	capacity int // distinct frame IDs retained
	gen      uint64
	entries  map[cacheKey]*cacheEntry
	frames   []uint32 // insertion order of distinct frame IDs (current generation)
	stats    CacheStats

	// acct, when set, ledgers resident encoded bytes against the
	// resource governor; fillPaused (consulted per miss) makes the
	// cache serve hits only — no new inserts — under memory pressure.
	acct       *guard.Account
	fillPaused func() bool
}

// NewEncodeCache retains up to capFrames distinct frame IDs (min 1).
func NewEncodeCache(capFrames int) *EncodeCache {
	if capFrames < 1 {
		capFrames = 1
	}
	return &EncodeCache{capacity: capFrames, entries: map[cacheKey]*cacheEntry{}}
}

// Stats exposes the cache counters.
func (c *EncodeCache) Stats() *CacheStats { return &c.stats }

// SetGuard attaches the resource governor's hooks: acct ledgers
// resident encoded bytes, fillPaused (consulted per miss) suppresses
// new inserts under pressure. Call before the cache is shared.
func (c *EncodeCache) SetGuard(acct *guard.Account, fillPaused func() bool) {
	c.acct = acct
	c.fillPaused = fillPaused
}

// dropEntryLocked removes one resident entry, refunding its budget
// charge. Callers hold c.mu and count the eviction themselves.
func (c *EncodeCache) dropEntryLocked(k cacheKey, e *cacheEntry) {
	delete(c.entries, k)
	if e.bytes > 0 {
		c.acct.Release(e.bytes)
		e.bytes = 0
	}
}

// BumpGeneration starts a new frame-ID space: every resident entry is
// evicted and requests made after the bump can never hit entries cached
// before it. Call it when the frame-ID sequence may restart (a renderer
// reconnects). Returns the new generation.
func (c *EncodeCache) BumpGeneration() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	if n := len(c.entries); n > 0 {
		for k, e := range c.entries {
			c.dropEntryLocked(k, e)
		}
		c.stats.Evictions.Add(int64(n))
		c.stats.Invalidations.Add(int64(n))
	}
	c.frames = c.frames[:0]
	return c.gen
}

// Clear evicts every resident entry, refunding all budget charges.
// The broker calls it at shutdown so the governor's ledger drains.
func (c *EncodeCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	for k, e := range c.entries {
		c.dropEntryLocked(k, e)
	}
	c.stats.Evictions.Add(int64(n))
	c.frames = c.frames[:0]
}

// Invalidate evicts the current-generation entry for (frameID, p),
// reporting whether one was resident. The broker uses it when a client
// ladder steps away from p while frameID is still being fanned out, so
// the abandoned operating point's bytes do not linger as a stale hit
// target for the rest of the frame's residency.
func (c *EncodeCache) Invalidate(frameID uint32, p Point) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{gen: c.gen, frameID: frameID, point: p.String()}
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	c.dropEntryLocked(key, e)
	c.stats.Evictions.Add(1)
	c.stats.Invalidations.Add(1)
	return true
}

// GetOrEncode returns the encoded bytes for (frameID, point) in the
// current generation, calling encode at most once per key across all
// concurrent callers. A failed encode is not cached; the next request
// retries.
func (c *EncodeCache) GetOrEncode(frameID uint32, p Point, encode func() ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	key := cacheKey{gen: c.gen, frameID: frameID, point: p.String()}
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		c.stats.Hits.Add(1)
		return e.data, nil
	}
	if c.fillPaused != nil && c.fillPaused() {
		// Memory pressure: serve resident hits only. The caller still
		// gets its bytes, but nothing new is charged to the budget and
		// concurrent same-point callers do not coalesce.
		c.mu.Unlock()
		c.stats.Misses.Add(1)
		c.stats.FillsPaused.Add(1)
		return encode()
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.noteFrameLocked(frameID)
	c.mu.Unlock()

	c.stats.Misses.Add(1)
	e.data, e.err = encode()
	if e.err != nil {
		close(e.ready)
		// Do not poison the cache with a failure.
		c.mu.Lock()
		if cur, ok := c.entries[key]; ok && cur == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
		return nil, e.err
	}
	// Charge the budget only while the entry is actually resident: an
	// eviction racing the encode leaves nothing to refund later.
	c.mu.Lock()
	if cur, ok := c.entries[key]; ok && cur == e {
		e.bytes = int64(len(e.data))
		c.acct.Add(e.bytes)
	}
	c.mu.Unlock()
	close(e.ready)
	return e.data, nil
}

// noteFrameLocked records the frame ID and evicts the oldest frames
// beyond capacity.
func (c *EncodeCache) noteFrameLocked(frameID uint32) {
	for _, f := range c.frames {
		if f == frameID {
			return
		}
	}
	c.frames = append(c.frames, frameID)
	for len(c.frames) > c.capacity {
		victim := c.frames[0]
		c.frames = c.frames[1:]
		for k, e := range c.entries {
			if k.frameID == victim && k.gen == c.gen {
				c.dropEntryLocked(k, e)
				c.stats.Evictions.Add(1)
			}
		}
	}
}
