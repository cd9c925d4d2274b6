package stream

import (
	"sync"
	"sync/atomic"

	"repro/internal/guard"
	"repro/internal/img"
)

// SourceFrame is one decoded frame offered to the per-client pacers.
type SourceFrame struct {
	ID    uint32
	Image *img.Frame

	// acct and refs implement the broker's frames-in-flight byte
	// ledger: the decoded frame is charged once when it enters fan-out
	// and the charge is returned when the last queued reference is
	// consumed or dropped. acct is set once before the frame is shared
	// and never written again.
	acct *guard.Account
	refs atomic.Int32
}

// Size returns the decoded frame's pixel bytes (0 for the imageless
// frames some tests construct).
func (f *SourceFrame) Size() int64 {
	if f.Image == nil {
		return 0
	}
	return int64(len(f.Image.Pix))
}

// retain adds one queued reference (no-op for unguarded frames).
func (f *SourceFrame) retain() {
	if f.acct != nil {
		f.refs.Add(1)
	}
}

// release drops one reference, refunding the frame's budget charge
// when the last holder lets go.
func (f *SourceFrame) release() {
	if f.acct != nil && f.refs.Add(-1) == 0 {
		f.acct.Release(f.Size())
	}
}

// Pacer is the per-client frame queue. Offer never blocks: when the
// queue is full the oldest frames are dropped, so a slow client's
// backlog is bounded and it always converges on the newest frame while
// the renderer runs at full speed. Next blocks until a frame or Close.
type Pacer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	depth  int
	q      []*SourceFrame
	drops  int64
	closed bool

	// acct, when set, ledgers queued frame bytes against the resource
	// governor; effDepth, when set, caps the effective queue depth per
	// Offer — the governor's "widen the drop window" degradation step.
	acct     *guard.Account
	effDepth func() int
}

// NewPacer bounds the queue to depth frames (min 1).
func NewPacer(depth int) *Pacer {
	if depth < 1 {
		depth = 1
	}
	p := &Pacer{depth: depth}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// SetGuard attaches the resource governor's hooks: acct ledgers
// queued bytes, effDepth (consulted per Offer) narrows the effective
// depth under pressure. Call before the pacer is shared.
func (p *Pacer) SetGuard(acct *guard.Account, effDepth func() int) {
	p.acct = acct
	p.effDepth = effDepth
}

// Offer enqueues a frame, dropping the oldest entries when full. It
// reports whether the frame was accepted (false only after Close) and
// which frames were evicted to make room (the governor can narrow the
// effective depth below the configured one, evicting several at once),
// so callers can attribute every drop to the right frame.
func (p *Pacer) Offer(f *SourceFrame) (accepted bool, dropped []*SourceFrame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false, nil
	}
	limit := p.depth
	if p.effDepth != nil {
		if d := p.effDepth(); d >= 1 && d < limit {
			limit = d
		}
	}
	for len(p.q) >= limit {
		victim := p.q[0]
		p.q = p.q[1:]
		p.drops++
		p.acct.Release(victim.Size())
		dropped = append(dropped, victim)
	}
	p.q = append(p.q, f)
	p.acct.Add(f.Size())
	p.cond.Signal()
	return true, dropped
}

// Next blocks for the next frame; ok is false once the pacer is closed
// and drained.
func (p *Pacer) Next() (f *SourceFrame, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.q) == 0 && !p.closed {
		p.cond.Wait()
	}
	if len(p.q) == 0 {
		return nil, false
	}
	f = p.q[0]
	p.q = p.q[1:]
	p.acct.Release(f.Size())
	return f, true
}

// Close wakes all waiters; queued frames may still be drained.
func (p *Pacer) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Len reports the queued frame count (always ≤ the configured depth).
func (p *Pacer) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.q)
}

// Drops reports how many frames were discarded to bound the backlog.
func (p *Pacer) Drops() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.drops
}
