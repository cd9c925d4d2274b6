// Package comm is a small rank-addressed message-passing fabric — the
// stand-in for the MPI layer the paper's renderer runs on. A World of
// P ranks runs one goroutine per rank (SPMD); ranks exchange typed
// messages over matched (source, tag) channels, synchronize with
// barriers, and can be split into sub-communicators, which is how the
// pipeline forms its L processor groups.
//
// Message payloads transfer ownership: the sender must not touch a
// payload after Send. Byte volume is tracked per world for the
// calibration measurements the discrete-event simulator consumes.
//
// Failure model: a rank can be marked failed (FailSelf / MarkFailed),
// and receives can carry a deadline (RunConfig.RecvTimeout). Either
// way, a rank blocked on a dead peer is woken and fails with a typed
// panic that AsFailure converts to ErrRankFailed or ErrRecvTimeout —
// node failure surfaces as an error event at the waiting rank instead
// of a hang, which is what lets the pipeline degrade gracefully.
package comm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// AnyTag matches any message tag in Recv.
const AnyTag = -1

// ErrAborted is observed by ranks blocked in Recv or Barrier when the
// world is aborted because another rank failed.
var ErrAborted = errors.New("comm: world aborted")

// ErrRankFailed is observed (via AsFailure) by ranks blocked on a peer
// that was marked failed.
var ErrRankFailed = errors.New("comm: peer rank failed")

// ErrRecvTimeout is observed (via AsFailure) when a receive outlives
// the world's RecvTimeout — the comm-level dead-peer detector.
var ErrRecvTimeout = errors.New("comm: receive timed out")

// abortPanic is the sentinel recovered by Run's rank wrappers.
type abortPanic struct{}

// failPanic aborts one wait on one dead peer; unlike abortPanic it is
// scoped to the waiting rank, so the rest of the world keeps running.
type failPanic struct {
	rank    int // world rank of the dead peer
	timeout bool
}

// AsFailure converts a panic value recovered from a comm wait into its
// error (nil when the value is not a comm failure). Callers that want
// per-group degradation wrap comm-using code, recover, and pass the
// value here; a non-nil result means "the peer died, this rank is
// fine". World aborts (abortPanic) are not converted — re-panic those
// so Run's wrapper accounts for them.
func AsFailure(rec any) error {
	if p, ok := rec.(failPanic); ok {
		if p.timeout {
			if p.rank < 0 {
				// Any-source wait (inbox Take): no single peer to blame.
				return fmt.Errorf("comm: waiting on inbox: %w", ErrRecvTimeout)
			}
			return fmt.Errorf("comm: waiting on world rank %d: %w", p.rank, ErrRecvTimeout)
		}
		return fmt.Errorf("comm: world rank %d: %w", p.rank, ErrRankFailed)
	}
	return nil
}

// message is one in-flight payload.
type message struct {
	tag     int
	payload any
	bytes   int
}

// mailbox carries messages from one specific sender to one receiver.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []message
	world *World
	src   int // world rank of the sender
}

func newMailbox(w *World, src int) *mailbox {
	m := &mailbox{world: w, src: src}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg message) {
	m.mu.Lock()
	m.queue = append(m.queue, msg)
	m.mu.Unlock()
	m.cond.Signal()
}

// take blocks until a message with the given tag (or any, if
// tag==AnyTag) is present and removes it, preserving FIFO order per
// tag. If the world aborts, the sender is marked failed, or the
// world's RecvTimeout elapses while waiting, take panics with the
// matching sentinel (recovered by Run, or converted by AsFailure).
// Queued messages are scanned before the failure checks, so data a
// peer sent before dying still delivers.
func (m *mailbox) take(tag int) message {
	var deadline time.Time
	if d := m.world.recvTimeout; d > 0 {
		deadline = time.Now().Add(d)
		// The waker makes cond.Wait observe the deadline; without it a
		// receive on a silent peer would sleep forever.
		t := time.AfterFunc(d, func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		})
		defer t.Stop()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.world.aborted.Load() {
			panic(abortPanic{})
		}
		for i, msg := range m.queue {
			if tag == AnyTag || msg.tag == tag {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				return msg
			}
		}
		if m.world.failed[m.src].Load() {
			panic(failPanic{rank: m.src})
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			panic(failPanic{rank: m.src, timeout: true})
		}
		m.cond.Wait()
	}
}

// inboxMsg is one message in a rank's any-source inbox.
type inboxMsg struct {
	src     int // world rank of the sender
	tag     int
	payload any
	bytes   int
}

// inbox is one rank's any-source tagged mailbox, backing Post/Take —
// the tile-routing path of the distributed-framebuffer compositor.
// Unlike the per-(src,dst) mailboxes, messages from all senders land
// in one queue in arrival order, and a receiver can wait on a tag
// without naming a sender.
type inbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []inboxMsg
	world *World
}

func newInbox(w *World) *inbox {
	ib := &inbox{world: w}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

func (ib *inbox) put(msg inboxMsg) {
	ib.mu.Lock()
	ib.queue = append(ib.queue, msg)
	ib.mu.Unlock()
	ib.cond.Signal()
}

// take blocks until a message with the given tag is present and
// removes it. expect optionally lists world ranks still owed messages
// under this tag: when the queue has no match and one of them is
// marked failed, take fails fast with that rank instead of waiting for
// a fragment that will never arrive. Abort and RecvTimeout semantics
// match mailbox.take; queued messages are scanned before the failure
// checks so data a peer posted before dying still delivers.
func (ib *inbox) take(tag int, expect []int) inboxMsg {
	var deadline time.Time
	if d := ib.world.recvTimeout; d > 0 {
		deadline = time.Now().Add(d)
		t := time.AfterFunc(d, func() {
			ib.mu.Lock()
			ib.cond.Broadcast()
			ib.mu.Unlock()
		})
		defer t.Stop()
	}
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		if ib.world.aborted.Load() {
			panic(abortPanic{})
		}
		for i, msg := range ib.queue {
			if msg.tag == tag {
				ib.queue = append(ib.queue[:i], ib.queue[i+1:]...)
				return msg
			}
		}
		for _, r := range expect {
			if r >= 0 && r < ib.world.size && ib.world.failed[r].Load() {
				panic(failPanic{rank: r})
			}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			panic(failPanic{rank: -1, timeout: true})
		}
		ib.cond.Wait()
	}
}

// World is a set of P ranks with all-pairs mailboxes.
type World struct {
	size int
	// boxes[dst][src] is the mailbox for messages src -> dst.
	boxes [][]*mailbox
	// inboxes[dst] is the any-source tagged inbox of each rank
	// (Post/Take).
	inboxes []*inbox

	barrier *barrier
	aborted atomic.Bool
	// failed[r] marks world rank r dead; waits on it fail fast.
	failed []atomic.Bool
	// recvTimeout bounds every Recv (0 = wait forever). Set by RunWith
	// before the rank goroutines start.
	recvTimeout time.Duration

	gbMu  sync.Mutex
	gbars map[string]*barrier

	bytesSent atomic.Int64
	msgsSent  atomic.Int64
	// bytesRecvBy[r] counts payload bytes received by world rank r —
	// per-link traffic accounting for compositing ablations.
	bytesRecvBy []atomic.Int64
}

// NewWorld creates a P-rank world.
func NewWorld(p int) (*World, error) {
	if p < 1 {
		return nil, fmt.Errorf("comm: world size %d < 1", p)
	}
	w := &World{size: p}
	w.failed = make([]atomic.Bool, p)
	w.barrier = newBarrier(w, allRanks(p))
	w.bytesRecvBy = make([]atomic.Int64, p)
	w.boxes = make([][]*mailbox, p)
	w.inboxes = make([]*inbox, p)
	for dst := range w.boxes {
		w.boxes[dst] = make([]*mailbox, p)
		for src := range w.boxes[dst] {
			w.boxes[dst][src] = newMailbox(w, src)
		}
		w.inboxes[dst] = newInbox(w)
	}
	return w, nil
}

func allRanks(p int) []int {
	ranks := make([]int, p)
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}

// Abort wakes every rank blocked in Recv or Barrier; they observe
// ErrAborted. Called automatically by Run when a rank fails.
func (w *World) Abort() {
	w.aborted.Store(true)
	w.wakeAll()
}

// MarkFailed declares one world rank dead: every rank blocked (now or
// later) receiving from it or sharing a barrier with it fails with
// ErrRankFailed instead of hanging. Idempotent; scoped — ranks not
// waiting on the dead one are untouched.
func (w *World) MarkFailed(rank int) {
	if rank < 0 || rank >= w.size {
		return
	}
	if w.failed[rank].Swap(true) {
		return
	}
	w.wakeAll()
}

// Failed reports whether a world rank has been marked failed.
func (w *World) Failed(rank int) bool {
	if rank < 0 || rank >= w.size {
		return false
	}
	return w.failed[rank].Load()
}

// wakeAll broadcasts every wait point so blocked ranks re-check the
// abort/failed flags.
func (w *World) wakeAll() {
	for _, row := range w.boxes {
		for _, mb := range row {
			mb.mu.Lock()
			mb.cond.Broadcast()
			mb.mu.Unlock()
		}
	}
	for _, ib := range w.inboxes {
		ib.mu.Lock()
		ib.cond.Broadcast()
		ib.mu.Unlock()
	}
	w.barrier.broadcast()
	w.gbMu.Lock()
	for _, b := range w.gbars {
		b.broadcast()
	}
	w.gbMu.Unlock()
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// BytesSent returns the total payload bytes sent so far.
func (w *World) BytesSent() int64 { return w.bytesSent.Load() }

// MessagesSent returns the total message count so far.
func (w *World) MessagesSent() int64 { return w.msgsSent.Load() }

// BytesReceivedBy returns the payload bytes received so far by a
// world rank — the load on that node's incoming link.
func (w *World) BytesReceivedBy(rank int) int64 {
	if rank < 0 || rank >= len(w.bytesRecvBy) {
		return 0
	}
	return w.bytesRecvBy[rank].Load()
}

// Comm is one rank's endpoint in a communicator (the world or a
// subgroup). Rank numbering is local to the communicator.
type Comm struct {
	world *World
	rank  int   // local rank
	ranks []int // local rank -> world rank
	bar   *barrier
}

// Rank returns this endpoint's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.ranks) }

// World returns the underlying world.
func (c *Comm) World() *World { return c.world }

// FailSelf marks this rank's world rank failed — the cooperative
// "this node crashed" signal. Peers blocked on it wake with
// ErrRankFailed; the failing rank should stop using the communicator.
func (c *Comm) FailSelf() { c.world.MarkFailed(c.ranks[c.rank]) }

// Send delivers payload with tag to local rank dst. nbytes is the
// accounted payload size (for traffic statistics); pass 0 when the
// size is irrelevant. Send never blocks.
func (c *Comm) Send(dst, tag int, payload any, nbytes int) {
	if dst < 0 || dst >= len(c.ranks) {
		panic(fmt.Sprintf("comm: send to rank %d of %d", dst, len(c.ranks)))
	}
	wsrc, wdst := c.ranks[c.rank], c.ranks[dst]
	c.world.bytesSent.Add(int64(nbytes))
	c.world.msgsSent.Add(1)
	c.world.boxes[wdst][wsrc].put(message{tag: tag, payload: payload, bytes: nbytes})
}

// Recv blocks until a message with the given tag arrives from local
// rank src, and returns its payload and accounted size.
func (c *Comm) Recv(src, tag int) (payload any, nbytes int) {
	if src < 0 || src >= len(c.ranks) {
		panic(fmt.Sprintf("comm: recv from rank %d of %d", src, len(c.ranks)))
	}
	wsrc, wdst := c.ranks[src], c.ranks[c.rank]
	msg := c.world.boxes[wdst][wsrc].take(tag)
	c.world.bytesRecvBy[wdst].Add(int64(msg.bytes))
	return msg.payload, msg.bytes
}

// SendRecv exchanges payloads with a partner rank without deadlock
// (sends are non-blocking, so plain Send+Recv suffices; provided for
// readability at binary-swap call sites).
func (c *Comm) SendRecv(partner, tag int, payload any, nbytes int) (got any, gotBytes int) {
	c.Send(partner, tag, payload, nbytes)
	return c.Recv(partner, tag)
}

// Post delivers payload to local rank dst's any-source inbox under
// tag. Like Send it never blocks and transfers payload ownership;
// unlike Send the receiver matches it with Take without naming the
// sender, and arrival order across senders is preserved. Post is safe
// to call from helper goroutines of the rank, and dst may be the
// caller's own rank (self-delivery: a DFB owner posts its own
// fragments).
func (c *Comm) Post(dst, tag int, payload any, nbytes int) {
	if dst < 0 || dst >= len(c.ranks) {
		panic(fmt.Sprintf("comm: post to rank %d of %d", dst, len(c.ranks)))
	}
	wsrc, wdst := c.ranks[c.rank], c.ranks[dst]
	c.world.bytesSent.Add(int64(nbytes))
	c.world.msgsSent.Add(1)
	c.world.inboxes[wdst].put(inboxMsg{src: wsrc, tag: tag, payload: payload, bytes: nbytes})
}

// Take blocks until a message posted under tag is in this rank's
// inbox, removes it, and returns the sender's communicator-local rank
// (-1 if the sender is outside this communicator) with the payload.
// expect optionally lists local ranks still owed messages under this
// tag: if the inbox has no match and one of them has failed, Take
// fails fast (ErrRankFailed via AsFailure) instead of waiting for a
// message that will never come. World aborts and the world's
// RecvTimeout apply as in Recv; a timeout surfaces as ErrRecvTimeout
// with no peer attributed (any-source waits have no single culprit).
func (c *Comm) Take(tag int, expect ...int) (src int, payload any, nbytes int) {
	wdst := c.ranks[c.rank]
	var wexpect []int
	if len(expect) > 0 {
		wexpect = make([]int, 0, len(expect))
		for _, e := range expect {
			if e < 0 || e >= len(c.ranks) {
				panic(fmt.Sprintf("comm: take expects rank %d of %d", e, len(c.ranks)))
			}
			wexpect = append(wexpect, c.ranks[e])
		}
	}
	msg := c.world.inboxes[wdst].take(tag, wexpect)
	c.world.bytesRecvBy[wdst].Add(int64(msg.bytes))
	return c.localRank(msg.src), msg.payload, msg.bytes
}

// localRank maps a world rank to this communicator's local rank, -1
// when the world rank is not a member.
func (c *Comm) localRank(world int) int {
	for l, w := range c.ranks {
		if w == world {
			return l
		}
	}
	return -1
}

// Barrier blocks until every rank of this communicator has entered.
func (c *Comm) Barrier() { c.bar.await() }

// Group creates a sub-communicator from world-local ranks of this
// communicator. Every listed member must call Group with the same
// list; each receives its endpoint via the returned constructor
// applied to its member index. Non-members must not call it.
//
// Implementation note: sub-communicators share the world mailboxes, so
// tags must not collide across concurrent groups; callers draw tags
// from the central registry (RegisterTagClass / TagClass.Tag), whose
// per-step blocks keep concurrent groups — always on different
// pipeline steps — disjoint by construction.
func (c *Comm) Group(members []int) (*Comm, error) {
	idx := -1
	ranks := make([]int, len(members))
	for i, m := range members {
		if m < 0 || m >= len(c.ranks) {
			return nil, fmt.Errorf("comm: group member %d out of range", m)
		}
		ranks[i] = c.ranks[m]
		if m == c.rank {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("comm: rank %d not in group %v", c.rank, members)
	}
	return &Comm{world: c.world, rank: idx, ranks: ranks, bar: c.world.groupBarrier(ranks)}, nil
}

// barrier is a reusable counting barrier over a set of world ranks.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
	world *World
	ranks []int // member world ranks (for failed-member detection)
}

func newBarrier(w *World, ranks []int) *barrier {
	b := &barrier{n: len(ranks), world: w, ranks: ranks}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// failedRank returns a failed member's world rank, or -1.
func (b *barrier) failedRank() int {
	for _, r := range b.ranks {
		if b.world.failed[r].Load() {
			return r
		}
	}
	return -1
}

func (b *barrier) await() {
	b.mu.Lock()
	if b.world.aborted.Load() {
		b.mu.Unlock()
		panic(abortPanic{})
	}
	// A barrier with a dead member can never complete — fail fast
	// rather than wait for a peer that will not arrive.
	if r := b.failedRank(); r >= 0 {
		b.mu.Unlock()
		panic(failPanic{rank: r})
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		if b.world.aborted.Load() {
			b.mu.Unlock()
			panic(abortPanic{})
		}
		if r := b.failedRank(); r >= 0 {
			b.mu.Unlock()
			panic(failPanic{rank: r})
		}
		b.cond.Wait()
	}
	b.mu.Unlock()
}

func (b *barrier) broadcast() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// groupBarrier returns a shared barrier for a set of world ranks,
// keyed by the sorted rank list, so all members of one Group call get
// the same barrier instance.
func (w *World) groupBarrier(ranks []int) *barrier {
	key := fmt.Sprint(ranks)
	w.gbMu.Lock()
	defer w.gbMu.Unlock()
	if w.gbars == nil {
		w.gbars = map[string]*barrier{}
	}
	if b, ok := w.gbars[key]; ok {
		return b
	}
	b := newBarrier(w, ranks)
	w.gbars[key] = b
	return b
}

// RunConfig tunes a Run.
type RunConfig struct {
	// RecvTimeout bounds every receive; a rank waiting longer observes
	// ErrRecvTimeout (via its error return). 0 = wait forever.
	RecvTimeout time.Duration
}

// Run launches fn on every rank of a fresh world and waits for all to
// return. When a rank fails, the world aborts: ranks blocked in Recv
// or Barrier are woken and report ErrAborted; the first real error (by
// rank order) is returned.
func Run(p int, fn func(c *Comm) error) error {
	return RunWith(p, RunConfig{}, fn)
}

// RunWith is Run with a config.
func RunWith(p int, cfg RunConfig, fn func(c *Comm) error) error {
	w, err := NewWorld(p)
	if err != nil {
		return err
	}
	w.recvTimeout = cfg.RecvTimeout
	ranks := allRanks(p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(abortPanic); ok {
						errs[r] = ErrAborted
						return
					}
					// An unguarded failure wait (fn chose not to
					// degrade) surfaces as this rank's error and aborts
					// the world like any other rank error.
					if fe := AsFailure(rec); fe != nil {
						errs[r] = fe
						w.Abort()
						return
					}
					panic(rec)
				}
			}()
			c := &Comm{world: w, rank: r, ranks: ranks, bar: w.barrier}
			errs[r] = fn(c)
			if errs[r] != nil {
				w.Abort()
			}
		}(r)
	}
	wg.Wait()
	var aborted error
	for _, e := range errs {
		if e != nil && !errors.Is(e, ErrAborted) {
			return e
		}
		if e != nil && aborted == nil {
			aborted = e
		}
	}
	return aborted
}
