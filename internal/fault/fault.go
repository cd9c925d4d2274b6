// Package fault is a deterministic, seedable fault injector for the
// wide-area transport stack: it wraps net.Conn to produce connection
// drops, byte corruption, stalls/partitions, and slow-start links at
// reproducible points in the byte stream, and provides scripted
// "kill" switches for whole components. Byte-offset triggers count a
// connection's cumulative written bytes, so a given Plan applied to a
// given stream always faults at the same place — every failure
// scenario in the chaos tests and the overload soak replays exactly.
//
// Injected faults compose with wan shaping: wrap the already-shaped
// connection (fault outside, wan inside) so corruption and drops hit
// the paced stream the way a real lossy link would.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected marks every failure produced by this package, so tests
// and recovery paths can tell injected faults from real ones.
var ErrInjected = errors.New("fault: injected failure")

// Plan configures the faults applied to each wrapped connection. The
// zero value injects nothing. Probabilistic triggers draw from the
// injector's seeded generator; byte-offset triggers are exact.
type Plan struct {
	// Seed seeds the probability draws (0 = 1).
	Seed int64

	// DropAfterBytes closes the connection once its cumulative
	// written bytes reach this count (0 = never). The write that
	// crosses the threshold fails with ErrInjected.
	DropAfterBytes int64
	// DropProb closes the connection with this per-write probability.
	DropProb float64

	// CorruptOffsets are absolute write-stream byte offsets whose
	// byte is bit-flipped (XOR 0xFF) — precise corruption for
	// deterministic CRC tests.
	CorruptOffsets []int64
	// CorruptEveryBytes flips one byte every N written bytes
	// (0 = never) — sustained low-rate corruption.
	CorruptEveryBytes int64

	// StallAfterBytes pauses the connection once, for Stall, when the
	// written-byte count crosses it — a transient partition that TCP
	// survives but frame pacing notices.
	StallAfterBytes int64
	// Stall is the pause applied by the stall trigger.
	Stall time.Duration

	// SlowStartBytes throttles the first N written bytes to
	// SlowStartBandwidth (bytes/s) — a cold link ramping up.
	SlowStartBytes     int64
	SlowStartBandwidth float64

	// ReadStallEveryBytes stalls the read side for ReadStall every N
	// received bytes (0 = never) — a congested inbound link that slows
	// one relay's intake without touching its outbound stream; the
	// overload soak keeps one on an edge's upstream for the whole run.
	ReadStallEveryBytes int64
	ReadStall           time.Duration
}

// Stats counts injected events across an injector's connections.
type Stats struct {
	Drops        int64 `json:"drops"`
	FlippedBytes int64 `json:"flipped_bytes"`
	Stalls       int64 `json:"stalls"`
	Kills        int64 `json:"kills"`
}

// Injector applies one Plan to any number of connections and holds
// the scripted-failure switches (KillAll, Partition). Each wrapped
// connection faults independently against its own byte counter.
type Injector struct {
	plan Plan

	mu          sync.Mutex
	rng         *rand.Rand
	conns       map[*Conn]struct{}
	partitioned bool
	partCond    *sync.Cond

	drops   atomic.Int64
	flipped atomic.Int64
	stalls  atomic.Int64
	kills   atomic.Int64
}

// New builds an injector for a plan.
func New(plan Plan) *Injector {
	seed := plan.Seed
	if seed == 0 {
		seed = 1
	}
	offs := append([]int64(nil), plan.CorruptOffsets...)
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	plan.CorruptOffsets = offs
	in := &Injector{plan: plan, rng: rand.New(rand.NewSource(seed)), conns: map[*Conn]struct{}{}}
	in.partCond = sync.NewCond(&in.mu)
	return in
}

// Stats snapshots the injected-event counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Drops:        in.drops.Load(),
		FlippedBytes: in.flipped.Load(),
		Stalls:       in.stalls.Load(),
		Kills:        in.kills.Load(),
	}
}

// Wrap attaches the plan to a connection (write side). Wrap the side
// whose outbound stream should fault; wrap both ends for a fully
// hostile link.
func (in *Injector) Wrap(c net.Conn) net.Conn {
	fc := &Conn{Conn: c, in: in}
	in.mu.Lock()
	in.conns[fc] = struct{}{}
	in.mu.Unlock()
	return fc
}

// Wrapper adapts Wrap to the transport dial/serve hooks
// (func(net.Conn) net.Conn).
func (in *Injector) Wrapper() func(net.Conn) net.Conn {
	return func(c net.Conn) net.Conn { return in.Wrap(c) }
}

// KillAll closes every live wrapped connection — the scripted
// mid-stream kill of a component. Returns the number of connections
// killed.
func (in *Injector) KillAll() int {
	in.mu.Lock()
	conns := make([]*Conn, 0, len(in.conns))
	for c := range in.conns {
		conns = append(conns, c)
	}
	in.mu.Unlock()
	n := 0
	for _, c := range conns {
		if c.kill() {
			n++
		}
	}
	in.kills.Add(int64(n))
	// Wake writers blocked behind a partition so they observe the
	// closed connection.
	in.mu.Lock()
	in.partCond.Broadcast()
	in.mu.Unlock()
	return n
}

// Partition blocks every write on every wrapped connection until
// Heal — a network partition that keeps sockets open.
func (in *Injector) Partition() {
	in.mu.Lock()
	in.partitioned = true
	in.mu.Unlock()
}

// Heal lifts a Partition.
func (in *Injector) Heal() {
	in.mu.Lock()
	in.partitioned = false
	in.partCond.Broadcast()
	in.mu.Unlock()
}

// forget drops a closed connection from the live set.
func (in *Injector) forget(c *Conn) {
	in.mu.Lock()
	delete(in.conns, c)
	in.mu.Unlock()
}

// Conn is one fault-wrapped connection.
type Conn struct {
	net.Conn
	in *Injector

	mu      sync.Mutex // serializes Write's fault bookkeeping
	written int64
	nextOff int // index into plan.CorruptOffsets
	stalled bool
	closed  atomic.Bool

	readMu sync.Mutex // serializes Read's byte counter
	read   int64
}

// kill closes the underlying connection without unregistering (Close
// still runs later); reports whether this call closed it.
func (c *Conn) kill() bool {
	if c.closed.Swap(true) {
		return false
	}
	c.Conn.Close()
	return true
}

// Close closes and unregisters the connection.
func (c *Conn) Close() error {
	c.closed.Store(true)
	c.in.forget(c)
	return c.Conn.Close()
}

// Read applies the read-side plan: a recurring stall every
// ReadStallEveryBytes received bytes. The stall lands after the bytes
// that crossed the threshold are returned-to-caller-side counted, so
// a frame mid-flight is delayed rather than truncated.
func (c *Conn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	plan := &c.in.plan
	if n > 0 && plan.ReadStallEveryBytes > 0 && plan.ReadStall > 0 {
		c.readMu.Lock()
		start := c.read
		c.read += int64(n)
		crossed := c.read/plan.ReadStallEveryBytes > start/plan.ReadStallEveryBytes
		c.readMu.Unlock()
		if crossed {
			c.in.stalls.Add(1)
			time.Sleep(plan.ReadStall)
		}
	}
	return n, err
}

// Write applies the plan to one write: partition gate, slow start,
// stall triggers, corruption, then drop triggers.
func (c *Conn) Write(b []byte) (int, error) {
	in := c.in
	plan := &in.plan

	// Partition gate: block until healed or the connection dies.
	in.mu.Lock()
	for in.partitioned && !c.closed.Load() {
		in.partCond.Wait()
	}
	in.mu.Unlock()
	if c.closed.Load() {
		return 0, fmt.Errorf("fault: connection killed: %w", ErrInjected)
	}

	c.mu.Lock()
	start := c.written
	end := start + int64(len(b))

	// Drop: per-write probability, or the byte threshold.
	drop := false
	if plan.DropProb > 0 {
		in.mu.Lock()
		drop = in.rng.Float64() < plan.DropProb
		in.mu.Unlock()
	}
	if plan.DropAfterBytes > 0 && end > plan.DropAfterBytes {
		drop = true
	}
	if drop {
		c.mu.Unlock()
		in.drops.Add(1)
		c.kill()
		return 0, fmt.Errorf("fault: connection dropped at byte %d: %w", start, ErrInjected)
	}

	// Stall trigger.
	stall := time.Duration(0)
	if plan.Stall > 0 && plan.StallAfterBytes > 0 && !c.stalled && end > plan.StallAfterBytes {
		c.stalled = true
		stall = plan.Stall
	}

	// Corruption: flip bytes at exact offsets, or every N bytes.
	var out []byte
	flip := func(i int64) {
		if out == nil {
			out = append([]byte(nil), b...)
		}
		out[i-start] ^= 0xFF
		in.flipped.Add(1)
	}
	for c.nextOff < len(plan.CorruptOffsets) {
		off := plan.CorruptOffsets[c.nextOff]
		if off >= end {
			break
		}
		if off >= start {
			flip(off)
		}
		c.nextOff++
	}
	if n := plan.CorruptEveryBytes; n > 0 {
		for k := start/n + 1; k*n < end; k++ {
			if k*n >= start {
				flip(k * n)
			}
		}
	}

	// Slow start: the first SlowStartBytes trickle at the configured
	// bandwidth (modelled as a pre-write sleep; precise enough for
	// scenario pacing).
	if plan.SlowStartBytes > 0 && plan.SlowStartBandwidth > 0 && start < plan.SlowStartBytes {
		slow := end
		if slow > plan.SlowStartBytes {
			slow = plan.SlowStartBytes
		}
		stall += time.Duration(float64(slow-start) / plan.SlowStartBandwidth * float64(time.Second))
	}

	c.written = end
	c.mu.Unlock()

	if stall > 0 {
		in.stalls.Add(1)
		time.Sleep(stall)
	}
	if out != nil {
		b = out
	}
	return c.Conn.Write(b)
}

// CrashPlan schedules a renderer node crash inside the pipelined
// renderer: the node at (Group, Rank) fails when it reaches Step.
type CrashPlan struct {
	Group, Rank, Step int
}

// NodeCrash returns a pipeline fault hook (pipeline.Options.FaultFn
// shape): it errors exactly once, at the planned (group, rank, step).
func NodeCrash(p CrashPlan) func(gid, rank, step int) error {
	var fired atomic.Bool
	return func(gid, rank, step int) error {
		if gid == p.Group && rank == p.Rank && step == p.Step && !fired.Swap(true) {
			return fmt.Errorf("fault: node crash at group %d rank %d step %d: %w", gid, rank, step, ErrInjected)
		}
		return nil
	}
}
