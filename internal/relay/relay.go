// Package relay turns display daemons into a broadcast tree: a relay
// node connects upstream to a parent daemon (the render-site daemon or
// another relay) exactly as a display client would, and re-serves the
// frames it receives to its own downstream clients — viewers or further
// relays — through an embedded adaptive stream broker.
//
// The shape follows the network-data-cache argument of Bethel et al.:
// placing a cache tier near consumers turns a wide-area broadcast
// problem into a local one. Because a relay looks like a display client
// to its parent, every interior edge gets the parent broker's per-link
// adaptive quality for free, and because each relay runs its own
// encode-once fan-out cache, a frame is encoded once per distinct
// operating point per tier — not once per viewer at the root. Root
// egress therefore scales with the tree fan-out instead of the viewer
// population.
//
// Failure handling reuses the fault machinery of the transport layer:
// the upstream link is a transport.Session (auto-reconnect with
// backoff, optional heartbeat to catch silent partitions), and when a
// parent stays dead past the session's attempt budget the node
// re-parents to the next address in its configured ancestor list — its
// grandparent, then the root, then any explicit fallback — with bounded
// backoff between laps. A dying relay thus degrades the tree rather
// than partitioning its subtree's viewers. Frames that arrive again
// after a re-parent (the new parent is still fanning out frames the old
// parent already delivered) are deduplicated by frame ID, so no viewer
// sees a frame twice.
package relay

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/obs/provenance"
	"repro/internal/stream"
	"repro/internal/transport"
)

// Config parameterizes a relay node.
type Config struct {
	// Name labels the node in status output and logs.
	Name string
	// Tier is the node's depth in the tree (root daemon = 0); it
	// labels the node's metrics so scrapes from different tiers are
	// distinguishable without host inference.
	Tier int
	// Prov, when set, records per-frame provenance events (upstream
	// receives, dedup suppressions, and the embedded broker's encode/
	// send/drop lifecycle) for the /debug/frames surface.
	Prov *provenance.Log
	// Parents is the upstream preference order: the parent first, then
	// re-parent targets (grandparent, root, explicit fallbacks). At
	// least one address is required.
	Parents []string
	// Stream configures the downstream broker (per-client adaptive
	// quality, encode cache, pacing). Zero value = stream defaults.
	Stream stream.Config
	// Retry paces reconnect attempts against one parent before the
	// node fails over to the next (zero value = transport.DefaultRetry).
	Retry transport.RetryPolicy
	// Heartbeat, when positive, probes the upstream link on this
	// interval and declares it dead after PeerTimeout of silence — the
	// only way to notice a stalled parent TCP keeps open.
	Heartbeat   time.Duration
	PeerTimeout time.Duration
	// FailoverBackoff is the pause after a full unsuccessful lap
	// through Parents, doubling per lap up to FailoverMax (defaults
	// 250ms and 5s) — bounded backoff, the tree keeps trying forever.
	FailoverBackoff time.Duration
	FailoverMax     time.Duration
	// DedupWindow is how many delivered frame IDs the node remembers
	// for duplicate suppression across re-parents (default 1024).
	DedupWindow int
	// Guard, when set, attaches the node to a process resource
	// governor: it is passed through to the embedded broker (unless
	// Stream.Guard is already set), in-flight upstream payload bytes
	// charge a "relay-upstream" account, and the node identifies itself
	// as a relay in its upstream hello so parent admission control
	// spares it when shedding. nil = unguarded.
	Guard *guard.Governor
	// BreakerThreshold and BreakerCooldown parameterize the per-parent
	// circuit breakers on the upstream session: after BreakerThreshold
	// consecutive failures against one parent its breaker opens and
	// reconnect attempts against it are refused (consuming retry
	// budget, so failover advances faster) until BreakerCooldown
	// passes and a half-open probe succeeds. Zero values take the
	// guard package defaults.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// WrapUpstream wraps each upstream dial (wan shaping, fault
	// injection); nil leaves the socket raw.
	WrapUpstream func(net.Conn) net.Conn
	// Seed seeds the session backoff jitter (0 = 1).
	Seed int64
	// Logf receives diagnostics (nil silences).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.FailoverBackoff <= 0 {
		c.FailoverBackoff = 250 * time.Millisecond
	}
	if c.FailoverMax <= 0 {
		c.FailoverMax = 5 * time.Second
	}
	if c.DedupWindow <= 0 {
		c.DedupWindow = 1024
	}
	return c
}

// NodeStats counts relay-node activity.
type NodeStats struct {
	// PiecesIn and FramesIn count upstream input (pieces ingested,
	// frames completed and offered downstream).
	PiecesIn atomic.Int64
	FramesIn atomic.Int64
	// DupDropped counts upstream pieces dropped because their frame was
	// already delivered downstream (re-parent overlap).
	DupDropped atomic.Int64
	// Reparents counts successful attaches to a different parent than
	// the previous one.
	Reparents atomic.Int64
	// FailedParents counts terminal session failures (one parent's
	// attempt budget exhausted).
	FailedParents atomic.Int64
	// AcksSent counts receive reports sent upstream (the parent's RTT
	// estimator feeds on them).
	AcksSent atomic.Int64
	// ControlsForwarded counts user-control messages passed upstream.
	ControlsForwarded atomic.Int64
}

// Status is a relay node's observable state, served under
// /debug/status.
type Status struct {
	Name    string   `json:"name"`
	Addr    string   `json:"addr"`
	Parents []string `json:"parents"`
	// Parent is the currently attached upstream address ("" while
	// orphaned and searching).
	Parent    string `json:"parent"`
	Connected bool   `json:"connected"`

	Reparents         int64 `json:"reparents"`
	FailedParents     int64 `json:"failed_parents"`
	FramesIn          int64 `json:"frames_in"`
	DupDropped        int64 `json:"dup_dropped"`
	AcksSent          int64 `json:"acks_sent"`
	ControlsForwarded int64 `json:"controls_forwarded"`

	Session transport.SessionState `json:"session"`

	// Breakers maps each configured parent address to its circuit
	// breaker state (closed/open/half-open); empty when unguarded or
	// before any attach attempt.
	Breakers map[string]string `json:"breakers,omitempty"`

	// Downstream broker view: encode counts are this tier's share of
	// the tree's total encodes; Clients carries per-link quality.
	Encodes    int64                   `json:"encodes"`
	FramesOut  int64                   `json:"frames_out"`
	BytesOut   int64                   `json:"bytes_out"`
	CacheHits  int64                   `json:"cache_hits"`
	CacheIvals int64                   `json:"cache_invalidations"`
	Clients    []stream.ClientSnapshot `json:"clients"`
}

// Node is one relay daemon: an upstream session consuming frames from
// its parent and a downstream broker re-serving them.
type Node struct {
	cfg    Config
	broker *stream.Broker
	ln     net.Listener
	log    *obs.Logger

	mu         sync.Mutex
	sess       *transport.Session
	parent     string // currently attached parent address
	lastParent string // last successfully attached parent (survives detach)
	parentIdx  int    // index into cfg.Parents being (or to be) tried

	// seen is the delivered-frame window for duplicate suppression;
	// seenOrder evicts oldest-first.
	seen      map[uint32]struct{}
	seenOrder []uint32

	// upstreamAcct ledgers in-flight upstream payload bytes against the
	// resource governor (nil-safe when unguarded); breakers holds one
	// circuit breaker per parent address, created lazily under mu.
	upstreamAcct *guard.Account
	breakers     map[string]*guard.Breaker

	stats NodeStats
	done  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
}

// NewNode starts a relay on the listener, attaching upstream to the
// first reachable parent. The node serves downstream immediately;
// frames flow once a parent accepts it.
func NewNode(ln net.Listener, cfg Config) (*Node, error) {
	if len(cfg.Parents) == 0 {
		return nil, fmt.Errorf("relay: no parent addresses configured")
	}
	cfg = cfg.withDefaults()
	if cfg.Guard != nil && cfg.Stream.Guard == nil {
		cfg.Stream.Guard = cfg.Guard
	}
	n := &Node{
		cfg:      cfg,
		broker:   stream.NewBroker(cfg.Stream),
		ln:       ln,
		log:      obs.NewLogger("relay"),
		seen:     make(map[uint32]struct{}),
		breakers: make(map[string]*guard.Breaker),
		done:     make(chan struct{}),
	}
	if cfg.Guard != nil {
		n.upstreamAcct = cfg.Guard.Account("relay-upstream")
	}
	if cfg.Logf != nil {
		n.log.SetFunc(cfg.Logf)
	}
	if cfg.Prov != nil {
		n.broker.SetProvenance(cfg.Prov)
	}
	n.broker.SetControlForward(n.forwardControl)
	n.wg.Add(2)
	go func() {
		defer n.wg.Done()
		_ = n.broker.Serve(ln)
	}()
	go func() {
		defer n.wg.Done()
		n.upstreamLoop()
	}()
	return n, nil
}

// ListenAndServe starts a relay node on addr.
func ListenAndServe(addr string, cfg Config) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("relay: listen %s: %w", addr, err)
	}
	return NewNode(ln, cfg)
}

// Addr returns the node's downstream listen address.
func (n *Node) Addr() net.Addr { return n.ln.Addr() }

// Parent reports the currently attached upstream address ("" while
// orphaned).
func (n *Node) Parent() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.parent
}

// Status snapshots the node for /debug/status.
func (n *Node) Status() Status {
	n.mu.Lock()
	parent := n.parent
	sess := n.sess
	n.mu.Unlock()
	st := Status{
		Name:              n.cfg.Name,
		Addr:              n.ln.Addr().String(),
		Parents:           append([]string(nil), n.cfg.Parents...),
		Parent:            parent,
		Connected:         parent != "",
		Reparents:         n.stats.Reparents.Load(),
		FailedParents:     n.stats.FailedParents.Load(),
		FramesIn:          n.stats.FramesIn.Load(),
		DupDropped:        n.stats.DupDropped.Load(),
		AcksSent:          n.stats.AcksSent.Load(),
		ControlsForwarded: n.stats.ControlsForwarded.Load(),
		Encodes:           n.broker.Stats().Encodes.Load(),
		FramesOut:         n.broker.Stats().FramesOut.Load(),
		BytesOut:          n.broker.Stats().BytesOut.Load(),
		CacheHits:         n.broker.Cache().Stats().Hits.Load(),
		CacheIvals:        n.broker.Cache().Stats().Invalidations.Load(),
		Clients:           n.broker.ClientSnapshots(),
	}
	if sess != nil {
		st.Session = sess.State()
	}
	n.mu.Lock()
	if len(n.breakers) > 0 {
		st.Breakers = make(map[string]string, len(n.breakers))
		for addr, br := range n.breakers {
			st.Breakers[addr] = br.StateName()
		}
	}
	n.mu.Unlock()
	return st
}

// Instrument registers the node's counters on a metrics registry along
// with its broker's. Every relay series carries the node's name and
// tier as constant labels, so scrapes collected across a tree are
// distinguishable without host inference.
func (n *Node) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	labels := fmt.Sprintf(`{node=%q,tier="%d"}`, n.cfg.Name, n.cfg.Tier)
	st := &n.stats
	reg.CounterFunc("relay_frames_in_total"+labels, "Frames completed from the upstream parent.", st.FramesIn.Load)
	reg.CounterFunc("relay_dup_dropped_total"+labels, "Duplicate frames dropped after re-parenting.", st.DupDropped.Load)
	reg.CounterFunc("relay_reparents_total"+labels, "Successful attaches to a different parent.", st.Reparents.Load)
	reg.CounterFunc("relay_failed_parents_total"+labels, "Parents given up on after exhausting reconnect attempts.", st.FailedParents.Load)
	reg.CounterFunc("relay_acks_sent_total"+labels, "Receive reports sent upstream.", st.AcksSent.Load)
	reg.CounterFunc("relay_controls_forwarded_total"+labels, "User-control messages forwarded upstream.", st.ControlsForwarded.Load)
	reg.GaugeFunc("relay_connected"+labels, "1 while attached to a parent.", func() float64 {
		if n.Parent() != "" {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("relay_tier"+fmt.Sprintf(`{node=%q}`, n.cfg.Name), "The node's depth in the relay tree (root = 0).", func() float64 {
		return float64(n.cfg.Tier)
	})
	n.broker.Instrument(reg)
}

// breakerFor returns (lazily creating) the circuit breaker for one
// parent address.
func (n *Node) breakerFor(addr string) *guard.Breaker {
	n.mu.Lock()
	defer n.mu.Unlock()
	br, ok := n.breakers[addr]
	if !ok {
		br = guard.NewBreaker(guard.BreakerConfig{
			Threshold: n.cfg.BreakerThreshold,
			Cooldown:  n.cfg.BreakerCooldown,
		})
		n.breakers[addr] = br
	}
	return br
}

// Probe acquires and releases the node's lock and the embedded
// broker's — the watchdog's deadlock self-check.
func (n *Node) Probe() {
	n.mu.Lock()
	n.mu.Unlock() //nolint:staticcheck // the probe is exactly acquire-then-release
	n.broker.Probe()
}

// upstreamLoop attaches to parents in preference order for the life of
// the node: each parent is served through an auto-reconnecting session;
// when a session fails terminally (the parent stayed dead past the
// retry budget) the loop advances to the next parent, wrapping around
// with bounded exponential backoff between laps. This is the
// re-parenting state machine: attached → orphaned → searching →
// attached.
func (n *Node) upstreamLoop() {
	lap := 0
	for {
		if n.isClosed() {
			return
		}
		n.mu.Lock()
		idx := n.parentIdx
		n.mu.Unlock()
		addr := n.cfg.Parents[idx]
		sess, err := transport.NewSession(transport.SessionConfig{
			Role:        transport.RoleDisplay,
			Kind:        transport.KindRelay,
			Addr:        addr,
			Wrap:        n.cfg.WrapUpstream,
			Retry:       n.cfg.Retry,
			Heartbeat:   n.cfg.Heartbeat,
			PeerTimeout: n.cfg.PeerTimeout,
			Seed:        n.cfg.Seed,
			Breaker:     n.breakerFor(addr),
			Logf:        n.log.Infof,
			Sleep:       n.pause,
		})
		if err != nil {
			n.stats.FailedParents.Add(1)
			n.log.Warnf("parent %s unreachable: %v", addr, err)
			if n.advanceParent(idx) {
				lap++
				n.backoff(lap)
			}
			continue
		}
		if n.isClosed() {
			sess.Close()
			return
		}
		lap = 0
		n.mu.Lock()
		prev := n.lastParent
		n.sess = sess
		n.parent = addr
		n.lastParent = addr
		n.mu.Unlock()
		if prev != "" && prev != addr {
			n.stats.Reparents.Add(1)
			n.log.Warnf("re-parented from %s to %s", prev, addr)
		} else {
			n.log.Infof("attached to parent %s", addr)
		}
		for m := range sess.Inbox() {
			switch m.Type {
			case transport.MsgImage:
				n.onImage(m)
			}
		}
		// Terminal session end: the parent stayed dead through the
		// whole retry budget (or the node is closing).
		n.mu.Lock()
		n.sess = nil
		n.parent = ""
		n.mu.Unlock()
		sess.Close()
		if n.isClosed() {
			return
		}
		n.stats.FailedParents.Add(1)
		n.log.Warnf("parent %s lost (%v), searching for a new parent", addr, sess.Err())
		if n.advanceParent(idx) {
			lap++
			n.backoff(lap)
		}
	}
}

// advanceParent moves to the next parent in preference order,
// reporting whether a full lap completed (time to back off).
func (n *Node) advanceParent(from int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.parentIdx == from {
		n.parentIdx = (n.parentIdx + 1) % len(n.cfg.Parents)
	}
	return n.parentIdx == 0
}

// backoff pauses between failover laps: FailoverBackoff doubling per
// lap, capped at FailoverMax.
func (n *Node) backoff(lap int) {
	d := n.cfg.FailoverBackoff
	for i := 1; i < lap && d < n.cfg.FailoverMax; i++ {
		d *= 2
	}
	if d > n.cfg.FailoverMax {
		d = n.cfg.FailoverMax
	}
	n.pause(d)
}

// pause sleeps for d, returning early when the node closes.
func (n *Node) pause(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-n.done:
	}
}

// onImage ingests one upstream image piece into the downstream broker,
// suppressing frames already delivered (a fresh parent replays its
// recent frames after a re-parent) and acking completed frames so the
// parent's estimator sees this link's round trip.
func (n *Node) onImage(m transport.Message) {
	payload, tc := m.Payload, m.Trace
	im, err := transport.UnmarshalImage(payload)
	if err != nil {
		n.log.Warnf("bad upstream image: %v", err)
		return
	}
	if n.alreadyDelivered(im.FrameID) {
		n.stats.DupDropped.Add(1)
		if tc != nil {
			n.cfg.Prov.Record(provenance.Event{
				Trace: tc.TraceID, Frame: tc.FrameID, Hop: int(tc.Hop),
				Event: provenance.EvReplayed, Cause: "dup", Link: n.Parent(),
			})
		}
		return
	}
	n.stats.PiecesIn.Add(1)
	if tc != nil {
		n.cfg.Prov.Record(provenance.Event{
			Trace: tc.TraceID, Frame: tc.FrameID, Hop: int(tc.Hop),
			Event: provenance.EvReceived, Bytes: len(payload), Link: n.Parent(),
		})
	}
	// Charge the in-flight upstream bytes only past the dup check:
	// after a re-parent during overload, replayed dedup-window frames
	// are dropped above without ever touching the memory budget, so
	// the replay burst cannot double-count against it and push the
	// governor up the degradation ladder.
	n.upstreamAcct.Add(int64(len(payload)))
	id, completed := n.broker.IngestImage(payload, tc)
	n.upstreamAcct.Release(int64(len(payload)))
	if !completed {
		return
	}
	n.markDelivered(id)
	n.stats.FramesIn.Add(1)
	ack := transport.AckMsg{FrameID: id, RecvUnixNano: time.Now().UnixNano(), Bytes: uint32(len(payload))}
	n.mu.Lock()
	sess := n.sess
	n.mu.Unlock()
	if sess != nil {
		if sess.Send(transport.Message{Type: transport.MsgAck, Payload: ack.Marshal()}) == nil {
			n.stats.AcksSent.Add(1)
		}
	}
}

func (n *Node) alreadyDelivered(id uint32) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.seen[id]
	return ok
}

func (n *Node) markDelivered(id uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.seen[id]; ok {
		return
	}
	n.seen[id] = struct{}{}
	n.seenOrder = append(n.seenOrder, id)
	for len(n.seenOrder) > n.cfg.DedupWindow {
		delete(n.seen, n.seenOrder[0])
		n.seenOrder = n.seenOrder[1:]
	}
}

// forwardControl passes a downstream user-control message up the tree;
// while orphaned the control is dropped (controls are periodic user
// state, not queued commands).
func (n *Node) forwardControl(m transport.Message) {
	n.mu.Lock()
	sess := n.sess
	n.mu.Unlock()
	if sess == nil {
		return
	}
	if sess.Send(m) == nil {
		n.stats.ControlsForwarded.Add(1)
	}
}

func (n *Node) isClosed() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// Close detaches from the parent, stops the downstream broker, and
// waits for the node's goroutines.
func (n *Node) Close() error {
	n.once.Do(func() {
		n.mu.Lock()
		sess := n.sess
		n.mu.Unlock()
		close(n.done)
		if sess != nil {
			sess.Close()
		}
		n.broker.Close()
	})
	n.wg.Wait()
	return nil
}
