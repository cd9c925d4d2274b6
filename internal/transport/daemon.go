package transport

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/provenance"
)

// Daemon is the display daemon: it accepts any number of renderer and
// display connections, forwards image messages from renderers to every
// display, and routes control messages from displays back to every
// renderer. An image buffer per display absorbs bursts when rendering
// outpaces the wide-area link; when the buffer overflows the oldest
// frame is dropped, favoring interactivity over completeness (the
// paper's display daemon "uses an image buffer to cope with faster
// rendering rates").
//
// The daemon treats the wide-area network as hostile: peers negotiate
// a CRC-checked wire framing at handshake (corrupt frames are counted
// and dropped, never forwarded), v2 peers are pinged on a heartbeat
// interval and evicted when silent past the dead-peer timeout, and
// per-peer health is observable via Health.
type Daemon struct {
	mu        sync.Mutex
	ln        net.Listener
	renderers map[int]*peer
	displays  map[int]*peer
	nextID    int
	closed    bool

	// conns tracks every accepted connection from before the
	// handshake completes until its handler exits, so Close can
	// unblock handlers still waiting for a hello (otherwise a
	// half-open connection would leak its goroutine past Close).
	conns map[net.Conn]struct{}

	// bufferFrames is the per-display image buffer depth, read from
	// per-connection goroutines, so it lives behind mu and is set via
	// SetBufferFrames.
	bufferFrames int

	// Heartbeat state: hbInterval is how often v2 peers are pinged;
	// hbTimeout is the silence threshold after which a v2 peer is
	// evicted. hbStop ends the heartbeat goroutine (nil until
	// started).
	hbInterval time.Duration
	hbTimeout  time.Duration
	hbStop     chan struct{}

	// ifd observes the delay between consecutive forwarded frames
	// when the daemon is instrumented (nil otherwise); lastForward is
	// the previous forward time. Both behind mu.
	ifd         *obs.Histogram
	lastForward time.Time

	// prov records per-frame provenance events when set (nil-safe).
	prov atomic.Pointer[provenance.Log]

	log   *obs.Logger
	stats DaemonStats
	wg    sync.WaitGroup
}

// DaemonStats counts daemon activity.
type DaemonStats struct {
	ImagesForwarded atomic.Int64
	ImagesDropped   atomic.Int64
	ControlsRouted  atomic.Int64
	BytesForwarded  atomic.Int64
	// AcksReceived counts display receive reports (consumed by the
	// adaptive stream broker; the plain daemon just counts them).
	AcksReceived atomic.Int64
	// CorruptDropped counts inbound messages dropped on CRC failure.
	CorruptDropped atomic.Int64
	// PeersEvicted counts peers disconnected by the dead-peer
	// heartbeat monitor.
	PeersEvicted atomic.Int64
	// PingsSent counts heartbeat probes enqueued to peers.
	PingsSent atomic.Int64
}

type peer struct {
	id     int
	role   Role
	conn   net.Conn
	fr     Framer
	remote string
	out    chan Message
	done   chan struct{}

	// lastSeen is the wall-clock nanos of the most recent inbound
	// message; rttNS the last heartbeat round-trip.
	lastSeen atomic.Int64
	rttNS    atomic.Int64
	// evicted marks a peer closed by the heartbeat monitor, for the
	// disconnect log line.
	evicted atomic.Bool
}

// PeerHealth is one peer's liveness snapshot, as served under
// /debug/status.
type PeerHealth struct {
	ID     int    `json:"id"`
	Role   string `json:"role"`
	Remote string `json:"remote"`
	// Proto is the negotiated wire version (0 legacy, 1 CRC-checked).
	Proto byte `json:"proto"`
	// SinceLastSeenMS is the silence time at snapshot; RTTMS the last
	// heartbeat round-trip (0 before the first pong).
	SinceLastSeenMS float64 `json:"since_last_seen_ms"`
	RTTMS           float64 `json:"rtt_ms"`
	// Healthy is false once silence exceeds the dead-peer timeout
	// (always true when heartbeats are off).
	Healthy bool `json:"healthy"`
}

// NewDaemon starts a daemon on the listener. Callers own the
// listener's address; Serve runs until Close.
func NewDaemon(ln net.Listener) *Daemon {
	return &Daemon{
		ln:           ln,
		renderers:    map[int]*peer{},
		displays:     map[int]*peer{},
		conns:        map[net.Conn]struct{}{},
		bufferFrames: 8,
		log:          obs.NewLogger("daemon"),
	}
}

// Addr returns the daemon's listen address.
func (d *Daemon) Addr() net.Addr { return d.ln.Addr() }

// Stats exposes the daemon counters.
func (d *Daemon) Stats() *DaemonStats { return &d.stats }

// SetBufferFrames sets the per-display image buffer depth (default 8);
// safe to call while serving (applies to new connections).
func (d *Daemon) SetBufferFrames(n int) {
	if n < 1 {
		n = 1
	}
	d.mu.Lock()
	d.bufferFrames = n
	d.mu.Unlock()
}

// SetHeartbeat starts (or reconfigures) the daemon's liveness
// monitor: every interval each CRC-capable (v2) peer is pinged, and a
// v2 peer silent for longer than timeout is evicted — closed and
// counted in PeersEvicted. Legacy peers cannot be told apart from
// silent-but-healthy ones, so they are never evicted. timeout <= 0
// defaults to 3x the interval; interval <= 0 stops the monitor.
func (d *Daemon) SetHeartbeat(interval, timeout time.Duration) {
	if timeout <= 0 {
		timeout = 3 * interval
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hbInterval, d.hbTimeout = interval, timeout
	if d.hbStop != nil {
		close(d.hbStop)
		d.hbStop = nil
	}
	if interval <= 0 || d.closed {
		return
	}
	stop := make(chan struct{})
	d.hbStop = stop
	d.wg.Add(1)
	go d.heartbeat(interval, timeout, stop)
}

func (d *Daemon) heartbeat(interval, timeout time.Duration, stop chan struct{}) {
	defer d.wg.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		now := time.Now()
		for _, p := range d.peers() {
			if p.fr.Version < ProtoV2 {
				continue
			}
			if silence := now.Sub(time.Unix(0, p.lastSeen.Load())); silence > timeout {
				p.evicted.Store(true)
				d.stats.PeersEvicted.Add(1)
				d.log.Warnf("%s %d silent for %v, evicting", p.role, p.id, silence.Round(time.Millisecond))
				p.conn.Close()
				continue
			}
			// Best-effort probe: a full outbound queue means the peer
			// link is busy; the pong would be stale anyway.
			select {
			case p.out <- Message{Type: MsgPing, Payload: MarshalPing(now.UnixNano())}:
				d.stats.PingsSent.Add(1)
			default:
			}
		}
	}
}

// peers snapshots all connected peers.
func (d *Daemon) peers() []*peer {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*peer, 0, len(d.renderers)+len(d.displays))
	for _, p := range d.renderers {
		out = append(out, p)
	}
	for _, p := range d.displays {
		out = append(out, p)
	}
	return out
}

// Health snapshots every peer's liveness state, ordered by peer id.
func (d *Daemon) Health() []PeerHealth {
	d.mu.Lock()
	timeout := d.hbTimeout
	hbOn := d.hbInterval > 0
	d.mu.Unlock()
	now := time.Now()
	var out []PeerHealth
	for _, p := range d.peers() {
		silence := now.Sub(time.Unix(0, p.lastSeen.Load()))
		out = append(out, PeerHealth{
			ID:              p.id,
			Role:            p.role.String(),
			Remote:          p.remote,
			Proto:           p.fr.Version,
			SinceLastSeenMS: float64(silence) / float64(time.Millisecond),
			RTTMS:           float64(p.rttNS.Load()) / float64(time.Millisecond),
			Healthy:         !hbOn || p.fr.Version < ProtoV2 || silence <= timeout,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SetProvenance installs a frame-provenance log: traced images are
// recorded as received when read and relayed/dropped as they are
// forwarded. Safe to call while serving; nil disables.
func (d *Daemon) SetProvenance(l *provenance.Log) { d.prov.Store(l) }

// SetLogf installs a diagnostics sink (nil silences); safe to call
// while serving. It routes the daemon's obs.Logger.
func (d *Daemon) SetLogf(f func(format string, args ...any)) {
	d.log.SetFunc(f)
}

// Instrument registers the daemon's counters on a metrics registry
// and starts observing the delay between consecutive forwarded frames
// into a daemon_interframe_delay_seconds histogram. Safe to call while
// serving.
func (d *Daemon) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	st := &d.stats
	reg.CounterFunc("daemon_images_forwarded_total",
		"Image messages forwarded from renderers to displays.", st.ImagesForwarded.Load)
	reg.CounterFunc("daemon_images_dropped_total",
		"Image messages dropped by full per-display buffers.", st.ImagesDropped.Load)
	reg.CounterFunc("daemon_bytes_forwarded_total",
		"Image payload bytes forwarded to displays.", st.BytesForwarded.Load)
	reg.CounterFunc("daemon_controls_routed_total",
		"User-control messages routed back to renderers.", st.ControlsRouted.Load)
	reg.CounterFunc("daemon_acks_received_total",
		"Display receive reports counted.", st.AcksReceived.Load)
	reg.CounterFunc("daemon_corrupt_dropped_total",
		"Inbound messages dropped on wire CRC failure.", st.CorruptDropped.Load)
	reg.CounterFunc("daemon_peers_evicted_total",
		"Peers evicted by the dead-peer heartbeat monitor.", st.PeersEvicted.Load)
	reg.CounterFunc("daemon_pings_sent_total",
		"Heartbeat probes enqueued to peers.", st.PingsSent.Load)
	reg.GaugeFunc("daemon_displays", "Connected display clients.", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(len(d.displays))
	})
	reg.GaugeFunc("daemon_renderers", "Connected renderer peers.", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(len(d.renderers))
	})
	ifd := reg.Histogram("daemon_interframe_delay_seconds",
		"Delay between consecutive frames forwarded to displays.")
	d.mu.Lock()
	d.ifd = ifd
	d.lastForward = time.Time{}
	d.mu.Unlock()
}

// Serve accepts connections until the listener closes. Run it on its
// own goroutine.
func (d *Daemon) Serve() error {
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			d.mu.Lock()
			closed := d.closed
			d.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		d.ServeConn(conn)
	}
}

// ServeConn runs the handshake and forwarding loop for one
// pre-established connection on a background goroutine. Tests and
// experiments use it to wrap individual accepted connections in
// per-client wan shaping before the daemon writes to them.
func (d *Daemon) ServeConn(conn net.Conn) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		conn.Close()
		return
	}
	d.conns[conn] = struct{}{}
	d.wg.Add(1)
	d.mu.Unlock()
	go func() {
		defer d.wg.Done()
		defer func() {
			d.mu.Lock()
			delete(d.conns, conn)
			d.mu.Unlock()
		}()
		d.handle(conn)
	}()
}

// Close stops accepting, disconnects all peers (including connections
// still mid-handshake) and waits for every handler goroutine.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	conns := make([]net.Conn, 0, len(d.conns))
	for c := range d.conns {
		conns = append(conns, c)
	}
	if d.hbStop != nil {
		close(d.hbStop)
		d.hbStop = nil
	}
	d.mu.Unlock()
	err := d.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	d.wg.Wait()
	return err
}

func (d *Daemon) handle(conn net.Conn) {
	defer conn.Close()
	hello, err := ReadMessage(conn)
	if err != nil || hello.Type != MsgHello || len(hello.Payload) < 1 {
		d.log.Warnf("bad handshake from %v: %v", conn.RemoteAddr(), err)
		return
	}
	role, peerVer, err := ParseHello(hello.Payload)
	if err != nil {
		d.log.Warnf("bad hello from %v: %v", conn.RemoteAddr(), err)
		return
	}
	if role != RoleRenderer && role != RoleDisplay {
		d.log.Warnf("unknown role %d", role)
		return
	}
	ver := NegotiateVersion(ProtoV3, peerVer)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	p := &peer{
		role:   role,
		conn:   conn,
		fr:     Framer{Version: ver},
		remote: fmt.Sprint(conn.RemoteAddr()),
		out:    make(chan Message, 4*d.bufferFrames),
		done:   make(chan struct{}),
	}
	p.lastSeen.Store(time.Now().UnixNano())
	d.nextID++
	p.id = d.nextID
	if role == RoleRenderer {
		d.renderers[p.id] = p
	} else {
		d.displays[p.id] = p
	}
	d.mu.Unlock()
	d.log.Infof("%s %d connected from %v (proto v%d)", role, p.id, conn.RemoteAddr(), ver+1)

	// Welcome ack: the peer's Dial blocks until registration is
	// complete, so frames sent right after connecting cannot race past
	// a display that is still registering. The welcome also carries
	// the negotiated version (legacy peers ignore the extra byte).
	if err := WriteMessage(conn, Message{Type: MsgHello, Payload: HelloPayload(role, ver)}); err != nil {
		d.mu.Lock()
		delete(d.renderers, p.id)
		delete(d.displays, p.id)
		d.mu.Unlock()
		close(p.done)
		return
	}

	defer func() {
		d.mu.Lock()
		delete(d.renderers, p.id)
		delete(d.displays, p.id)
		d.mu.Unlock()
		close(p.done)
		if p.evicted.Load() {
			d.log.Infof("%s %d evicted", role, p.id)
		} else {
			d.log.Infof("%s %d disconnected", role, p.id)
		}
	}()

	// Writer drains the outbound queue.
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			select {
			case m := <-p.out:
				if err := p.fr.WriteMessage(conn, m); err != nil {
					conn.Close()
					return
				}
			case <-p.done:
				return
			}
		}
	}()

	for {
		m, err := p.fr.ReadMessage(conn)
		if err != nil {
			if errors.Is(err, ErrChecksum) {
				// The stream is still frame-aligned: drop the corrupt
				// message so it is never forwarded, and keep serving.
				d.stats.CorruptDropped.Add(1)
				d.log.Warnf("corrupt message from %s %d dropped", role, p.id)
				continue
			}
			d.log.Infof("read from %s %d: %v", role, p.id, err)
			return
		}
		p.lastSeen.Store(time.Now().UnixNano())
		switch m.Type {
		case MsgImage:
			if role != RoleRenderer {
				d.log.Warnf("image from display %d ignored", p.id)
				continue
			}
			if tc := m.Trace; tc != nil {
				d.prov.Load().Record(provenance.Event{
					Trace: tc.TraceID, Frame: tc.FrameID, Hop: int(tc.Hop),
					Event: provenance.EvReceived, Bytes: len(m.Payload), Link: p.remote,
				})
			}
			d.forwardToDisplays(m)
		case MsgControl:
			if role != RoleDisplay {
				d.log.Warnf("control from renderer %d ignored", p.id)
				continue
			}
			d.routeToRenderers(m)
		case MsgAck:
			// Display receive reports: the plain daemon has no
			// adaptive layer to feed, so it just counts them.
			d.stats.AcksReceived.Add(1)
		case MsgAdvertise:
			// Codec advertisements matter to the stream broker only.
		case MsgPing:
			// Answer the peer's liveness probe, echoing its payload.
			select {
			case p.out <- Message{Type: MsgPong, Payload: m.Payload}:
			default:
			}
		case MsgPong:
			if sent, err := UnmarshalPing(m.Payload); err == nil {
				p.rttNS.Store(time.Now().UnixNano() - sent)
			}
		case MsgBye:
			return
		default:
			d.log.Warnf("unknown message type %d from %s %d", m.Type, role, p.id)
		}
	}
}

// forwardToDisplays enqueues an image for every display, dropping the
// oldest queued message when a display's buffer is full. A traced
// image is forwarded at the next hop ordinal.
func (d *Daemon) forwardToDisplays(m Message) {
	prov := d.prov.Load()
	if tc := m.Trace; tc != nil {
		fwd := *tc
		fwd.Hop++
		m.Trace = &fwd
		prov.Record(provenance.Event{
			Trace: tc.TraceID, Frame: tc.FrameID, Hop: int(tc.Hop),
			Event: provenance.EvRelayed, Bytes: len(m.Payload),
		})
	}
	d.mu.Lock()
	targets := make([]*peer, 0, len(d.displays))
	for _, p := range d.displays {
		targets = append(targets, p)
	}
	ifd := d.ifd
	if ifd != nil {
		now := time.Now()
		if !d.lastForward.IsZero() {
			ifd.ObserveDuration(now.Sub(d.lastForward))
		}
		d.lastForward = now
	}
	d.mu.Unlock()
	for _, p := range targets {
		for {
			select {
			case p.out <- m:
				d.stats.ImagesForwarded.Add(1)
				d.stats.BytesForwarded.Add(int64(len(m.Payload)))
			default:
				// Buffer full: drop the oldest and retry.
				select {
				case dropped := <-p.out:
					d.stats.ImagesDropped.Add(1)
					if tc := dropped.Trace; tc != nil {
						prov.Record(provenance.Event{
							Trace: tc.TraceID, Frame: tc.FrameID, Hop: int(tc.Hop),
							Event: provenance.EvDropped, Cause: "buffer-full",
						})
					}
				default:
				}
				continue
			}
			break
		}
	}
}

// routeToRenderers passes a control message to every renderer — the
// "remote callback" path.
func (d *Daemon) routeToRenderers(m Message) {
	d.mu.Lock()
	targets := make([]*peer, 0, len(d.renderers))
	for _, p := range d.renderers {
		targets = append(targets, p)
	}
	d.mu.Unlock()
	for _, p := range targets {
		select {
		case p.out <- m:
			d.stats.ControlsRouted.Add(1)
		case <-p.done:
		}
	}
}

// ListenAndServe starts a daemon on addr (e.g. "127.0.0.1:0") and
// serves on a background goroutine; the returned daemon is ready.
func ListenAndServe(addr string) (*Daemon, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	d := NewDaemon(ln)
	go func() {
		if err := d.Serve(); err != nil {
			log.Printf("transport: daemon serve: %v", err)
		}
	}()
	return d, nil
}
