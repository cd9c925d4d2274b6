package stream

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress/prog"
	"repro/internal/display"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/obs/provenance"
	"repro/internal/transport"
)

// BrokerStats counts broker-wide activity.
type BrokerStats struct {
	// PiecesIn and FramesIn count renderer input (pieces received,
	// complete frames assembled).
	PiecesIn atomic.Int64
	FramesIn atomic.Int64
	// Encodes counts actual encode invocations; with the fan-out cache
	// this is the cache miss count regardless of client count.
	Encodes atomic.Int64
	// FramesOut and BytesOut count frames delivered to clients.
	FramesOut atomic.Int64
	BytesOut  atomic.Int64
	// Drops counts frames discarded by per-client pacers.
	Drops atomic.Int64
	// ControlsRouted counts user-control messages relayed to
	// renderers.
	ControlsRouted atomic.Int64
	// CorruptDropped counts inbound messages dropped on CRC failure.
	CorruptDropped atomic.Int64
	// BusyRejected counts display handshakes refused with MsgBusy by
	// admission control.
	BusyRejected atomic.Int64
	// Shed counts admitted clients disconnected by the governor's
	// shed step under extreme memory pressure.
	Shed atomic.Int64
}

// Broker is the adaptive display daemon: renderers stream frames in
// (any registered codec), the broker decodes each frame once, and one
// session per display re-encodes it at that client's operating point —
// shared through the EncodeCache — and paces delivery to the client's
// link. It speaks the transport package's wire protocol, so existing
// renderer and display endpoints connect unchanged.
type Broker struct {
	cfg   Config
	cache *EncodeCache
	asm   *display.Assembler
	log   *obs.Logger

	// gov and the byte accounts are the broker's attachment to the
	// process resource governor (all nil-safe when unguarded).
	gov        *guard.Governor
	framesAcct *guard.Account
	pacerAcct  *guard.Account

	mu         sync.Mutex
	ln         net.Listener
	clients    map[int]*client
	renderers  map[int]*rendererPeer
	nextID     int
	closed     bool
	advertised []string

	// conns tracks every connection from ServeConn until its handler
	// exits, so Close can unblock handlers still waiting for a hello.
	conns map[net.Conn]struct{}

	// ctrlForward, when set, receives every user-control message in
	// addition to the connected renderers — the relay node's hook for
	// passing controls up the tree toward the render site.
	ctrlForward atomic.Pointer[func(transport.Message)]

	// Observability hooks (nil until Instrument/SetTracer): per-stage
	// histograms and the span tracer. Swapped atomically so the
	// sender hot path reads them without taking mu.
	tracer  atomic.Pointer[obs.Tracer]
	encodeH atomic.Pointer[obs.Histogram]
	sendH   atomic.Pointer[obs.Histogram]
	ifdH    atomic.Pointer[obs.Histogram]
	lastOut atomic.Int64 // unix nanos of the previous frame send

	// prov records per-frame provenance events when set (nil-safe),
	// and traces maps completed frame IDs to their wire trace context
	// so senders re-attach it (hop-bumped) on fan-out.
	prov    atomic.Pointer[provenance.Log]
	traceMu sync.Mutex
	traces  map[uint32]*transport.TraceCtx

	stats BrokerStats
	wg    sync.WaitGroup
}

type rendererPeer struct {
	id   int
	conn net.Conn
	wmu  sync.Mutex
}

// client is one display session.
type client struct {
	id     int
	kind   byte // transport.KindViewer or KindRelay
	remote string
	conn   net.Conn
	est    *Estimator
	ctrl   *Controller
	pacer  *Pacer

	sentMu sync.Mutex
	sent   map[uint32]time.Time

	// wmu serializes conn writes (frame sender vs. pong replies).
	wmu sync.Mutex

	// marshalBuf is the sender goroutine's reusable wire-marshal
	// scratch; only sender touches it, so no locking.
	marshalBuf []byte

	// lastPoint tracks the operating point the sender last encoded at,
	// so a ladder step mid-frame can invalidate the abandoned point's
	// cache entry. Sender-goroutine-local.
	lastPoint    Point
	lastPointSet bool

	// lastDrops is the pacer's drop count at the previous send; the
	// delta is the controller's congestion signal. Sender-goroutine-local.
	lastDrops int64

	framesSent atomic.Int64
	bytesSent  atomic.Int64
}

// ClientSnapshot is a point-in-time view of one session, for tables
// and experiment output.
type ClientSnapshot struct {
	ID         int
	Remote     string
	Point      Point
	Bandwidth  float64 // bytes per second, EWMA
	RTT        time.Duration
	FramesSent int64
	BytesSent  int64
	Drops      int64
	QueueLen   int
}

// NewBroker builds a broker; Serve or ServeConn attach connections.
func NewBroker(cfg Config) *Broker {
	cfg = cfg.withDefaults()
	b := &Broker{
		cfg:       cfg,
		cache:     NewEncodeCache(cfg.CacheFrames),
		asm:       display.NewAssembler(),
		log:       obs.NewLogger("broker"),
		clients:   map[int]*client{},
		renderers: map[int]*rendererPeer{},
		conns:     map[net.Conn]struct{}{},
		traces:    map[uint32]*transport.TraceCtx{},
	}
	if cfg.Logf != nil {
		// Config.Logf routes the component logger to the caller's
		// printf sink.
		b.log.SetFunc(cfg.Logf)
	}
	if cfg.Guard != nil {
		b.gov = cfg.Guard
		b.framesAcct = b.gov.Account("frames")
		b.pacerAcct = b.gov.Account("pacer")
		b.cache.SetGuard(b.gov.Account("encode-cache"), b.gov.CacheFillPaused)
		b.gov.OnShed(b.shedNewest)
	}
	return b
}

// Probe acquires and releases the broker's hot-path locks — the
// watchdog's deadlock self-check: it completes instantly on a healthy
// (even idle) broker and blocks when a lock holder is wedged.
func (b *Broker) Probe() {
	b.mu.Lock()
	//lint:ignore SA2001 the probe is exactly acquire-then-release
	b.mu.Unlock()
	b.traceMu.Lock()
	b.traceMu.Unlock()
}

// shedNewest disconnects the most recently admitted non-relay client,
// reporting whether one was found — the governor's last degradation
// step. Relay clients are spared: they serve whole subtrees.
func (b *Broker) shedNewest() bool {
	b.mu.Lock()
	var victim *client
	for _, c := range b.clients {
		if c.kind == transport.KindRelay {
			continue
		}
		if victim == nil || c.id > victim.id {
			victim = c
		}
	}
	b.mu.Unlock()
	if victim == nil {
		return false
	}
	b.stats.Shed.Add(1)
	b.log.Warnf("guard: shedding newest display %d (%s) under memory pressure", victim.id, victim.remote)
	// Closing the conn unwinds the session through the normal
	// disconnect path (reader errors, sender drains, pacer closes).
	victim.conn.Close()
	return true
}

// ListenAndServe starts a broker on addr and serves on a background
// goroutine.
func ListenAndServe(addr string, cfg Config) (*Broker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: listen %s: %w", addr, err)
	}
	b := NewBroker(cfg)
	b.mu.Lock()
	b.ln = ln
	b.mu.Unlock()
	go func() { _ = b.Serve(ln) }()
	return b, nil
}

// Addr returns the listen address (nil before Serve).
func (b *Broker) Addr() net.Addr {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ln == nil {
		return nil
	}
	return b.ln.Addr()
}

// Stats exposes the broker counters.
func (b *Broker) Stats() *BrokerStats { return &b.stats }

// Cache exposes the encode cache (stats: hits, misses, evictions).
func (b *Broker) Cache() *EncodeCache { return b.cache }

// SetControlForward installs a sink that receives every user-control
// message from display clients in addition to any connected renderers.
// A relay node forwards them to its upstream session, so controls from
// viewers at the tree's edge still reach the render site. Safe to call
// while serving; nil detaches.
func (b *Broker) SetControlForward(fn func(transport.Message)) {
	if fn == nil {
		b.ctrlForward.Store(nil)
		return
	}
	b.ctrlForward.Store(&fn)
}

// SetTracer attaches a span tracer: each client session records
// pace/encode/send spans on its own "client N" track, and frame
// ingest records on the "broker" track. Safe to call while serving;
// nil detaches.
func (b *Broker) SetTracer(t *obs.Tracer) { b.tracer.Store(t) }

// Instrument registers the broker's counters, encode/send-stage
// histograms, and a per-client collector on a metrics registry —
// absorbing BrokerStats, the cache stats and the client snapshots
// behind one exposition endpoint. Safe to call while serving.
func (b *Broker) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	st := &b.stats
	reg.CounterFunc("broker_pieces_in_total", "Renderer image pieces received.", st.PiecesIn.Load)
	reg.CounterFunc("broker_frames_in_total", "Complete frames assembled from renderer input.", st.FramesIn.Load)
	reg.CounterFunc("broker_encodes_total", "Actual encode invocations (cache misses).", st.Encodes.Load)
	reg.CounterFunc("broker_frames_out_total", "Frames delivered to display clients.", st.FramesOut.Load)
	reg.CounterFunc("broker_bytes_out_total", "Frame payload bytes delivered to display clients.", st.BytesOut.Load)
	reg.CounterFunc("broker_drops_total", "Frames discarded by per-client pacers.", st.Drops.Load)
	reg.CounterFunc("broker_controls_routed_total", "User-control messages relayed to renderers.", st.ControlsRouted.Load)
	reg.CounterFunc("broker_corrupt_dropped_total", "Inbound messages dropped on wire CRC failure.", st.CorruptDropped.Load)
	reg.CounterFunc("broker_busy_rejected_total", "Display handshakes refused with MsgBusy by admission control.", st.BusyRejected.Load)
	reg.CounterFunc("broker_shed_total", "Admitted clients disconnected by the governor's shed step.", st.Shed.Load)
	cs := b.cache.Stats()
	reg.CounterFunc("broker_cache_hits_total", "Encode fan-out cache hits.", cs.Hits.Load)
	reg.CounterFunc("broker_cache_misses_total", "Encode fan-out cache misses.", cs.Misses.Load)
	reg.CounterFunc("broker_cache_evictions_total", "Encode fan-out cache evictions.", cs.Evictions.Load)
	reg.GaugeFunc("broker_clients", "Connected display sessions.", func() float64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		return float64(len(b.clients))
	})
	b.encodeH.Store(reg.Histogram("broker_encode_seconds",
		"Per-frame encode (or cache lookup) time in the client sender."))
	b.sendH.Store(reg.Histogram("broker_send_seconds",
		"Per-frame socket write time in the client sender."))
	b.ifdH.Store(reg.Histogram("broker_interframe_delay_seconds",
		"Delay between consecutive frames sent to any client."))
	// Per-client sessions come and go; a collector re-emits their
	// snapshots with a client label at every scrape.
	reg.Collect(func(emit obs.Emit) {
		for _, snap := range b.ClientSnapshots() {
			label := fmt.Sprintf(`{client="%d"}`, snap.ID)
			emit("broker_client_frames_sent"+label, "Frames sent to this session.", "counter", float64(snap.FramesSent))
			emit("broker_client_bytes_sent"+label, "Bytes sent to this session.", "counter", float64(snap.BytesSent))
			emit("broker_client_drops"+label, "Frames dropped for this session.", "counter", float64(snap.Drops))
			emit("broker_client_queue_len"+label, "Paced frames queued for this session.", "gauge", float64(snap.QueueLen))
			emit("broker_client_bandwidth_Bps"+label, "Estimated link bandwidth to this session, bytes per second.", "gauge", snap.Bandwidth)
			emit("broker_client_rtt_ms"+label, "Smoothed ack round trip for this session.", "gauge", float64(snap.RTT)/float64(time.Millisecond))
			emit("broker_client_quality"+label, "Quality setting of this session's current ladder rung.", "gauge", float64(snap.Point.Quality))
		}
	})
}

// Serve accepts connections until the listener closes.
func (b *Broker) Serve(ln net.Listener) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		ln.Close()
		return nil
	}
	b.ln = ln
	b.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			b.mu.Lock()
			closed := b.closed
			b.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		b.ServeConn(conn)
	}
}

// ServeConn runs the handshake and session for one pre-established
// connection on a background goroutine — the hook tests and the bench
// use to wrap each accepted display connection in its own wan profile.
func (b *Broker) ServeConn(conn net.Conn) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		conn.Close()
		return
	}
	b.conns[conn] = struct{}{}
	b.wg.Add(1)
	b.mu.Unlock()
	go func() {
		defer b.wg.Done()
		defer func() {
			b.mu.Lock()
			delete(b.conns, conn)
			b.mu.Unlock()
		}()
		b.handle(conn)
	}()
}

// Close stops accepting, tears every session down (including
// connections still mid-handshake), and waits for all broker
// goroutines to exit.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	ln := b.ln
	for _, c := range b.clients {
		c.pacer.Close()
	}
	conns := make([]net.Conn, 0, len(b.conns))
	for c := range b.conns {
		conns = append(conns, c)
	}
	b.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	b.wg.Wait()
	// Drain the encode cache so the governor's resident-bytes ledger
	// returns to zero once every session has unwound.
	b.cache.Clear()
	return err
}

func (b *Broker) handle(conn net.Conn) {
	defer conn.Close()
	role, kind, err := transport.ReadHello(conn)
	if err != nil {
		b.log.Warnf("refused %v: %v", conn.RemoteAddr(), err)
		return
	}
	if role == transport.RoleRenderer {
		b.handleRenderer(conn)
	} else {
		b.handleDisplay(conn, kind)
	}
}

func (b *Broker) handleRenderer(conn net.Conn) {
	r := &rendererPeer{conn: conn}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.nextID++
	r.id = b.nextID
	b.renderers[r.id] = r
	b.mu.Unlock()
	// A renderer (re)connecting may restart its frame-ID sequence from
	// zero; a fresh cache generation keeps the previous sequence's
	// entries from being served as this one's frames.
	b.cache.BumpGeneration()
	defer func() {
		b.mu.Lock()
		delete(b.renderers, r.id)
		b.mu.Unlock()
		b.log.Infof("renderer %d disconnected", r.id)
	}()
	if err := transport.WriteWelcome(conn, transport.RoleRenderer); err != nil {
		return
	}
	b.log.Infof("renderer %d connected from %v", r.id, conn.RemoteAddr())
	remote := fmt.Sprint(conn.RemoteAddr())
	for {
		m, err := transport.ReadMessage(conn)
		if err != nil {
			if errors.Is(err, transport.ErrChecksum) {
				// Stream stays frame-aligned past a CRC failure: drop the
				// corrupt message and keep serving.
				b.stats.CorruptDropped.Add(1)
				b.log.Warnf("corrupt message from renderer %d dropped", r.id)
				continue
			}
			return
		}
		switch m.Type {
		case transport.MsgImage:
			if tc := m.Trace; tc != nil {
				b.prov.Load().Record(provenance.Event{
					Trace: tc.TraceID, Frame: tc.FrameID, Hop: int(tc.Hop),
					Event: provenance.EvReceived, Bytes: len(m.Payload), Link: remote,
				})
			}
			b.ingest(m.Payload, m.Trace)
		case transport.MsgAdvertise:
			b.setAdvertised(transport.UnmarshalAdvertise(m.Payload))
		case transport.MsgPing:
			// Liveness probe from a reconnect-capable server.
			r.wmu.Lock()
			_ = transport.WriteMessage(conn, transport.Message{Type: transport.MsgPong, Payload: m.Payload})
			r.wmu.Unlock()
		case transport.MsgBye:
			return
		}
	}
}

// setAdvertised restricts current and future controllers to the
// renderer's codec families.
func (b *Broker) setAdvertised(families []string) {
	if len(families) == 0 {
		return
	}
	b.mu.Lock()
	b.advertised = families
	clients := make([]*client, 0, len(b.clients))
	for _, c := range b.clients {
		clients = append(clients, c)
	}
	b.mu.Unlock()
	for _, c := range clients {
		c.ctrl.Restrict(families)
	}
	b.log.Infof("renderer advertises %v", families)
}

// SetProvenance attaches a frame-provenance log: ingest, encode, send
// and drop points record lifecycle events against the wire trace
// context, and senders forward the context hop-bumped. Safe to call
// while serving; nil detaches.
func (b *Broker) SetProvenance(l *provenance.Log) { b.prov.Store(l) }

// noteTrace remembers a completed frame's trace context for the
// senders, bounded to a recent-frame window.
func (b *Broker) noteTrace(frameID uint32, tc *transport.TraceCtx) {
	if tc == nil {
		return
	}
	b.traceMu.Lock()
	b.traces[frameID] = tc
	if len(b.traces) > 256 {
		for id := range b.traces {
			if id+128 < frameID {
				delete(b.traces, id)
			}
		}
	}
	b.traceMu.Unlock()
}

// traceFor recalls a frame's trace context (nil when untraced).
func (b *Broker) traceFor(frameID uint32) *transport.TraceCtx {
	b.traceMu.Lock()
	defer b.traceMu.Unlock()
	return b.traces[frameID]
}

// IngestImage feeds one marshaled image piece into the broker exactly
// as if it had arrived from a connected renderer, reporting the piece's
// frame ID and whether it completed a frame. It is the relay node's
// input path: frames received from the upstream daemon are re-served to
// this broker's own clients. tc is the piece's wire trace context (nil
// when untraced); the caller is expected to have recorded its own
// received event already.
func (b *Broker) IngestImage(payload []byte, tc *transport.TraceCtx) (frameID uint32, completed bool) {
	return b.ingest(payload, tc)
}

// ingest decodes one renderer image piece; when it completes a frame,
// the frame is offered to every client's pacer (never blocking — a
// full queue drops its oldest frame).
func (b *Broker) ingest(payload []byte, tc *transport.TraceCtx) (uint32, bool) {
	defer b.tracer.Load().Begin("broker", "stream", "ingest")()
	im, err := transport.UnmarshalImage(payload)
	if err != nil {
		b.log.Warnf("bad image: %v", err)
		return 0, false
	}
	b.stats.PiecesIn.Add(1)
	fr, err := b.asm.Ingest(im)
	if err != nil {
		b.log.Warnf("decode frame %d: %v", im.FrameID, err)
		return im.FrameID, false
	}
	if fr == nil {
		return im.FrameID, false
	}
	b.stats.FramesIn.Add(1)
	b.noteTrace(fr.ID, tc)
	if tc != nil {
		b.prov.Load().Record(provenance.Event{
			Trace: tc.TraceID, Frame: tc.FrameID, Hop: int(tc.Hop),
			Event: provenance.EvDecoded,
		})
	}
	sf := &SourceFrame{ID: fr.ID, Image: fr.Image}
	if b.framesAcct != nil {
		// Charge the decoded frame once; the creator reference below
		// keeps the charge alive until fan-out completes, then each
		// queued reference keeps it until consumed or dropped.
		sf.acct = b.framesAcct
		sf.refs.Store(1)
		b.framesAcct.Add(sf.Size())
	}
	b.mu.Lock()
	clients := make([]*client, 0, len(b.clients))
	for _, c := range b.clients {
		clients = append(clients, c)
	}
	b.mu.Unlock()
	for _, c := range clients {
		sf.retain()
		accepted, dropped := c.pacer.Offer(sf)
		if !accepted {
			sf.release()
		}
		for _, d := range dropped {
			b.stats.Drops.Add(1)
			if dtc := b.traceFor(d.ID); dtc != nil {
				b.prov.Load().Record(provenance.Event{
					Trace: dtc.TraceID, Frame: dtc.FrameID, Hop: int(dtc.Hop),
					Event: provenance.EvDropped, Cause: "pacer-full",
				})
			}
			d.release()
		}
	}
	sf.release()
	return fr.ID, true
}

func (b *Broker) handleDisplay(conn net.Conn, kind byte) {
	c := &client{
		kind:  kind,
		conn:  conn,
		est:   NewEstimator(b.cfg.Alpha),
		pacer: NewPacer(b.cfg.QueueDepth),
		sent:  map[uint32]time.Time{},
	}
	if ra := conn.RemoteAddr(); ra != nil {
		c.remote = ra.String()
	}
	c.ctrl = NewController(c.est, b.cfg.Target, b.cfg.Ladder, b.cfg.Alpha, b.cfg.UpHold)
	if b.gov != nil {
		c.pacer.SetGuard(b.pacerAcct, func() int { return b.gov.PacerDepth(b.cfg.QueueDepth) })
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	if ok, retry := b.gov.Admit(kind == transport.KindRelay, len(b.clients)); !ok {
		b.mu.Unlock()
		b.stats.BusyRejected.Add(1)
		b.log.Warnf("display from %v refused by admission control (retry after %v)", conn.RemoteAddr(), retry)
		_ = transport.WriteBusy(conn, retry, "over budget")
		return
	}
	b.nextID++
	c.id = b.nextID
	b.clients[c.id] = c
	advertised := b.advertised
	b.mu.Unlock()
	if len(advertised) > 0 {
		c.ctrl.Restrict(advertised)
	}
	defer func() {
		b.mu.Lock()
		delete(b.clients, c.id)
		b.mu.Unlock()
		c.pacer.Close()
		b.log.Infof("display %d disconnected", c.id)
	}()
	if err := transport.WriteWelcome(conn, transport.RoleDisplay); err != nil {
		return
	}
	b.log.Infof("display %d connected from %v", c.id, c.remote)

	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.sender(c)
	}()

	for {
		m, err := transport.ReadMessage(conn)
		if err != nil {
			if errors.Is(err, transport.ErrChecksum) {
				b.stats.CorruptDropped.Add(1)
				b.log.Warnf("corrupt message from display %d dropped", c.id)
				continue
			}
			return
		}
		switch m.Type {
		case transport.MsgAck:
			if ack, err := transport.UnmarshalAck(m.Payload); err == nil {
				b.onAck(c, ack)
			}
		case transport.MsgControl:
			b.routeToRenderers(m)
		case transport.MsgPing:
			// Liveness probe from a reconnect-capable viewer.
			c.wmu.Lock()
			_ = transport.WriteMessage(conn, transport.Message{Type: transport.MsgPong, Payload: m.Payload})
			c.wmu.Unlock()
		case transport.MsgBye:
			return
		}
	}
}

// onAck matches the display's receive report to the broker's send
// timestamp and feeds the round trip to the client's estimator.
func (b *Broker) onAck(c *client, ack *transport.AckMsg) {
	c.sentMu.Lock()
	t0, ok := c.sent[ack.FrameID]
	if ok {
		delete(c.sent, ack.FrameID)
	}
	c.sentMu.Unlock()
	if !ok {
		return
	}
	c.est.ObserveRTT(time.Since(t0))
}

// routeToRenderers relays a user-control message to every renderer and
// to the control-forward sink (the relay node's upstream path).
func (b *Broker) routeToRenderers(m transport.Message) {
	if fn := b.ctrlForward.Load(); fn != nil {
		(*fn)(m)
		b.stats.ControlsRouted.Add(1)
	}
	b.mu.Lock()
	rends := make([]*rendererPeer, 0, len(b.renderers))
	for _, r := range b.renderers {
		rends = append(rends, r)
	}
	b.mu.Unlock()
	for _, r := range rends {
		r.wmu.Lock()
		err := transport.WriteMessage(r.conn, m)
		r.wmu.Unlock()
		if err == nil {
			b.stats.ControlsRouted.Add(1)
		}
	}
}

// sender is the per-client delivery loop: newest paced frame → pick
// operating point → encode-once-per-point via the cache → timed write
// feeding the bandwidth estimator.
func (b *Broker) sender(c *client) {
	track := fmt.Sprintf("client %d", c.id)
	// On exit (write error or broker close) drain the pacer so every
	// queued frame's budget charge is refunded: the read loop's defer
	// closes the pacer once the conn errors, which unblocks Next here.
	defer func() {
		for {
			sf, ok := c.pacer.Next()
			if !ok {
				return
			}
			sf.release()
		}
	}()
	for {
		// The tracer is re-loaded each frame so SetTracer can attach
		// or detach while the session runs.
		tr := b.tracer.Load()
		endWait := tr.Begin(track, "stream", "wait")
		sf, ok := c.pacer.Next()
		endWait()
		if !ok {
			return
		}
		if b.gov != nil {
			// The governor's quality-step degradation: under pressure
			// every client is floored at or below a ladder midpoint.
			c.ctrl.SetFloor(b.gov.QualityFloor(c.ctrl.LadderLen()))
		}
		c.ctrl.Pick()
		// Frames the pacer evicted while the previous send was on the
		// wire are congestion evidence the bandwidth estimate can miss.
		drops := c.pacer.Drops()
		point := c.ctrl.ObserveDrops(drops - c.lastDrops)
		c.lastDrops = drops
		if c.est.Samples() == 0 && c.kind == transport.KindViewer {
			// Cold start: no bandwidth evidence yet, and this could be a
			// 45 KB/s transoceanic path. Ship the cheapest rung (the
			// progressive preview on the default ladder) as a probe —
			// the viewer gets a usable frame in well under a second on
			// any calibrated link, and the send seeds the estimator so
			// the next pick is informed.
			point = c.ctrl.ProbePoint()
		}
		if b.cfg.FixedPoint != nil {
			point = *b.cfg.FixedPoint
		}
		if c.lastPointSet && point != c.lastPoint {
			b.notePointChange(c, c.lastPoint, sf.ID)
		}
		c.lastPoint, c.lastPointSet = point, true
		encode := func() ([]byte, error) {
			codec, err := point.FrameCodec()
			if err != nil {
				return nil, err
			}
			b.stats.Encodes.Add(1)
			return codec.EncodeFrame(sf.Image)
		}
		var data []byte
		var err error
		encStart := time.Now()
		endEncode := tr.Begin(track, "stream", "encode", "frame", sf.ID, "point", point.String())
		if b.cfg.DisableCache {
			data, err = encode()
		} else {
			data, err = b.cache.GetOrEncode(sf.ID, point, encode)
		}
		endEncode()
		b.encodeH.Load().ObserveDuration(time.Since(encStart))
		// The decoded pixels are not needed past the encode; release the
		// queued reference now so the frames-in-flight charge refunds
		// even when the write below stalls on a slow client.
		sf.release()
		if err != nil {
			b.log.Warnf("encode frame %d at %s: %v", sf.ID, point, err)
			continue
		}
		tc := b.traceFor(sf.ID)
		if tc != nil {
			b.prov.Load().Record(provenance.Event{
				Trace: tc.TraceID, Frame: tc.FrameID, Hop: int(tc.Hop),
				Event: provenance.EvCompressed, Bytes: len(data), Cause: point.String(),
			})
		}
		c.ctrl.ObserveSize(point, len(data))
		// A full progressive frame goes out in two writes — the
		// standalone preview pass, then the refinement tail — so the
		// viewer paints a usable image from the first bytes and
		// refines in place. Relays keep the single-message form:
		// their dedup window marks a frame ID done once received,
		// and they re-encode per downstream link anyway.
		chunks := [...][]byte{data, nil}
		nchunks := 1
		if point.Codec == "prog" && point.Passes == 0 && c.kind != transport.KindRelay {
			if head, tail, ok := prog.SplitPreview(data); ok {
				chunks[0], chunks[1] = head, tail
				nchunks = 2
			}
		}
		c.sentMu.Lock()
		c.sent[sf.ID] = time.Now()
		// Bound the in-flight map: unacked frames older than the
		// window just stop contributing RTT samples.
		if len(c.sent) > 64 {
			for id := range c.sent {
				if id+64 < sf.ID {
					delete(c.sent, id)
				}
			}
		}
		c.sentMu.Unlock()
		totalSent := 0
		var sendTime time.Duration
		marshalFailed := false
		for ci := 0; ci < nchunks; ci++ {
			im := &transport.ImageMsg{
				FrameID:    sf.ID,
				PieceCount: 1,
				X1:         uint16(sf.Image.W), Y1: uint16(sf.Image.H),
				W: uint16(sf.Image.W), H: uint16(sf.Image.H),
				Codec: point.Family(),
				Data:  chunks[ci],
			}
			// Reuse the sender's scratch: WriteMessage below completes
			// before the next chunk rewrites it.
			payload, err := im.AppendTo(c.marshalBuf[:0])
			if err != nil {
				b.log.Warnf("marshal frame %d: %v", sf.ID, err)
				marshalFailed = true
				break
			}
			c.marshalBuf = payload
			out := transport.Message{Type: transport.MsgImage, Payload: payload}
			if tc != nil {
				// Forward the trace at the next hop ordinal.
				fwd := *tc
				fwd.Hop++
				out.Trace = &fwd
			}
			t0 := time.Now()
			endSend := tr.Begin(track, "stream", "send", "frame", sf.ID, "bytes", len(payload))
			c.wmu.Lock()
			err = transport.WriteMessage(c.conn, out)
			c.wmu.Unlock()
			endSend()
			if err != nil {
				c.conn.Close()
				return
			}
			sendTime += time.Since(t0)
			totalSent += len(payload)
		}
		if marshalFailed {
			continue
		}
		if tc != nil {
			b.prov.Load().Record(provenance.Event{
				Trace: tc.TraceID, Frame: tc.FrameID, Hop: int(tc.Hop),
				Event: provenance.EvSent, Bytes: totalSent, Link: c.remote,
			})
		}
		b.sendH.Load().ObserveDuration(sendTime)
		now := time.Now().UnixNano()
		if prev := b.lastOut.Swap(now); prev != 0 {
			b.ifdH.Load().ObserveDuration(time.Duration(now - prev))
		}
		c.est.Observe(totalSent, sendTime)
		c.framesSent.Add(1)
		c.bytesSent.Add(int64(totalSent))
		b.stats.FramesOut.Add(1)
		b.stats.BytesOut.Add(int64(totalSent))
	}
}

// notePointChange runs when a client's ladder steps away from old
// (usually a step-down under link pressure) while frame frameID is
// still being fanned out. If no other client still operates at old,
// its entry for the current frame is stale — nobody will request it
// again — so it is invalidated rather than left squatting in the
// bounded frame window until frame-age eviction.
func (b *Broker) notePointChange(c *client, old Point, frameID uint32) {
	b.mu.Lock()
	inUse := false
	for _, o := range b.clients {
		if o != c && o.ctrl.Current() == old {
			inUse = true
			break
		}
	}
	b.mu.Unlock()
	if !inUse {
		b.cache.Invalidate(frameID, old)
	}
}

// ClientSnapshots returns a stable view of every connected session,
// ordered by session ID.
func (b *Broker) ClientSnapshots() []ClientSnapshot {
	b.mu.Lock()
	clients := make([]*client, 0, len(b.clients))
	for _, c := range b.clients {
		clients = append(clients, c)
	}
	b.mu.Unlock()
	out := make([]ClientSnapshot, 0, len(clients))
	for _, c := range clients {
		out = append(out, ClientSnapshot{
			ID:         c.id,
			Remote:     c.remote,
			Point:      c.ctrl.Current(),
			Bandwidth:  c.est.Bandwidth(),
			RTT:        c.est.RTT(),
			FramesSent: c.framesSent.Load(),
			BytesSent:  c.bytesSent.Load(),
			Drops:      c.pacer.Drops(),
			QueueLen:   c.pacer.Len(),
		})
	}
	sortSnapshots(out)
	return out
}

func sortSnapshots(s []ClientSnapshot) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1].ID > s[j].ID; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}
