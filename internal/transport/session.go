package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrReconnecting is returned by Session.Send while the underlying
// connection is down and being re-established. Senders of periodic
// data (frames) typically drop the message and try again later.
var ErrReconnecting = errors.New("transport: session reconnecting")

// RetryPolicy paces reconnect attempts: exponential backoff from Base
// by Factor up to Max, each delay randomized by +/-Jitter to keep a
// fleet of clients from reconnecting in lockstep.
type RetryPolicy struct {
	// Base is the first retry delay (default 50ms).
	Base time.Duration
	// Max caps the backoff delay (default 5s).
	Max time.Duration
	// Factor is the per-attempt growth (default 2).
	Factor float64
	// Jitter is the +/- randomization fraction of each delay
	// (default 0.2; set negative for exactly zero jitter).
	Jitter float64
	// MaxAttempts bounds consecutive failed dials before the session
	// gives up with a terminal error (0 = 16).
	MaxAttempts int
}

// DefaultRetry is the standard wide-area reconnect policy.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{Base: 50 * time.Millisecond, Max: 5 * time.Second, Factor: 2, Jitter: 0.2, MaxAttempts: 16}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	def := DefaultRetry()
	if p.Base <= 0 {
		p.Base = def.Base
	}
	if p.Max <= 0 {
		p.Max = def.Max
	}
	if p.Factor < 1 {
		p.Factor = def.Factor
	}
	if p.Jitter == 0 {
		p.Jitter = def.Jitter
	} else if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	return p
}

// delay computes the backoff before attempt n (1-based).
func (p RetryPolicy) delay(attempt int, rng *rand.Rand) time.Duration {
	d := float64(p.Base)
	for i := 1; i < attempt; i++ {
		d *= p.Factor
		if d >= float64(p.Max) {
			d = float64(p.Max)
			break
		}
	}
	if p.Jitter > 0 && rng != nil {
		d *= 1 + p.Jitter*(2*rng.Float64()-1)
	}
	if d > float64(p.Max) {
		d = float64(p.Max)
	}
	return time.Duration(d)
}

// UpstreamBreaker is the circuit-breaker surface a session consults
// before each dial attempt (guard.Breaker implements it; the interface
// keeps transport free of a guard dependency). Allow gates the
// attempt; Success/Failure feed its outcome back.
type UpstreamBreaker interface {
	Allow() bool
	Success()
	Failure()
}

// SessionConfig configures an auto-reconnecting session.
type SessionConfig struct {
	// Role is the endpoint role announced at every handshake.
	Role Role
	// Kind is the client kind announced in the hello (KindViewer,
	// KindRelay); admission control prioritizes relays.
	Kind byte
	// Addr is dialed over TCP when Dial is nil; Wrap optionally
	// wraps each new socket (e.g. wan.Shape).
	Addr string
	Wrap func(net.Conn) net.Conn
	// Dial, when set, produces each raw connection (tests inject
	// fault-wrapped pipes here); it overrides Addr/Wrap.
	Dial func() (net.Conn, error)
	// Retry paces reconnect attempts (zero value = DefaultRetry).
	Retry RetryPolicy
	// Heartbeat, when positive, pings the daemon on this interval and
	// declares the link dead after PeerTimeout of inbound silence —
	// the only way to notice a stalled (partitioned) connection that
	// TCP keeps open.
	Heartbeat time.Duration
	// PeerTimeout is the silence threshold (default 3x Heartbeat).
	PeerTimeout time.Duration
	// OnConnect runs after every successful handshake (including the
	// first) — the hook for re-advertising codecs or re-subscribing.
	// An error tears the fresh connection down and counts as a
	// failed attempt.
	OnConnect func(*Endpoint) error
	// OnDisconnect observes every connection loss (with its cause)
	// before reconnection starts.
	OnDisconnect func(error)
	// Breaker, when set, circuit-breaks the upstream: Allow is
	// consulted before every dial (a refused attempt waits out the
	// backoff without touching the network, so a fleet of relays
	// stops hammering a dead parent), and each attempt's outcome is
	// reported back. Open-breaker refusals still consume reconnect
	// attempts, so MaxAttempts remains the terminal bound.
	Breaker UpstreamBreaker
	// Seed seeds the backoff jitter for reproducible schedules
	// (0 = 1).
	Seed int64
	// Logf receives reconnect diagnostics (nil silences).
	Logf func(format string, args ...any)
	// Sleep replaces time.Sleep between attempts (tests compress
	// time with it; nil = real sleep).
	Sleep func(time.Duration)
}

// SessionState is a Session health snapshot.
type SessionState struct {
	Connected      bool  `json:"connected"`
	Reconnects     int64 `json:"reconnects"`
	DialAttempts   int64 `json:"dial_attempts"`
	CorruptDropped int64 `json:"corrupt_dropped"`
}

// Session is a Link that survives connection loss: when the
// underlying endpoint dies it redials with exponential backoff and
// jitter, re-runs OnConnect (re-advertise, re-subscribe), and resumes
// delivering messages on the same Inbox channel. The inbox closes
// only on Close or when MaxAttempts consecutive dials fail (Err then
// reports the terminal error).
type Session struct {
	cfg   SessionConfig
	retry RetryPolicy

	mu  sync.Mutex
	ep  *Endpoint // nil while reconnecting
	rng *rand.Rand

	inbox chan Message
	done  chan struct{}
	once  sync.Once

	emu     sync.Mutex
	termErr error

	reconnects   atomic.Int64
	dialAttempts atomic.Int64
	corrupt      atomic.Int64
}

// NewSession dials the daemon (retrying per the policy) and starts
// the session. It returns an error only when the initial dial
// exhausts MaxAttempts.
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.Dial == nil {
		addr, wrap := cfg.Addr, cfg.Wrap
		cfg.Dial = func() (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			if wrap != nil {
				conn = wrap(conn)
			}
			return conn, nil
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	s := &Session{
		cfg:   cfg,
		retry: cfg.Retry.withDefaults(),
		rng:   rand.New(rand.NewSource(seed)),
		inbox: make(chan Message, 64),
		done:  make(chan struct{}),
	}
	ep, err := s.connect(true)
	if err != nil {
		return nil, err
	}
	go s.run(ep)
	return s, nil
}

// connect dials until an endpoint handshakes (and OnConnect accepts
// it) or attempts run out. The first overall connection skips the
// pre-dial backoff.
func (s *Session) connect(first bool) (*Endpoint, error) {
	var lastErr error
	for attempt := 1; attempt <= s.retry.MaxAttempts; attempt++ {
		if !first || attempt > 1 {
			s.mu.Lock()
			d := s.retry.delay(attempt, s.rng)
			s.mu.Unlock()
			s.cfg.Logf("transport: reconnect attempt %d/%d in %v", attempt, s.retry.MaxAttempts, d.Round(time.Millisecond))
			s.pause(d)
		}
		if s.closed() {
			return nil, fmt.Errorf("transport: session closed")
		}
		if br := s.cfg.Breaker; br != nil && !br.Allow() {
			// Circuit open: skip the network entirely and let the
			// backoff pace the next look at the breaker.
			if lastErr == nil {
				lastErr = fmt.Errorf("transport: upstream circuit open")
			}
			s.cfg.Logf("transport: attempt %d/%d skipped, upstream circuit open", attempt, s.retry.MaxAttempts)
			continue
		}
		s.dialAttempts.Add(1)
		conn, err := s.cfg.Dial()
		if err != nil {
			lastErr = err
			s.noteAttempt(err)
			continue
		}
		ep, err := NewEndpointKind(conn, s.cfg.Role, s.cfg.Kind)
		if err != nil {
			lastErr = err
			s.noteAttempt(err)
			if be := (*BusyError)(nil); errors.As(err, &be) && be.RetryAfter > 0 {
				// Honor the daemon's retry-after hint on top of the
				// backoff: reconnecting sooner would just be rejected
				// again.
				s.cfg.Logf("transport: daemon busy (%s), honoring retry-after %v", be.Reason, be.RetryAfter)
				s.pause(be.RetryAfter)
			}
			continue
		}
		if s.cfg.OnConnect != nil {
			if err := s.cfg.OnConnect(ep); err != nil {
				ep.Close()
				lastErr = err
				s.noteAttempt(err)
				continue
			}
		}
		s.noteAttempt(nil)
		return ep, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("transport: no dial attempts allowed")
	}
	return nil, fmt.Errorf("transport: giving up after %d attempts: %w", s.retry.MaxAttempts, lastErr)
}

// noteAttempt reports one dial attempt's outcome to the breaker.
func (s *Session) noteAttempt(err error) {
	br := s.cfg.Breaker
	if br == nil {
		return
	}
	if err == nil {
		br.Success()
	} else {
		br.Failure()
	}
}

// run pumps one endpoint after another into the session inbox.
func (s *Session) run(ep *Endpoint) {
	for {
		s.mu.Lock()
		s.ep = ep
		s.mu.Unlock()
		// Close() may have landed while no endpoint was installed
		// (mid-reconnect): it had nothing to close, so a freshly
		// connected endpoint would pump a closed session forever.
		if s.closed() {
			ep.Close()
			close(s.inbox)
			return
		}
		stopHB := s.startHeartbeat(ep)
		for m := range ep.Inbox() {
			select {
			case s.inbox <- m:
			case <-s.done:
			}
		}
		stopHB()
		cause := ep.Err()
		s.corrupt.Add(ep.CorruptDropped())
		s.mu.Lock()
		s.ep = nil
		s.mu.Unlock()
		if s.closed() {
			close(s.inbox)
			return
		}
		if s.cfg.OnDisconnect != nil {
			s.cfg.OnDisconnect(cause)
		}
		s.cfg.Logf("transport: link lost (%v), reconnecting", cause)
		next, err := s.connect(false)
		if err != nil {
			s.emu.Lock()
			s.termErr = err
			s.emu.Unlock()
			s.cfg.Logf("transport: %v", err)
			close(s.inbox)
			return
		}
		s.reconnects.Add(1)
		s.cfg.Logf("transport: reconnected")
		ep = next
	}
}

// startHeartbeat monitors one endpoint's liveness; the returned stop
// function ends the monitor (idempotent via channel close on return).
func (s *Session) startHeartbeat(ep *Endpoint) func() {
	if s.cfg.Heartbeat <= 0 {
		return func() {}
	}
	timeout := s.cfg.PeerTimeout
	if timeout <= 0 {
		timeout = 3 * s.cfg.Heartbeat
	}
	stop := make(chan struct{})
	go func() {
		tick := time.NewTicker(s.cfg.Heartbeat)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if time.Since(ep.LastRecv()) > timeout {
				s.cfg.Logf("transport: peer silent beyond %v, dropping link", timeout)
				// Close the raw socket (not ep.Close: a Bye write
				// could block forever on the very stall being
				// detected); the read loop then ends the inbox and
				// run() reconnects.
				ep.conn.Close()
				return
			}
			_ = ep.Ping()
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(stop) }) }
}

// pause waits out a backoff delay, returning early on Close.
func (s *Session) pause(d time.Duration) {
	if s.cfg.Sleep != nil {
		s.cfg.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.done:
	}
}

func (s *Session) closed() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Inbox delivers messages across reconnects; it closes on Close or
// when reconnection gives up.
func (s *Session) Inbox() <-chan Message { return s.inbox }

// Err reports the terminal session error (nil while the session is
// still live or after a clean Close).
func (s *Session) Err() error {
	s.emu.Lock()
	defer s.emu.Unlock()
	return s.termErr
}

// State snapshots session health.
func (s *Session) State() SessionState {
	s.mu.Lock()
	connected := s.ep != nil
	var corrupt int64
	if s.ep != nil {
		corrupt = s.ep.CorruptDropped()
	}
	s.mu.Unlock()
	return SessionState{
		Connected:      connected,
		Reconnects:     s.reconnects.Load(),
		DialAttempts:   s.dialAttempts.Load(),
		CorruptDropped: s.corrupt.Load() + corrupt,
	}
}

// Send writes through the current connection; while the link is down
// it fails fast with ErrReconnecting so frame producers can drop the
// frame and continue.
func (s *Session) Send(m Message) error {
	s.mu.Lock()
	ep := s.ep
	s.mu.Unlock()
	if ep == nil {
		return ErrReconnecting
	}
	return ep.Send(m)
}

// SendImage marshals and sends an image piece.
func (s *Session) SendImage(im *ImageMsg) error {
	p, err := im.Marshal()
	if err != nil {
		return err
	}
	return s.Send(Message{Type: MsgImage, Payload: p})
}

// SendControl marshals and sends a control message.
func (s *Session) SendControl(c *ControlMsg) error {
	p, err := c.Marshal()
	if err != nil {
		return err
	}
	return s.Send(Message{Type: MsgControl, Payload: p})
}

// Close ends the session and the current connection.
func (s *Session) Close() error {
	var err error
	s.once.Do(func() {
		close(s.done)
		s.mu.Lock()
		ep := s.ep
		s.mu.Unlock()
		if ep != nil {
			err = ep.Close()
		}
	})
	return err
}
