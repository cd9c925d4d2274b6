package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Link is the endpoint surface the renderer and display interfaces
// program against: a plain Endpoint (one connection, dies with it) or
// a Session (auto-reconnecting) both implement it.
type Link interface {
	// Inbox delivers messages from the daemon.
	Inbox() <-chan Message
	// Send writes a message to the daemon; safe for concurrent use.
	Send(Message) error
	// SendImage marshals and sends an image piece.
	SendImage(*ImageMsg) error
	// SendControl marshals and sends a control message.
	SendControl(*ControlMsg) error
	// Err reports the error that ended the link (nil while healthy).
	Err() error
	// Close shuts the link down.
	Close() error
}

// Endpoint is one side's connection to the display daemon: the
// renderer interface (role renderer) or the display interface (role
// display). It serializes writes and delivers inbound messages on a
// channel. Liveness probes (MsgPing) from the peer are answered
// automatically; frames that fail their CRC are counted and dropped
// without surfacing on the inbox.
type Endpoint struct {
	conn net.Conn

	wmu sync.Mutex

	inbox chan Message
	done  chan struct{}
	once  sync.Once

	emu     sync.Mutex
	readErr error

	// lastRecv is the wall-clock nanos of the most recent inbound
	// message (any type) — the signal heartbeat monitors watch.
	lastRecv atomic.Int64
	// rttNS is the round-trip observed by the most recent pong.
	rttNS atomic.Int64
	// corrupt counts CRC-failed frames dropped by the read loop.
	corrupt atomic.Int64
}

// ErrBusy is the sentinel for admission-control rejections: the
// daemon answered the handshake with MsgBusy instead of a welcome.
// Match with errors.Is; the full *BusyError (retry-after hint,
// reason) is recoverable with errors.As.
var ErrBusy = errors.New("transport: daemon busy")

// BusyError is a handshake rejected by admission control.
type BusyError struct {
	// RetryAfter is the daemon's hint for when to try again.
	RetryAfter time.Duration
	// Reason is the daemon's short rejection cause.
	Reason string
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("transport: daemon busy (%s), retry after %v", e.Reason, e.RetryAfter)
}

// Is makes errors.Is(err, ErrBusy) match.
func (e *BusyError) Is(target error) bool { return target == ErrBusy }

// Dial connects to the daemon at addr with the given role, optionally
// wrapping the socket (e.g. with a wan.Shape) via wrap (nil = raw).
func Dial(addr string, role Role, wrap func(net.Conn) net.Conn) (*Endpoint, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	if wrap != nil {
		conn = wrap(conn)
	}
	return NewEndpoint(conn, role)
}

// NewEndpoint performs the handshake on an existing connection: it
// announces the role and wire version and waits for the daemon's
// welcome, so a successfully returned endpoint is fully registered. A
// welcome naming another wire version is an error.
func NewEndpoint(conn net.Conn, role Role) (*Endpoint, error) {
	return NewEndpointKind(conn, role, KindViewer)
}

// NewEndpointKind is NewEndpoint with an explicit client kind: relays
// announce KindRelay so the daemon's admission control can prioritize
// them over individual viewers. An over-budget daemon answers with
// MsgBusy; the returned error then matches ErrBusy and carries the
// retry-after hint as a *BusyError.
func NewEndpointKind(conn net.Conn, role Role, kind byte) (*Endpoint, error) {
	e := &Endpoint{conn: conn, inbox: make(chan Message, 64), done: make(chan struct{})}
	if err := WriteMessage(conn, Message{Type: MsgHello, Payload: HelloPayload(role, kind)}); err != nil {
		conn.Close()
		return nil, err
	}
	welcome, err := ReadMessage(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: handshake rejected: %w", err)
	}
	if welcome.Type == MsgBusy {
		conn.Close()
		retry, reason, perr := UnmarshalBusy(welcome.Payload)
		if perr != nil {
			reason = "overloaded"
		}
		return nil, &BusyError{RetryAfter: retry, Reason: reason}
	}
	if welcome.Type != MsgHello {
		conn.Close()
		return nil, fmt.Errorf("transport: unexpected handshake reply type %d", welcome.Type)
	}
	if _, _, err := ParseHello(welcome.Payload); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: handshake: %w", err)
	}
	e.lastRecv.Store(time.Now().UnixNano())
	go e.readLoop()
	return e, nil
}

// CorruptDropped reports CRC-failed frames dropped by the read loop.
func (e *Endpoint) CorruptDropped() int64 { return e.corrupt.Load() }

// LastRecv returns the time of the most recent inbound message.
func (e *Endpoint) LastRecv() time.Time { return time.Unix(0, e.lastRecv.Load()) }

// Ping sends a liveness probe carrying the current clock; the pong
// records the round trip.
func (e *Endpoint) Ping() error {
	return e.Send(Message{Type: MsgPing, Payload: MarshalPing(time.Now().UnixNano())})
}

func (e *Endpoint) readLoop() {
	for {
		m, err := ReadMessage(e.conn)
		if err != nil {
			// A checksum failure leaves the stream aligned on the next
			// frame: drop the corrupt message and keep reading rather
			// than killing a healthy connection over one flipped bit.
			if errors.Is(err, ErrChecksum) {
				e.corrupt.Add(1)
				continue
			}
			e.emu.Lock()
			e.readErr = err
			e.emu.Unlock()
			close(e.inbox)
			return
		}
		e.lastRecv.Store(time.Now().UnixNano())
		switch m.Type {
		case MsgPing:
			// Liveness probe: answer on the endpoint's clock, echoing
			// the payload; never delivered to the inbox.
			_ = e.Send(Message{Type: MsgPong, Payload: m.Payload})
			continue
		case MsgPong:
			if sent, err := UnmarshalPing(m.Payload); err == nil {
				e.rttNS.Store(time.Now().UnixNano() - sent)
			}
			continue
		}
		// Selecting on done keeps the loop from blocking forever on a
		// full inbox nobody drains after Close (goroutine leak).
		select {
		case e.inbox <- m:
		case <-e.done:
			close(e.inbox)
			return
		}
	}
}

// Inbox delivers messages from the daemon; it closes when the
// connection drops.
func (e *Endpoint) Inbox() <-chan Message { return e.inbox }

// Err returns the read error that ended the inbox (nil while open or
// after a clean close).
func (e *Endpoint) Err() error {
	e.emu.Lock()
	defer e.emu.Unlock()
	return e.readErr
}

// Send writes a message to the daemon; safe for concurrent use.
func (e *Endpoint) Send(m Message) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	return WriteMessage(e.conn, m)
}

// SendImage marshals and sends an image piece.
func (e *Endpoint) SendImage(im *ImageMsg) error {
	p, err := im.Marshal()
	if err != nil {
		return err
	}
	return e.Send(Message{Type: MsgImage, Payload: p})
}

// SendControl marshals and sends a control message.
func (e *Endpoint) SendControl(c *ControlMsg) error {
	p, err := c.Marshal()
	if err != nil {
		return err
	}
	return e.Send(Message{Type: MsgControl, Payload: p})
}

// Close sends a best-effort Bye and closes the socket.
func (e *Endpoint) Close() error {
	var err error
	e.once.Do(func() {
		_ = e.Send(Message{Type: MsgBye})
		close(e.done)
		err = e.conn.Close()
	})
	return err
}
