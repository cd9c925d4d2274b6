// Package transport implements the paper's image-transport framework:
// a length-prefixed tagged-message wire protocol, the display daemon
// that relays images from render nodes to display clients and control
// messages ("remote callbacks") back, and the renderer/display
// interface endpoints.
//
// Every byte of every connection, the opening hello included, is one
// framing (ProtoV3): a 4-byte big-endian payload length, a type byte, a
// flags byte, an optional 21-byte trace-context block, the payload, and
// a CRC32 (IEEE) trailer over everything after the length. There is no
// version negotiation: a hello or welcome naming another version is
// refused.
package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"time"
)

// Role identifies an endpoint at handshake.
type Role byte

// Endpoint roles.
const (
	RoleRenderer Role = 1
	RoleDisplay  Role = 2
)

func (r Role) String() string {
	switch r {
	case RoleRenderer:
		return "renderer"
	case RoleDisplay:
		return "display"
	}
	return fmt.Sprintf("role(%d)", byte(r))
}

// MsgType tags a wire message.
type MsgType byte

// Wire message types.
const (
	// MsgHello opens a connection and, echoed by the daemon, accepts
	// it: payload is [role, version] plus an optional client-kind byte.
	MsgHello MsgType = 1
	// MsgImage carries one (piece of a) rendered frame.
	MsgImage MsgType = 2
	// MsgControl carries a tagged user-control message toward the
	// renderers.
	MsgControl MsgType = 3
	// MsgBye announces a clean shutdown of the peer.
	MsgBye MsgType = 4
	// MsgAck is a display's receive report for one frame: the feedback
	// signal the adaptive streaming layer uses to estimate RTT.
	MsgAck MsgType = 5
	// MsgAdvertise is a renderer's announcement of the codec families
	// it can produce (comma-separated names); the stream broker
	// restricts its quality ladder to advertised codecs.
	MsgAdvertise MsgType = 6
	// MsgPing is a liveness probe: payload is the sender's 8-byte
	// send timestamp (nanoseconds, opaque to the receiver). Endpoints
	// and daemons answer with MsgPong echoing the payload.
	MsgPing MsgType = 7
	// MsgPong answers a ping, echoing the ping payload so the sender
	// can compute the round-trip time on its own clock.
	MsgPong MsgType = 8
	// MsgBusy rejects a handshake: the daemon is over its admission
	// budget and the client should retry after the hinted delay
	// instead of being accepted and starving the admitted sessions.
	// Payload: 4-byte retry-after in milliseconds plus a reason
	// string. Sent in place of the welcome hello.
	MsgBusy MsgType = 9
)

// Client kinds, carried in an optional third hello byte so admission
// control can prioritize relays (which serve whole subtrees) over
// individual viewers. An absent byte means KindViewer.
const (
	// KindViewer is an individual display client.
	KindViewer byte = 0
	// KindRelay is a relay daemon's upstream connection.
	KindRelay byte = 1
)

// ProtoV3 is the wire version byte every hello and welcome carries.
// The flags byte of a v3 frame always sets flagCRC, so a corrupted
// frame is detected and dropped instead of displayed, and sets
// flagTrace when a trace-context block (trace ID, frame ID, hop
// ordinal, origin timestamp) sits between header and payload, so every
// process a frame crosses can log provenance events against a shared
// identity. The value 2 is historical: earlier framings used 0 and 1.
const ProtoV3 byte = 2

// Header flag bits. A frame whose flags are anything but flagCRC or
// flagCRC|flagTrace fails verification.
const (
	flagCRC   byte = 1 << 0
	flagTrace byte = 1 << 1
)

// traceCtxSize is the wire size of a TraceCtx block.
const traceCtxSize = 21

// TraceCtx is the compact per-frame trace context carried in v3
// framing: enough identity to correlate provenance events recorded by
// every process the frame crosses, cheap enough to ride every image
// message.
type TraceCtx struct {
	// TraceID identifies the originating stream (one render session);
	// random per origin process.
	TraceID uint64
	// FrameID is the frame sequence number within the trace.
	FrameID uint32
	// Hop counts forwarding steps from the origin (renderer = 0); each
	// re-forwarder increments it.
	Hop uint8
	// OriginUnixNano is the origin's wall clock when the frame left the
	// renderer, used for end-to-end frame-age budgets.
	OriginUnixNano int64
}

// appendTo serializes the trace context.
func (t *TraceCtx) appendTo(out []byte) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], t.TraceID)
	out = append(out, b[:]...)
	binary.BigEndian.PutUint32(b[:4], t.FrameID)
	out = append(out, b[:4]...)
	out = append(out, t.Hop)
	binary.BigEndian.PutUint64(b[:], uint64(t.OriginUnixNano))
	return append(out, b[:]...)
}

// parseTraceCtx deserializes a trace-context block.
func parseTraceCtx(p []byte) (*TraceCtx, error) {
	if len(p) < traceCtxSize {
		return nil, ErrTruncated
	}
	return &TraceCtx{
		TraceID:        binary.BigEndian.Uint64(p),
		FrameID:        binary.BigEndian.Uint32(p[8:]),
		Hop:            p[12],
		OriginUnixNano: int64(binary.BigEndian.Uint64(p[13:])),
	}, nil
}

// maxMessage bounds a wire message to keep a corrupt length prefix
// from exhausting memory (64 MiB fits a raw 2048^2 frame with room).
const maxMessage = 64 << 20

// ErrTooLarge reports a length prefix beyond the wire limit — either
// a legitimately oversized frame on the write side or, on the read
// side, a corrupted length field. Callers distinguish it from other
// read errors with errors.Is.
var ErrTooLarge = errors.New("transport: message exceeds size limit")

// ErrChecksum reports a frame whose CRC32 trailer does not match its
// contents or whose flags are not a valid combination. The stream
// position is past the frame when it is returned, so callers may drop
// the message and keep reading.
var ErrChecksum = errors.New("transport: message checksum mismatch")

// Message is one framed unit.
type Message struct {
	Type    MsgType
	Payload []byte
	// Trace is the optional provenance context (nil when untraced).
	Trace *TraceCtx
}

// WriteMessage frames and writes one message, with a trace-context
// block when m.Trace is set.
func WriteMessage(w io.Writer, m Message) error {
	if len(m.Payload) > maxMessage {
		return fmt.Errorf("transport: message of %d bytes: %w", len(m.Payload), ErrTooLarge)
	}
	var hdr [6]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(m.Payload)))
	hdr[4] = byte(m.Type)
	hdr[5] = flagCRC
	var trace []byte
	if m.Trace != nil {
		hdr[5] |= flagTrace
		var buf [traceCtxSize]byte
		trace = m.Trace.appendTo(buf[:0])
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[4:6])
	crc.Write(trace)
	crc.Write(m.Payload)
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], crc.Sum32())
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(trace) > 0 {
		if _, err := w.Write(trace); err != nil {
			return err
		}
	}
	if _, err := w.Write(m.Payload); err != nil {
		return err
	}
	_, err := w.Write(trailer[:])
	return err
}

// ReadMessage reads one framed message and verifies it. A frame whose
// CRC32 trailer does not match, or whose flags are invalid, returns
// ErrChecksum with the stream advanced past the frame, so callers can
// drop it and continue; ErrTooLarge reports a length prefix over the
// limit, which usually means a corrupted header and is unrecoverable
// without a reconnect.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > maxMessage {
		return Message{}, fmt.Errorf("transport: message length %d: %w", n, ErrTooLarge)
	}
	extra := uint32(0)
	if hdr[5]&flagTrace != 0 {
		extra = traceCtxSize
	}
	body, err := readBody(r, int(extra+n+4))
	if err != nil {
		return Message{}, err
	}
	if flags := hdr[5]; flags != flagCRC && flags != flagCRC|flagTrace {
		return Message{}, fmt.Errorf("transport: flags %02x: %w", flags, ErrChecksum)
	}
	trace, payload, trailer := body[:extra], body[extra:extra+n], body[extra+n:]
	crc := crc32.NewIEEE()
	crc.Write(hdr[4:6])
	crc.Write(trace)
	crc.Write(payload)
	if got, want := crc.Sum32(), binary.BigEndian.Uint32(trailer); got != want {
		return Message{}, fmt.Errorf("transport: crc %08x != %08x: %w", got, want, ErrChecksum)
	}
	m := Message{Type: MsgType(hdr[4]), Payload: payload}
	if len(trace) > 0 {
		tc, err := parseTraceCtx(trace)
		if err != nil {
			return Message{}, err
		}
		m.Trace = tc
	}
	return m, nil
}

// Framer is the package-level framing as a value; its methods are
// WriteMessage and ReadMessage.
type Framer struct {
	// Version is unread: every connection speaks ProtoV3. It stays
	// only because the benchmark harness sets it; ROADMAP 0(a)'s
	// benchmark-only change is the place to drop it.
	Version byte
}

// WriteMessage is the package-level WriteMessage.
func (Framer) WriteMessage(w io.Writer, m Message) error { return WriteMessage(w, m) }

// ReadMessage is the package-level ReadMessage.
func (Framer) ReadMessage(r io.Reader) (Message, error) { return ReadMessage(r) }

// readChunk is the most ReadMessage allocates ahead of the bytes that
// have arrived. A length prefix is the peer's claim, and any peer that
// connects gets its hello read, so memory must follow the data, not
// the claim.
const readChunk = 64 << 10

// readBody reads exactly n bytes. A body of up to readChunk bytes is
// read into one allocation; a longer one arrives in readChunk pieces
// that are joined once the last has come.
func readBody(r io.Reader, n int) ([]byte, error) {
	if n <= readChunk {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	var pieces [][]byte
	for got := 0; got < n; {
		piece := make([]byte, min(readChunk, n-got))
		if _, err := io.ReadFull(r, piece); err != nil {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		pieces = append(pieces, piece)
		got += len(piece)
	}
	return bytes.Join(pieces, nil), nil
}

// HelloPayload builds a hello (or welcome) payload: the role, ProtoV3,
// and the client kind unless it is KindViewer.
func HelloPayload(role Role, kind byte) []byte {
	if kind == KindViewer {
		return []byte{byte(role), ProtoV3}
	}
	return []byte{byte(role), ProtoV3, kind}
}

// ParseHello validates a hello (or welcome) payload and returns its
// role and client kind. A version other than ProtoV3 or a role other
// than renderer or display is an error.
func ParseHello(p []byte) (Role, byte, error) {
	if len(p) < 2 {
		return 0, 0, fmt.Errorf("transport: hello of %d bytes: %w", len(p), ErrTruncated)
	}
	role, version := Role(p[0]), p[1]
	if version != ProtoV3 {
		return 0, 0, fmt.Errorf("transport: peer speaks wire version %d, this side only %d", version, ProtoV3)
	}
	if role != RoleRenderer && role != RoleDisplay {
		return 0, 0, fmt.Errorf("transport: unknown %v in hello", role)
	}
	kind := KindViewer
	if len(p) >= 3 {
		kind = p[2]
	}
	return role, kind, nil
}

// ReadHello reads the message that opens a connection and validates it
// as a hello, returning the peer's role and client kind. Daemons call
// it on every accepted connection and answer with WriteWelcome or
// WriteBusy.
func ReadHello(r io.Reader) (Role, byte, error) {
	m, err := ReadMessage(r)
	if err != nil {
		return 0, 0, err
	}
	if m.Type != MsgHello {
		return 0, 0, fmt.Errorf("transport: message type %d before hello", m.Type)
	}
	return ParseHello(m.Payload)
}

// WriteWelcome accepts a peer whose hello ReadHello returned role for.
func WriteWelcome(w io.Writer, role Role) error {
	return WriteMessage(w, Message{Type: MsgHello, Payload: HelloPayload(role, KindViewer)})
}

// WriteBusy refuses a hello: the peer should retry after retryAfter.
// The payload is the hint in milliseconds (4 bytes) and the reason.
func WriteBusy(w io.Writer, retryAfter time.Duration, reason string) error {
	p := binary.BigEndian.AppendUint32(nil, uint32(max(retryAfter.Milliseconds(), 0)))
	return WriteMessage(w, Message{Type: MsgBusy, Payload: append(p, reason...)})
}

// UnmarshalBusy parses a MsgBusy payload.
func UnmarshalBusy(p []byte) (retryAfter time.Duration, reason string, err error) {
	if len(p) < 4 {
		return 0, "", ErrTruncated
	}
	return time.Duration(binary.BigEndian.Uint32(p)) * time.Millisecond, string(p[4:]), nil
}

// MarshalPing builds a ping (or pong) payload from a sender-clock
// timestamp in nanoseconds.
func MarshalPing(nanos int64) []byte {
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, uint64(nanos))
	return out
}

// UnmarshalPing recovers the sender timestamp from a ping/pong
// payload.
func UnmarshalPing(p []byte) (int64, error) {
	if len(p) < 8 {
		return 0, ErrTruncated
	}
	return int64(binary.BigEndian.Uint64(p)), nil
}

// ImageMsg is the payload of MsgImage: one compressed piece of a
// frame. A full frame is PieceCount pieces covering [0,W)x[0,H);
// single-piece frames have PieceCount 1.
type ImageMsg struct {
	// FrameID is the time step / sequence number.
	FrameID uint32
	// PieceIndex and PieceCount describe parallel-compression pieces.
	PieceIndex uint16
	PieceCount uint16
	// X0, Y0, X1, Y1 is the piece's region in the full frame.
	X0, Y0, X1, Y1 uint16
	// W, H are the full-frame dimensions.
	W, H uint16
	// Codec names the compression used for Data.
	Codec string
	// Data is the codec output for this piece.
	Data []byte
}

// ErrTruncated reports a structurally short payload.
var ErrTruncated = errors.New("transport: truncated payload")

// Marshal serializes the image message.
func (m *ImageMsg) Marshal() ([]byte, error) {
	return m.AppendTo(make([]byte, 0, 21+len(m.Codec)+len(m.Data)))
}

// AppendTo serializes the image message into out's spare capacity,
// growing it as needed, and returns the extended slice. Senders on a
// per-frame hot path keep one scratch buffer and pass it back with
// out[:0] each frame, making the marshal allocation-free at steady
// state.
func (m *ImageMsg) AppendTo(out []byte) ([]byte, error) {
	if len(m.Codec) > 255 {
		return nil, fmt.Errorf("transport: codec name too long")
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], m.FrameID)
	out = append(out, b[:]...)
	for _, v := range []uint16{m.PieceIndex, m.PieceCount, m.X0, m.Y0, m.X1, m.Y1, m.W, m.H} {
		binary.BigEndian.PutUint16(b[:2], v)
		out = append(out, b[:2]...)
	}
	out = append(out, byte(len(m.Codec)))
	out = append(out, m.Codec...)
	return append(out, m.Data...), nil
}

// UnmarshalImage parses an ImageMsg payload.
func UnmarshalImage(p []byte) (*ImageMsg, error) {
	if len(p) < 21 {
		return nil, ErrTruncated
	}
	m := &ImageMsg{FrameID: binary.BigEndian.Uint32(p)}
	vals := []*uint16{&m.PieceIndex, &m.PieceCount, &m.X0, &m.Y0, &m.X1, &m.Y1, &m.W, &m.H}
	off := 4
	for _, v := range vals {
		*v = binary.BigEndian.Uint16(p[off:])
		off += 2
	}
	nameLen := int(p[off])
	off++
	if len(p) < off+nameLen {
		return nil, ErrTruncated
	}
	m.Codec = string(p[off : off+nameLen])
	m.Data = p[off+nameLen:]
	if m.PieceCount == 0 {
		return nil, fmt.Errorf("transport: piece count 0")
	}
	if m.PieceIndex >= m.PieceCount {
		return nil, fmt.Errorf("transport: piece %d of %d", m.PieceIndex, m.PieceCount)
	}
	if m.X1 <= m.X0 || m.Y1 <= m.Y0 || m.X1 > m.W || m.Y1 > m.H {
		return nil, fmt.Errorf("transport: bad region [%d,%d)x[%d,%d) in %dx%d", m.X0, m.X1, m.Y0, m.Y1, m.W, m.H)
	}
	return m, nil
}

// AckMsg is the payload of MsgAck: the display's receive timestamp for
// one completed frame. The broker subtracts its own send timestamp to
// observe the effective round-trip of the feedback loop.
type AckMsg struct {
	// FrameID identifies the acknowledged frame.
	FrameID uint32
	// RecvUnixNano is the display's clock when the frame completed.
	RecvUnixNano int64
	// Bytes is the compressed payload size the display counted.
	Bytes uint32
}

// Marshal serializes the ack.
func (m *AckMsg) Marshal() []byte {
	out := make([]byte, 16)
	binary.BigEndian.PutUint32(out, m.FrameID)
	binary.BigEndian.PutUint64(out[4:], uint64(m.RecvUnixNano))
	binary.BigEndian.PutUint32(out[12:], m.Bytes)
	return out
}

// UnmarshalAck parses an AckMsg payload.
func UnmarshalAck(p []byte) (*AckMsg, error) {
	if len(p) < 16 {
		return nil, ErrTruncated
	}
	return &AckMsg{
		FrameID:      binary.BigEndian.Uint32(p),
		RecvUnixNano: int64(binary.BigEndian.Uint64(p[4:])),
		Bytes:        binary.BigEndian.Uint32(p[12:]),
	}, nil
}

// MarshalAdvertise serializes a codec-family advertisement.
func MarshalAdvertise(names []string) []byte {
	return []byte(strings.Join(names, ","))
}

// UnmarshalAdvertise parses an advertisement payload.
func UnmarshalAdvertise(p []byte) []string {
	if len(p) == 0 {
		return nil
	}
	return strings.Split(string(p), ",")
}

// ControlMsg is the payload of MsgControl: a tagged message passed
// through the daemon to every renderer interface as a remote callback.
type ControlMsg struct {
	// Tag names the callback ("view", "colormap", "codec", "start",
	// "stop", ...).
	Tag string
	// Data is the tag-specific payload.
	Data []byte
}

// Marshal serializes the control message.
func (m *ControlMsg) Marshal() ([]byte, error) {
	if len(m.Tag) > 255 {
		return nil, fmt.Errorf("transport: control tag too long")
	}
	out := make([]byte, 0, 1+len(m.Tag)+len(m.Data))
	out = append(out, byte(len(m.Tag)))
	out = append(out, m.Tag...)
	return append(out, m.Data...), nil
}

// UnmarshalControl parses a ControlMsg payload.
func UnmarshalControl(p []byte) (*ControlMsg, error) {
	if len(p) < 1 {
		return nil, ErrTruncated
	}
	n := int(p[0])
	if len(p) < 1+n {
		return nil, ErrTruncated
	}
	return &ControlMsg{Tag: string(p[1 : 1+n]), Data: p[1+n:]}, nil
}
