package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

// logSink collects a component's log lines.
type logSink struct {
	mu  sync.Mutex
	buf []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	l.buf = append(l.buf, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logSink) lines() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.buf...)
}

func (l *logSink) has(substr string) bool {
	for _, line := range l.lines() {
		if strings.Contains(line, substr) {
			return true
		}
	}
	return false
}

func TestErrTooLargeSentinel(t *testing.T) {
	// Read side: a length prefix over the limit is the distinct
	// ErrTooLarge, not a generic error.
	hdr := bytes.NewBuffer([]byte{0xff, 0xff, 0xff, 0xff, 1, flagCRC})
	if _, err := ReadMessage(hdr); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("read err = %v, want ErrTooLarge", err)
	}
	// Write side: an oversized payload is refused with the same
	// sentinel before anything hits the wire.
	huge := Message{Type: MsgImage, Payload: make([]byte, maxMessage+1)}
	var sink bytes.Buffer
	if err := WriteMessage(&sink, huge); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("write err = %v, want ErrTooLarge", err)
	}
	if sink.Len() != 0 {
		t.Fatalf("oversized write emitted %d bytes", sink.Len())
	}
}

func TestFramerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		{Type: MsgHello, Payload: HelloPayload(RoleDisplay, KindViewer)},
		{Type: MsgImage, Payload: bytes.Repeat([]byte{7}, 1000)},
		{Type: MsgPing, Payload: MarshalPing(42)},
		{Type: MsgBye},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("message %d mismatch", i)
		}
	}
}

// tamperFirstFrame writes an image frame and a control frame, flips
// the xor bits of byte off of the first, and checks that reading the
// first is ErrChecksum and that the stream stays aligned: the second
// frame reads clean.
func tamperFirstFrame(t *testing.T, off int, xor byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Type: MsgImage, Payload: bytes.Repeat([]byte{9}, 64)}); err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(&buf, Message{Type: MsgControl, Payload: []byte("intact")}); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	wire[off] ^= xor
	r := bytes.NewReader(wire)
	if m, err := ReadMessage(r); !errors.Is(err, ErrChecksum) {
		t.Fatalf("tampered frame read as type %d, err %v; want ErrChecksum", m.Type, err)
	}
	got, err := ReadMessage(r)
	if err != nil {
		t.Fatalf("next frame: %v", err)
	}
	if got.Type != MsgControl || string(got.Payload) != "intact" {
		t.Fatalf("next frame mismatch: %+v", got)
	}
}

func TestFramerV2DetectsCorruptionAndRealigns(t *testing.T) {
	tamperFirstFrame(t, 6+10, 0xFF) // a payload byte
}

func TestFramerV2DetectsTypeFlip(t *testing.T) {
	tamperFirstFrame(t, 4, 0xFF) // the type byte is covered by the CRC too
}

// TestReadMessageRejectsTamperedFrames: the flags byte is verified
// too, so a frame whose CRC bit is clear is not delivered unverified
// and an unknown flag bit is refused.
func TestReadMessageRejectsTamperedFrames(t *testing.T) {
	t.Run("flags-crc-bit-clear", func(t *testing.T) { tamperFirstFrame(t, 5, flagCRC) })
	t.Run("flags-unknown-bit", func(t *testing.T) { tamperFirstFrame(t, 5, 1<<2) })
}

// A valid hello round-trips its role and kind; another version, a
// short payload or an unknown role is refused.
func TestParseHello(t *testing.T) {
	for _, kind := range []byte{KindViewer, KindRelay} {
		role, k, err := ParseHello(HelloPayload(RoleDisplay, kind))
		if err != nil || role != RoleDisplay || k != kind {
			t.Fatalf("kind %d: hello = (%v, %d, %v)", kind, role, k, err)
		}
	}
	_, _, err := ParseHello([]byte{byte(RoleDisplay), 1})
	if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "only 2") {
		t.Fatalf("version-1 hello: err = %v, want one naming versions 1 and 2", err)
	}
	if _, _, err := ParseHello([]byte{byte(RoleDisplay)}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("one-byte hello: err = %v, want ErrTruncated", err)
	}
	if _, _, err := ParseHello([]byte{9, ProtoV3}); err == nil {
		t.Fatal("unknown role accepted")
	}
}

// versionOneHello is a correctly framed hello whose version byte is 1.
func versionOneHello(t *testing.T, conn net.Conn, role Role) {
	t.Helper()
	if err := WriteMessage(conn, Message{Type: MsgHello, Payload: []byte{byte(role), 1}}); err != nil {
		t.Fatal(err)
	}
}

// A daemon refuses a hello of another wire version: it logs why,
// closes the connection without a welcome, and never lists the peer.
func TestDaemonRefusesOtherVersionHello(t *testing.T) {
	testutil.CheckGoroutines(t)
	d, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var logs logSink
	d.SetLogf(logs.logf)
	conn, err := net.Dial("tcp", d.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	versionOneHello(t, conn, RoleDisplay)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if m, err := ReadMessage(conn); err == nil {
		t.Fatalf("refused peer got a type %d reply", m.Type)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("daemon kept the connection open")
	}
	if h := d.Health(); len(h) != 0 {
		t.Fatalf("refused peer listed: %+v", h)
	}
	if !logs.has("refused") || !logs.has("version 1") {
		t.Fatalf("no refusal logged: %q", logs.lines())
	}
}

// An endpoint refuses a welcome of another wire version with an error
// naming both versions.
func TestEndpointRefusesOtherVersionWelcome(t *testing.T) {
	srv, cli := net.Pipe()
	defer srv.Close()
	go func() {
		if _, err := ReadMessage(srv); err != nil {
			return
		}
		WriteMessage(srv, Message{Type: MsgHello, Payload: []byte{byte(RoleRenderer), 1}})
	}()
	ep, err := NewEndpoint(cli, RoleRenderer)
	if err == nil {
		ep.Close()
		t.Fatal("endpoint accepted a version-1 welcome")
	}
	if !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "only 2") {
		t.Fatalf("err = %v, want one naming versions 1 and 2", err)
	}
}

func TestEndpointPingMeasuresRTT(t *testing.T) {
	d, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ep, err := Dial(d.Addr().String(), RoleRenderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.Ping(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ep.rttNS.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if ep.rttNS.Load() <= 0 {
		t.Fatal("no pong observed")
	}
}

func TestDaemonEvictsMutePeer(t *testing.T) {
	d, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetHeartbeat(10*time.Millisecond, 40*time.Millisecond)

	// Handshake by hand, then go mute: no pongs, ever.
	conn, err := net.Dial("tcp", d.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteMessage(conn, Message{Type: MsgHello, Payload: HelloPayload(RoleDisplay, KindViewer)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(conn); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().PeersEvicted.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := d.Stats().PeersEvicted.Load(); got != 1 {
		t.Fatalf("PeersEvicted = %d, want 1", got)
	}
	if d.Stats().PingsSent.Load() == 0 {
		t.Fatal("no heartbeat pings were sent")
	}
	// The evicted connection is actually closed.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1024)
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
}

func TestEndpointDropsCorruptFramesAndCounts(t *testing.T) {
	// Daemon -> endpoint direction: feed the endpoint a corrupt frame
	// by hand and verify it is counted, dropped, and the
	// connection survives.
	srv, cli := net.Pipe()
	defer srv.Close()
	go func() {
		// Daemon side of the handshake.
		ReadMessage(srv)
		WriteWelcome(srv, RoleDisplay)
		var buf bytes.Buffer
		WriteMessage(&buf, Message{Type: MsgControl, Payload: []byte("bad")})
		wire := buf.Bytes()
		wire[6] ^= 0xFF // corrupt the first payload byte
		srv.Write(wire)
		WriteMessage(srv, Message{Type: MsgControl, Payload: []byte("good")})
		// Drain the endpoint's writes so pings/byes never block.
		for {
			if _, err := ReadMessage(srv); err != nil {
				return
			}
		}
	}()
	ep, err := NewEndpoint(cli, RoleDisplay)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	select {
	case m := <-ep.Inbox():
		if string(m.Payload) != "good" {
			t.Fatalf("delivered %q, want the clean frame", m.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("clean frame never arrived")
	}
	if got := ep.CorruptDropped(); got != 1 {
		t.Fatalf("CorruptDropped = %d, want 1", got)
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{Base: time.Millisecond, Max: 16 * time.Millisecond, Factor: 2, Jitter: -1, MaxAttempts: 8}.withDefaults()
	want := []time.Duration{1, 2, 4, 8, 16, 16}
	for i, w := range want {
		if got := p.delay(i+1, nil); got != w*time.Millisecond {
			t.Errorf("delay(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	// Jitter is deterministic under a fixed seed and bounded.
	j := RetryPolicy{Base: 10 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.5, MaxAttempts: 8}
	mk := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		var out []time.Duration
		for a := 1; a <= 5; a++ {
			d := j.delay(a, rng)
			base := time.Duration(float64(10*time.Millisecond) * pow(2, a-1))
			if d < base/2 || d > base+base/2 {
				t.Errorf("attempt %d: delay %v outside +/-50%% of %v", a, d, base)
			}
			out = append(out, d)
		}
		return out
	}
	a, b := mk(3), mk(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func pow(b float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= b
	}
	return out
}

func TestSessionGivesUpAfterBoundedAttempts(t *testing.T) {
	var sleeps []time.Duration
	_, err := NewSession(SessionConfig{
		Role: RoleRenderer,
		Dial: func() (net.Conn, error) { return nil, errors.New("refused") },
		Retry: RetryPolicy{Base: time.Millisecond, Max: 8 * time.Millisecond,
			Factor: 2, Jitter: -1, MaxAttempts: 5},
		Sleep: func(d time.Duration) { sleeps = append(sleeps, d) },
	})
	if err == nil {
		t.Fatal("session connected through a dead dialer")
	}
	// Attempt 1 dials immediately; attempts 2..5 back off
	// exponentially up to the cap.
	want := []time.Duration{2, 4, 8, 8}
	if len(sleeps) != len(want) {
		t.Fatalf("sleeps = %v, want %d backoffs", sleeps, len(want))
	}
	for i, w := range want {
		if sleeps[i] != w*time.Millisecond {
			t.Errorf("backoff %d = %v, want %v", i, sleeps[i], w*time.Millisecond)
		}
	}
}

func TestSessionSendFailsFastWhileDown(t *testing.T) {
	d, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := d.Addr().String()
	block := make(chan struct{})
	dials := 0
	s, err := NewSession(SessionConfig{
		Role: RoleRenderer,
		Dial: func() (net.Conn, error) {
			dials++
			if dials > 1 {
				<-block // hold reconnection down
			}
			return net.Dial("tcp", addr)
		},
		Retry: RetryPolicy{Base: time.Millisecond, Max: time.Millisecond, Factor: 1, Jitter: -1, MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d.Close() // drop the link
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := s.Send(Message{Type: MsgPing, Payload: MarshalPing(1)}); errors.Is(err, ErrReconnecting) {
			close(block)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(block)
	t.Fatal("Send never returned ErrReconnecting while down")
}

// TestV2HeaderLayout locks the untraced frame header: big-endian
// length first, then type and flags, so an old length-only reader
// rejects rather than misparses a frame.
func TestV2HeaderLayout(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Type: MsgImage, Payload: []byte{0xAB}}); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	if len(wire) != 6+1+4 {
		t.Fatalf("untraced frame length %d, want 11", len(wire))
	}
	if n := binary.BigEndian.Uint32(wire[:4]); n != 1 {
		t.Fatalf("length field = %d", n)
	}
	if wire[4] != byte(MsgImage) || wire[5] != flagCRC {
		t.Fatalf("type/flags = %x %x", wire[4], wire[5])
	}
}

// TestFramerV3TraceRoundTrip: the v3 optional trace block survives a
// write/read cycle intact, and untraced v3 messages omit the block
// entirely (flag clear, no extra bytes).
func TestFramerV3TraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tc := &TraceCtx{TraceID: 0xDEADBEEFCAFE, FrameID: 1293, Hop: 3, OriginUnixNano: 1_700_000_000_123_456_789}
	msgs := []Message{
		{Type: MsgImage, Payload: bytes.Repeat([]byte{7}, 500), Trace: tc},
		{Type: MsgImage, Payload: []byte{1, 2, 3}}, // untraced rides the same stream
		{Type: MsgAck, Payload: []byte{9}, Trace: &TraceCtx{TraceID: 1, FrameID: 2, Hop: 1}},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("msg %d payload mismatch", i)
		}
		if (got.Trace == nil) != (want.Trace == nil) {
			t.Fatalf("msg %d trace presence = %v, want %v", i, got.Trace != nil, want.Trace != nil)
		}
		if want.Trace != nil && *got.Trace != *want.Trace {
			t.Fatalf("msg %d trace = %+v, want %+v", i, got.Trace, want.Trace)
		}
	}
}

// TestFramerV3TraceCoveredByCRC: flipping a bit inside the trace block
// must fail the checksum — the trace is load-bearing routing metadata,
// not an unprotected annex.
func TestFramerV3TraceCoveredByCRC(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{
		Type: MsgImage, Payload: []byte{1, 2, 3},
		Trace: &TraceCtx{TraceID: 5, FrameID: 6, Hop: 1},
	}); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	wire[6] ^= 0xFF // first byte of the trace block (after 6-byte header)
	if _, err := ReadMessage(bytes.NewReader(wire)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted trace read err = %v, want ErrChecksum", err)
	}
}

// TestDaemonTracedRendererTwoDisplays: a traced renderer's frame
// reaches both displays on the daemon with the trace context intact
// and the hop advanced.
func TestDaemonTracedRendererTwoDisplays(t *testing.T) {
	d, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var displays []*Endpoint
	for i := 0; i < 2; i++ {
		disp, err := Dial(d.Addr().String(), RoleDisplay, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer disp.Close()
		displays = append(displays, disp)
	}
	rend, err := Dial(d.Addr().String(), RoleRenderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rend.Close()

	payload := bytes.Repeat([]byte{3}, 64)
	if err := rend.Send(Message{
		Type: MsgImage, Payload: payload,
		Trace: &TraceCtx{TraceID: 77, FrameID: 8, Hop: 1, OriginUnixNano: 42},
	}); err != nil {
		t.Fatal(err)
	}
	for i, disp := range displays {
		select {
		case m := <-disp.Inbox():
			if m.Type != MsgImage || !bytes.Equal(m.Payload, payload) {
				t.Fatalf("display %d got type %d, %d bytes", i, m.Type, len(m.Payload))
			}
			if m.Trace == nil {
				t.Fatalf("display %d lost the trace context", i)
			}
			if *m.Trace != (TraceCtx{TraceID: 77, FrameID: 8, Hop: 2, OriginUnixNano: 42}) {
				t.Fatalf("display %d: forwarded trace = %+v, want id 77 frame 8 hop 2 origin 42", i, m.Trace)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("display %d never received the frame", i)
		}
	}
}

// TestV3HeaderLayout locks the traced-frame wire layout: 6-byte
// header, flagTrace set, 21-byte trace block big-endian, then payload
// and CRC trailer.
func TestV3HeaderLayout(t *testing.T) {
	var buf bytes.Buffer
	err := WriteMessage(&buf, Message{
		Type: MsgImage, Payload: []byte{0xAB},
		Trace: &TraceCtx{TraceID: 0x0102030405060708, FrameID: 0x0A0B0C0D, Hop: 2, OriginUnixNano: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	if len(wire) != 6+21+1+4 {
		t.Fatalf("traced frame length %d, want 32", len(wire))
	}
	if n := binary.BigEndian.Uint32(wire[:4]); n != 1 {
		t.Fatalf("length field = %d, want payload-only 1", n)
	}
	if wire[5] != flagCRC|flagTrace {
		t.Fatalf("flags = %x, want CRC|trace", wire[5])
	}
	if id := binary.BigEndian.Uint64(wire[6:14]); id != 0x0102030405060708 {
		t.Fatalf("trace id on wire = %x", id)
	}
	if f := binary.BigEndian.Uint32(wire[14:18]); f != 0x0A0B0C0D {
		t.Fatalf("frame id on wire = %x", f)
	}
	if wire[18] != 2 {
		t.Fatalf("hop on wire = %d", wire[18])
	}
}
