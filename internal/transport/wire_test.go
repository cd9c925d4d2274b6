package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"
)

func TestErrTooLargeSentinel(t *testing.T) {
	// Read side, both framings: a length prefix over the limit is the
	// distinct ErrTooLarge, not a generic error.
	v1 := bytes.NewBuffer([]byte{0xff, 0xff, 0xff, 0xff, 1})
	if _, err := ReadMessage(v1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("v1 err = %v, want ErrTooLarge", err)
	}
	v2 := bytes.NewBuffer([]byte{0xff, 0xff, 0xff, 0xff, 1, 1})
	if _, err := (Framer{Version: ProtoV2}).ReadMessage(v2); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("v2 err = %v, want ErrTooLarge", err)
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

func TestFramerV2RoundTrip(t *testing.T) {
	fr := Framer{Version: ProtoV2}
	var buf bytes.Buffer
	msgs := []Message{
		{Type: MsgHello, Payload: []byte{1, 1}},
		{Type: MsgImage, Payload: bytes.Repeat([]byte{7}, 1000)},
		{Type: MsgPing, Payload: MarshalPing(42)},
		{Type: MsgBye},
	}
	for _, m := range msgs {
		if err := fr.WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := fr.ReadMessage(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("message %d mismatch", i)
		}
	}
}

func TestFramerV2DetectsCorruptionAndRealigns(t *testing.T) {
	fr := Framer{Version: ProtoV2}
	var buf bytes.Buffer
	if err := fr.WriteMessage(&buf, Message{Type: MsgImage, Payload: bytes.Repeat([]byte{9}, 64)}); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteMessage(&buf, Message{Type: MsgControl, Payload: []byte("intact")}); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	wire[6+10] ^= 0xFF // flip a payload byte of the first frame

	r := bytes.NewReader(wire)
	if _, err := fr.ReadMessage(r); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	// The stream is still frame-aligned: the next message reads clean.
	got, err := fr.ReadMessage(r)
	if err != nil {
		t.Fatalf("post-corruption read: %v", err)
	}
	if got.Type != MsgControl || string(got.Payload) != "intact" {
		t.Fatalf("post-corruption message mismatch: %+v", got)
	}
}

func TestFramerV2DetectsTypeFlip(t *testing.T) {
	fr := Framer{Version: ProtoV2}
	var buf bytes.Buffer
	if err := fr.WriteMessage(&buf, Message{Type: MsgImage, Payload: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	wire[4] ^= 0xFF // the type byte is covered by the CRC too
	if _, err := fr.ReadMessage(bytes.NewReader(wire)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestNegotiateVersion(t *testing.T) {
	cases := []struct{ a, b, want byte }{
		{ProtoV1, ProtoV1, ProtoV1},
		{ProtoV2, ProtoV1, ProtoV1},
		{ProtoV1, ProtoV2, ProtoV1},
		{ProtoV2, ProtoV2, ProtoV2},
		{ProtoV3, ProtoV2, ProtoV2},
		{ProtoV3, ProtoV3, ProtoV3},
		{9, 7, ProtoV3}, // future versions cap at what we speak
	}
	for _, c := range cases {
		if got := NegotiateVersion(c.a, c.b); got != c.want {
			t.Errorf("NegotiateVersion(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestParseHelloLegacyAndV2(t *testing.T) {
	if role, v, err := ParseHello([]byte{byte(RoleDisplay)}); err != nil || role != RoleDisplay || v != ProtoV1 {
		t.Fatalf("legacy hello = (%v,%d,%v)", role, v, err)
	}
	if role, v, err := ParseHello(HelloPayload(RoleRenderer, ProtoV2)); err != nil || role != RoleRenderer || v != ProtoV2 {
		t.Fatalf("v2 hello = (%v,%d,%v)", role, v, err)
	}
	if _, _, err := ParseHello(nil); err == nil {
		t.Fatal("empty hello accepted")
	}
}

func TestEndpointNegotiatesV2(t *testing.T) {
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
	if ep.ProtoVersion() != ProtoV3 {
		t.Fatalf("negotiated v%d, want v%d", ep.ProtoVersion(), ProtoV3)
	}
	health := d.Health()
	if len(health) != 1 || health[0].Proto != ProtoV3 || !health[0].Healthy {
		t.Fatalf("health = %+v", health)
	}
}

// A legacy (v1-only) peer and a v2 peer interoperate through the
// daemon: the image crosses framings.
func TestLegacyPeerInterop(t *testing.T) {
	d, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	view, err := Dial(d.Addr().String(), RoleDisplay, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()

	// Legacy renderer: single-byte hello, v1 framing throughout.
	conn, err := net.Dial("tcp", d.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteMessage(conn, Message{Type: MsgHello, Payload: []byte{byte(RoleRenderer)}}); err != nil {
		t.Fatal(err)
	}
	welcome, err := ReadMessage(conn)
	if err != nil || welcome.Type != MsgHello {
		t.Fatalf("welcome = %+v, %v", welcome, err)
	}
	if _, v, _ := ParseHello(welcome.Payload); v != ProtoV1 {
		t.Fatalf("daemon offered v%d to legacy peer", v)
	}
	im := &ImageMsg{FrameID: 3, PieceCount: 1, X1: 4, Y1: 4, W: 4, H: 4, Codec: "raw", Data: []byte{1, 2}}
	p, err := im.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(conn, Message{Type: MsgImage, Payload: p}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-view.Inbox():
		if m.Type != MsgImage {
			t.Fatalf("got type %d", m.Type)
		}
		got, err := UnmarshalImage(m.Payload)
		if err != nil || got.FrameID != 3 {
			t.Fatalf("image = %+v, %v", got, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("image did not cross framings")
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

func TestDaemonEvictsSilentV2Peer(t *testing.T) {
	d, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetHeartbeat(10*time.Millisecond, 40*time.Millisecond)

	// Handshake as v2 by hand, then go silent: no pongs, ever.
	conn, err := net.Dial("tcp", d.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteMessage(conn, Message{Type: MsgHello, Payload: HelloPayload(RoleDisplay, ProtoV2)}); err != nil {
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

func TestDaemonNeverEvictsLegacyPeer(t *testing.T) {
	d, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetHeartbeat(5*time.Millisecond, 15*time.Millisecond)

	conn, err := net.Dial("tcp", d.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Legacy hello: the daemon cannot tell silent-but-healthy from
	// dead, so it must keep the peer.
	if err := WriteMessage(conn, Message{Type: MsgHello, Payload: []byte{byte(RoleDisplay)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(conn); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // many timeouts worth of silence
	if got := d.Stats().PeersEvicted.Load(); got != 0 {
		t.Fatalf("legacy peer evicted (%d)", got)
	}
	h := d.Health()
	if len(h) != 1 || h[0].Proto != ProtoV1 || !h[0].Healthy {
		t.Fatalf("health = %+v", h)
	}
}

func TestEndpointDropsCorruptFramesAndCounts(t *testing.T) {
	// Daemon -> endpoint direction: feed the endpoint a corrupt v2
	// frame by hand and verify it is counted, dropped, and the
	// connection survives.
	srv, cli := net.Pipe()
	defer srv.Close()
	go func() {
		// Daemon side of the handshake.
		ReadMessage(srv)
		WriteMessage(srv, Message{Type: MsgHello, Payload: HelloPayload(RoleDisplay, ProtoV2)})
		fr := Framer{Version: ProtoV2}
		var buf bytes.Buffer
		fr.WriteMessage(&buf, Message{Type: MsgControl, Payload: []byte("bad")})
		wire := buf.Bytes()
		wire[6] ^= 0xFF // corrupt the first payload byte
		srv.Write(wire)
		fr.WriteMessage(srv, Message{Type: MsgControl, Payload: []byte("good")})
		// Drain the endpoint's writes so pings/byes never block.
		for {
			if _, err := fr.ReadMessage(srv); err != nil {
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

// The proto version header must stay big-endian length-first so v1
// readers reject (rather than misparse) v2 frames; lock the layout.
func TestV2HeaderLayout(t *testing.T) {
	fr := Framer{Version: ProtoV2}
	var buf bytes.Buffer
	if err := fr.WriteMessage(&buf, Message{Type: MsgImage, Payload: []byte{0xAB}}); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	if len(wire) != 6+1+4 {
		t.Fatalf("v2 frame length %d, want 11", len(wire))
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
	fr := Framer{Version: ProtoV3}
	var buf bytes.Buffer
	tc := &TraceCtx{TraceID: 0xDEADBEEFCAFE, FrameID: 1293, Hop: 3, OriginUnixNano: 1_700_000_000_123_456_789}
	msgs := []Message{
		{Type: MsgImage, Payload: bytes.Repeat([]byte{7}, 500), Trace: tc},
		{Type: MsgImage, Payload: []byte{1, 2, 3}}, // untraced rides the same stream
		{Type: MsgAck, Payload: []byte{9}, Trace: &TraceCtx{TraceID: 1, FrameID: 2, Hop: 1}},
	}
	for _, m := range msgs {
		if err := fr.WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := fr.ReadMessage(&buf)
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
	fr := Framer{Version: ProtoV3}
	var buf bytes.Buffer
	if err := fr.WriteMessage(&buf, Message{
		Type: MsgImage, Payload: []byte{1, 2, 3},
		Trace: &TraceCtx{TraceID: 5, FrameID: 6, Hop: 1},
	}); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	wire[6] ^= 0xFF // first byte of the trace block (after 6-byte header)
	if _, err := (Framer{Version: ProtoV3}).ReadMessage(bytes.NewReader(wire)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted trace read err = %v, want ErrChecksum", err)
	}
}

// TestOlderFramersStripTrace: a message carrying a trace context
// written at v1 or v2 framing loses the trace silently — the exact
// behavior that lets a v3 sender talk to a v2-negotiated peer.
func TestOlderFramersStripTrace(t *testing.T) {
	for _, ver := range []byte{ProtoV1, ProtoV2} {
		fr := Framer{Version: ver}
		var buf bytes.Buffer
		if err := fr.WriteMessage(&buf, Message{
			Type: MsgImage, Payload: []byte{4, 5},
			Trace: &TraceCtx{TraceID: 9, FrameID: 1, Hop: 1},
		}); err != nil {
			t.Fatalf("v%d: %v", ver, err)
		}
		got, err := fr.ReadMessage(&buf)
		if err != nil {
			t.Fatalf("v%d: %v", ver, err)
		}
		if got.Trace != nil {
			t.Fatalf("v%d framing leaked a trace context", ver)
		}
		if !bytes.Equal(got.Payload, []byte{4, 5}) {
			t.Fatalf("v%d payload mismatch", ver)
		}
	}
}

// TestDaemonMixedVersionPeers: a v3 renderer with trace contexts and a
// legacy v2 display on the same daemon. The v2 display must receive
// every frame in clean v2 framing (no trace bytes), while a v3 display
// sees the forwarded trace with the hop advanced.
func TestDaemonMixedVersionPeers(t *testing.T) {
	d, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// v2 display: raw handshake pinned at ProtoV2.
	v2conn, err := net.Dial("tcp", d.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer v2conn.Close()
	if err := WriteMessage(v2conn, Message{Type: MsgHello, Payload: HelloPayload(RoleDisplay, ProtoV2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(v2conn); err != nil {
		t.Fatal(err)
	}
	v2fr := Framer{Version: ProtoV2}

	// v3 display: the normal endpoint path.
	v3disp, err := Dial(d.Addr().String(), RoleDisplay, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer v3disp.Close()

	rend, err := Dial(d.Addr().String(), RoleRenderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rend.Close()
	if rend.ProtoVersion() != ProtoV3 {
		t.Fatalf("renderer negotiated v%d, want v%d", rend.ProtoVersion(), ProtoV3)
	}

	payload := bytes.Repeat([]byte{3}, 64)
	if err := rend.Send(Message{
		Type: MsgImage, Payload: payload,
		Trace: &TraceCtx{TraceID: 77, FrameID: 8, Hop: 1, OriginUnixNano: 42},
	}); err != nil {
		t.Fatal(err)
	}

	// The v2 display gets the image, stripped of the trace.
	v2conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := v2fr.ReadMessage(v2conn)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgImage || !bytes.Equal(got.Payload, payload) {
		t.Fatalf("v2 display got type %d, %d bytes", got.Type, len(got.Payload))
	}
	if got.Trace != nil {
		t.Fatal("v2 display received a trace context")
	}

	// The v3 display gets the same image with the hop advanced.
	select {
	case m := <-v3disp.Inbox():
		if m.Type != MsgImage || !bytes.Equal(m.Payload, payload) {
			t.Fatalf("v3 display got type %d, %d bytes", m.Type, len(m.Payload))
		}
		if m.Trace == nil {
			t.Fatal("v3 display lost the trace context")
		}
		if m.Trace.TraceID != 77 || m.Trace.FrameID != 8 || m.Trace.Hop != 2 || m.Trace.OriginUnixNano != 42 {
			t.Fatalf("forwarded trace = %+v, want id 77 frame 8 hop 2 origin 42", m.Trace)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("v3 display never received the frame")
	}
}

// TestV3HeaderLayout locks the traced-frame wire layout: 6-byte v2
// header, flagTrace set, 21-byte trace block big-endian, then payload
// and CRC trailer.
func TestV3HeaderLayout(t *testing.T) {
	fr := Framer{Version: ProtoV3}
	var buf bytes.Buffer
	err := fr.WriteMessage(&buf, Message{
		Type: MsgImage, Payload: []byte{0xAB},
		Trace: &TraceCtx{TraceID: 0x0102030405060708, FrameID: 0x0A0B0C0D, Hop: 2, OriginUnixNano: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	if len(wire) != 6+21+1+4 {
		t.Fatalf("traced v3 frame length %d, want 32", len(wire))
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
