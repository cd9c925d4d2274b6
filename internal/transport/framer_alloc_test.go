package transport

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// allocSlack covers ReadMessage's small allocations besides the body:
// error values and a parsed trace context.
const allocSlack = 4 << 10

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A header claiming the largest legal message, followed by EOF, must
// fail without the reader committing the claimed 64 MiB: the hello a
// daemon reads from any peer that connects goes through this path.
func TestReadMessageClaimWithoutBodyAllocatesLittle(t *testing.T) {
	v1 := binary.BigEndian.AppendUint32(nil, maxMessage)
	v1 = append(v1, byte(MsgHello))
	v3 := binary.BigEndian.AppendUint32(nil, maxMessage)
	v3 = append(v3, byte(MsgHello), flagCRC|flagTrace)
	for _, c := range []struct {
		name   string
		framer Framer
		hdr    []byte
	}{{"v1", Framer{}, v1}, {"v3", Framer{Version: ProtoV3}, v3}} {
		var err error
		n := allocated(func() { _, err = c.framer.ReadMessage(bytes.NewReader(c.hdr)) })
		if err == nil {
			t.Fatalf("%s: a header with no body read as a message", c.name)
		}
		if n >= 1<<20 {
			t.Fatalf("%s: allocated %d B for a %d-byte header", c.name, n, len(c.hdr))
		}
	}
}

// A body longer than one read chunk arrives intact.
func TestReadMessageLongBodyRoundTrips(t *testing.T) {
	payload := make([]byte, 3*readChunk+17)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for _, v := range []byte{ProtoV1, ProtoV2, ProtoV3} {
		f := Framer{Version: v}
		var buf bytes.Buffer
		if err := f.WriteMessage(&buf, Message{Type: MsgImage, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		m, err := f.ReadMessage(&buf)
		if err != nil {
			t.Fatalf("v%d: %v", v+1, err)
		}
		if !bytes.Equal(m.Payload, payload) {
			t.Fatalf("v%d: payload changed in transit", v+1)
		}
	}
}

// FuzzReadMessage feeds arbitrary bytes to the v1, v2 and v3 framers.
// ReadMessage must never panic and never allocate more than one read
// chunk beyond the bytes it was given, apart from the payload it
// returns.
func FuzzReadMessage(f *testing.F) {
	trace := &TraceCtx{TraceID: 7, FrameID: 3, Hop: 1, OriginUnixNano: 42}
	for _, v := range []byte{ProtoV1, ProtoV2, ProtoV3} {
		var buf bytes.Buffer
		fr := Framer{Version: v}
		if err := fr.WriteMessage(&buf, Message{Type: MsgImage, Payload: []byte("piece"), Trace: trace}); err != nil {
			f.Fatal(err)
		}
		whole := buf.Bytes()
		f.Add(v, whole)
		f.Add(v, whole[:len(whole)-2])
		claim := binary.BigEndian.AppendUint32(nil, maxMessage)
		f.Add(v, append(claim, byte(MsgHello), flagCRC|flagTrace))
	}
	f.Fuzz(func(t *testing.T, version byte, data []byte) {
		fr := Framer{Version: version % 3}
		var m Message
		var err error
		n := allocated(func() { m, err = fr.ReadMessage(bytes.NewReader(data)) })
		limit := uint64(len(data) + readChunk + allocSlack)
		if err == nil {
			limit += uint64(len(m.Payload))
		}
		if n > limit {
			t.Fatalf("allocated %d B reading %d input bytes (limit %d)", n, len(data), limit)
		}
	})
}
