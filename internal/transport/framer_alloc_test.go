package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
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
	hdr := binary.BigEndian.AppendUint32(nil, maxMessage)
	hdr = append(hdr, byte(MsgHello), flagCRC|flagTrace)
	var err error
	n := allocated(func() { _, err = ReadMessage(bytes.NewReader(hdr)) })
	if err == nil {
		t.Fatal("a header with no body read as a message")
	}
	if n >= 1<<20 {
		t.Fatalf("allocated %d B for a %d-byte header", n, len(hdr))
	}
}

// A body longer than one read chunk arrives intact.
func TestReadMessageLongBodyRoundTrips(t *testing.T) {
	payload := make([]byte, 3*readChunk+17)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Type: MsgImage, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Payload, payload) {
		t.Fatal("payload changed in transit")
	}
}

// parsePayload hands a payload to the parser for its message type.
func parsePayload(typ MsgType, p []byte) {
	switch typ {
	case MsgHello:
		ParseHello(p)
	case MsgImage:
		UnmarshalImage(p)
	case MsgAck:
		UnmarshalAck(p)
	case MsgBusy:
		UnmarshalBusy(p)
	case MsgControl:
		UnmarshalControl(p)
	case MsgPing, MsgPong:
		UnmarshalPing(p)
	case MsgAdvertise:
		UnmarshalAdvertise(p)
	}
}

// FuzzReadMessage feeds arbitrary bytes to the framer. ReadMessage must
// never panic and never allocate more than one read chunk beyond the
// bytes it was given, apart from the payload it returns. A message that
// reads goes on to the parser for its type, which must not panic
// either. The fuzzer cannot forge a CRC, so the bytes after any 6-byte
// header also go to the parser named by its type byte, whether or not
// the frame verified.
func FuzzReadMessage(f *testing.F) {
	for _, g := range goldenFrames {
		whole, err := hex.DecodeString(g.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(whole)
		f.Add(whole[:len(whole)-2])
	}
	claim := binary.BigEndian.AppendUint32(nil, maxMessage)
	f.Add(append(claim, byte(MsgHello), flagCRC|flagTrace))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		var err error
		n := allocated(func() { m, err = ReadMessage(bytes.NewReader(data)) })
		limit := uint64(len(data) + readChunk + allocSlack)
		if err == nil {
			limit += uint64(len(m.Payload))
		}
		if n > limit {
			t.Fatalf("allocated %d B reading %d input bytes (limit %d)", n, len(data), limit)
		}
		if err == nil {
			parsePayload(m.Type, m.Payload)
		}
		if len(data) >= 6 {
			parsePayload(MsgType(data[4]), data[6:])
		}
	})
}
