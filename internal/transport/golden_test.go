package transport

import (
	"bytes"
	"encoding/hex"
	"io"
	"testing"
	"time"
)

// goldenImage is the image piece every golden frame carries: piece 1 of
// 2, rows [2,4) of a 4x4 frame, raw codec, four data bytes.
var goldenImage = ImageMsg{FrameID: 7, PieceIndex: 1, PieceCount: 2,
	X0: 0, Y0: 2, X1: 4, Y1: 4, W: 4, H: 4, Codec: "raw", Data: []byte{1, 2, 3, 4}}

// goldenTrace is the trace context of the traced golden frame.
var goldenTrace = TraceCtx{TraceID: 0x0102030405060708, FrameID: 7, Hop: 1,
	OriginUnixNano: 0x1122334455667788}

// goldenFrames pins the wire bytes of each message byte for byte. Each
// entry is the concatenation of its commented parts.
var goldenFrames = []struct {
	name  string
	write func(w io.Writer) error
	hex   string
}{
	{
		name: "image",
		write: func(w io.Writer) error {
			return WriteMessage(w, Message{Type: MsgImage, Payload: goldenPayload()})
		},
		hex: "0000001c" + "02" + "01" + // length 28, MsgImage, flagCRC
			"00000007" + "0001" + "0002" + // frame 7, piece 1 of 2
			"0000" + "0002" + "0004" + "0004" + "0004" + "0004" + // region, frame size
			"03" + "726177" + "01020304" + // codec "raw", data
			"33b3892c", // CRC32 over type, flags, payload
	},
	{
		name: "image-traced",
		write: func(w io.Writer) error {
			return WriteMessage(w, Message{Type: MsgImage, Payload: goldenPayload(), Trace: &goldenTrace})
		},
		hex: "0000001c" + "02" + "03" + // length 28 (payload only), MsgImage, flagCRC|flagTrace
			"0102030405060708" + "00000007" + "01" + "1122334455667788" + // trace id, frame, hop, origin
			"00000007" + "0001" + "0002" +
			"0000" + "0002" + "0004" + "0004" + "0004" + "0004" +
			"03" + "726177" + "01020304" +
			"412f0990", // CRC32 over type, flags, trace block, payload
	},
	{
		name: "hello",
		write: func(w io.Writer) error {
			return WriteMessage(w, Message{Type: MsgHello, Payload: HelloPayload(RoleRenderer, KindViewer)})
		},
		hex: "00000002" + "01" + "01" + // length 2, MsgHello, flagCRC
			"01" + "02" + // renderer, ProtoV3; no kind byte for a viewer
			"6f2f8223",
	},
	{
		name: "hello-relay",
		write: func(w io.Writer) error {
			return WriteMessage(w, Message{Type: MsgHello, Payload: HelloPayload(RoleDisplay, KindRelay)})
		},
		hex: "00000003" + "01" + "01" +
			"02" + "02" + "01" + // display, ProtoV3, KindRelay
			"054b3fb2",
	},
	{
		name:  "welcome",
		write: func(w io.Writer) error { return WriteWelcome(w, RoleDisplay) },
		hex: "00000002" + "01" + "01" +
			"02" + "02" + // the accepted role, ProtoV3
			"4402d1e0",
	},
	{
		name:  "busy",
		write: func(w io.Writer) error { return WriteBusy(w, 250*time.Millisecond, "over budget") },
		hex: "0000000f" + "09" + "01" + // length 15, MsgBusy, flagCRC
			"000000fa" + "6f76657220627564676574" + // retry after 250 ms, "over budget"
			"65fc48e7",
	},
}

func goldenPayload() []byte {
	p, err := goldenImage.Marshal()
	if err != nil {
		panic(err)
	}
	return p
}

// TestGoldenFrames writes each golden message and compares the bytes,
// then reads them back and re-frames what was read through the Framer
// value, which must reproduce them.
func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenFrames {
		t.Run(g.name, func(t *testing.T) {
			want, err := hex.DecodeString(g.hex)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := g.write(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("wire bytes\n got %x\nwant %x", buf.Bytes(), want)
			}
			m, err := ReadMessage(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			buf.Reset()
			if err := (Framer{Version: ProtoV3}).WriteMessage(&buf, m); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("re-framed after read\n got %x\nwant %x", buf.Bytes(), want)
			}
		})
	}
}
