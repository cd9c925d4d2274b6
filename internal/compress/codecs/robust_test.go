package codecs

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"

	"repro/internal/compress"
	"repro/internal/compress/jpegc"
	"repro/internal/compress/lzo"
	"repro/internal/fault"
	"repro/internal/img"
)

// corruptThrough pushes data through a fault-injected pipe and
// returns what came out the other side — the transport-level view of
// a bit-flipped stream.
func corruptThrough(t *testing.T, plan fault.Plan, data []byte) []byte {
	t.Helper()
	inj := fault.New(plan)
	c1, c2 := net.Pipe()
	src := inj.Wrap(c1)
	go func() {
		src.Write(data)
		src.Close()
	}()
	out, err := io.ReadAll(c2)
	if err != nil {
		t.Fatalf("read corrupted stream: %v", err)
	}
	return out
}

// TestNewCodecsSurviveBitFlips drives the jls and prog decoders with
// fault-plan bit flips at exact offsets and periodic strides — the
// transport's drop-and-continue contract demands an error (or a
// well-formed frame), never a panic and never a wild allocation.
func TestNewCodecsSurviveBitFlips(t *testing.T) {
	f := renderedStyleFrame(96)
	for _, name := range []string{"jls", "prog"} {
		c, err := compress.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := c.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		plans := []fault.Plan{
			{CorruptOffsets: []int64{0, 4, 8, 11}},          // header fields
			{CorruptOffsets: []int64{12, 13, 14, 15}},       // length table / first record
			{CorruptOffsets: []int64{int64(len(data) / 2)}}, // mid payload
			{CorruptOffsets: []int64{int64(len(data) - 1)}}, // final byte
			{CorruptEveryBytes: 61},                         // periodic flips
		}
		for pi, plan := range plans {
			mangled := corruptThrough(t, plan, data)
			out, err := c.DecodeFrame(mangled)
			if err == nil && out != nil {
				if out.W <= 0 || out.H <= 0 || len(out.Pix) != out.W*out.H*3 {
					t.Fatalf("%s plan %d: malformed frame %dx%d", name, pi, out.W, out.H)
				}
			}
		}
	}
}

// TestNewCodecsSurviveTruncation walks truncation points through both
// streams; every cut must decode or error cleanly.
func TestNewCodecsSurviveTruncation(t *testing.T) {
	f := renderedStyleFrame(96)
	for _, name := range []string{"jls", "prog"} {
		c, err := compress.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := c.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(data); cut += 11 {
			out, err := c.DecodeFrame(data[:cut])
			if err == nil && out != nil {
				if out.W != f.W || out.H != f.H {
					t.Fatalf("%s cut %d: frame %dx%d", name, cut, out.W, out.H)
				}
			}
		}
	}
}

// TestNewCodecsDecodeAllocBounded feeds headers advertising huge
// frames with tiny payloads; the decoders must reject them before
// allocating pixel planes.
func TestNewCodecsDecodeAllocBounded(t *testing.T) {
	// jls: 32767x32767 header, no payload to back it.
	jlsHdr := []byte{'J', 'L', 'S', '1', 0xff, 0x7f, 0xff, 0x7f, 0, 0, 0xff, 0x1f}
	if _, err := decodeByName(t, "jls", jlsHdr); err == nil {
		t.Fatal("jls accepted a 32767x32767 header with no payload")
	}
	// prog: max dims exceed MaxPixels.
	progHdr := []byte{'P', 'G', 'F', '1', 0xff, 0x7f, 0xff, 0x7f, 4, 5, 0, 0}
	if _, err := decodeByName(t, "prog", progHdr); err == nil {
		t.Fatal("prog accepted a 32767x32767 header")
	}
	// jpeg: a real 32x32 stream whose SOF is patched to 65535x65535 —
	// 6.4 GB of planes if the header is believed before the scan is
	// looked at.
	jpg, err := jpegc.Encode(renderedStyleFrame(32), 75)
	if err != nil {
		t.Fatal(err)
	}
	sof := bytes.Index(jpg, []byte{0xff, 0xc0})
	copy(jpg[sof+5:], []byte{0xff, 0xff, 0xff, 0xff})
	packed, err := lzo.Codec{}.Compress(jpg)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"jpeg": jpg, "jpeg+lzo": packed} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeByName(t, name, data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s accepted a 65535x65535 header over a 32x32 scan", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s allocated %d bytes before rejecting the header", name, grew)
		}
	}
}

func decodeByName(t *testing.T, name string, data []byte) (*img.Frame, error) {
	t.Helper()
	c, err := compress.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return c.DecodeFrame(data)
}
