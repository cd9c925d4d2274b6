package jpegc

import (
	"math/rand"
	"testing"

	"repro/internal/img"
)

// FuzzDecode: arbitrary byte streams must never panic the decoder —
// the display daemon feeds it network input — and must be accepted or
// refused, pixel for pixel, as the reference decoder does.
func FuzzDecode(f *testing.F) {
	good, err := Encode(testFrame(24, 16), 70)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{0xff, 0xd8, 0xff, 0xd9})
	f.Add([]byte{})
	f.Add(good[:len(good)/2])
	if good, err = EncodeRestart(contentFrame(rand.New(rand.NewSource(1)), 3, 40, 24), 50, 2); err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(encodeSampled(testFrame(20, 20), 80, sampling{{1, 1}, {2, 2}, {2, 1}}, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The reference allocates whole-image planes from the header
		// alone; keep it from exhausting memory.
		for i := 0; i+8 < len(data); i++ {
			if data[i] == 0xff && data[i+1] == 0xc0 {
				h := int(data[i+5])<<8 | int(data[i+6])
				w := int(data[i+7])<<8 | int(data[i+8])
				if w*h > 1<<20 {
					t.Skip("SOF announces more than 1<<20 pixels")
				}
			}
		}
		checkAgainstReference(t, "fuzz input", data)
	})
}

// FuzzEncodeDecode: every frame must survive an encode/decode cycle
// without error regardless of content.
func FuzzEncodeDecode(f *testing.F) {
	f.Add(uint16(8), uint16(8), byte(50), []byte{1, 2, 3})
	f.Add(uint16(17), uint16(5), byte(90), []byte{})
	f.Fuzz(func(t *testing.T, w, h uint16, quality byte, seed []byte) {
		W := int(w%64) + 1
		H := int(h%64) + 1
		q := int(quality%100) + 1
		fr := newTestPattern(W, H, seed)
		data, err := Encode(fr, q)
		if err != nil {
			t.Fatalf("encode %dx%d q%d: %v", W, H, q, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("decode own output: %v", err)
		}
		if got.W != W || got.H != H {
			t.Fatalf("size %dx%d != %dx%d", got.W, got.H, W, H)
		}
	})
}

func newTestPattern(w, h int, seed []byte) *img.Frame {
	f := img.NewFrame(w, h)
	for i := range f.Pix {
		if len(seed) > 0 {
			f.Pix[i] = seed[i%len(seed)] + byte(i)
		} else {
			f.Pix[i] = byte(i * 13)
		}
	}
	return f
}
