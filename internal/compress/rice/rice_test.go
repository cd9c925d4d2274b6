package rice

import (
	"math/rand"
	"testing"
)

func TestMapSignedRoundTrip(t *testing.T) {
	for q := int32(-70000); q <= 70000; q += 7 {
		if got := UnmapSigned(MapSigned(q)); got != q {
			t.Fatalf("map/unmap %d -> %d", q, got)
		}
	}
	// The small values interleave exactly as JPEG-LS specifies.
	want := map[int32]uint32{0: 0, -1: 1, 1: 2, -2: 3, 2: 4}
	for q, m := range want {
		if got := MapSigned(q); got != m {
			t.Fatalf("MapSigned(%d) = %d, want %d", q, got, m)
		}
	}
}

func TestBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type rec struct {
		v uint64
		n uint
	}
	var recs []rec
	w := new(Writer)
	for i := 0; i < 5000; i++ {
		n := uint(rng.Intn(57) + 1)
		v := rng.Uint64() & (1<<n - 1)
		recs = append(recs, rec{v, n})
		w.WriteBits(v, n)
	}
	r := NewReader(w.Finish())
	for i, rc := range recs {
		got, err := r.ReadBits(rc.n)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got != rc.v {
			t.Fatalf("read %d: got %d want %d (n=%d)", i, got, rc.v, rc.n)
		}
	}
}

func TestRiceRoundTripAllK(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for k := uint(0); k <= 16; k++ {
		var vals []uint32
		w := new(Writer)
		for i := 0; i < 2000; i++ {
			var v uint32
			switch rng.Intn(4) {
			case 0:
				v = uint32(rng.Intn(8)) // typical small residual
			case 1:
				v = uint32(rng.Intn(1 << 11)) // worst-case mapped coefficient
			case 2:
				v = uint32(rng.Intn(1 << 16)) // escape territory
			default:
				v = 0
			}
			vals = append(vals, v)
			w.WriteRice(v, k)
		}
		r := NewReader(w.Finish())
		for i, v := range vals {
			got, err := r.ReadRice(k)
			if err != nil {
				t.Fatalf("k=%d read %d: %v", k, i, err)
			}
			if got != v {
				t.Fatalf("k=%d read %d: got %d want %d", k, i, got, v)
			}
		}
	}
}

func TestRiceAdaptiveModel(t *testing.T) {
	// Coding through the adaptive model must round-trip as long as
	// encoder and decoder update in lockstep.
	rng := rand.New(rand.NewSource(3))
	var vals []int32
	enc := NewModel()
	w := new(Writer)
	for i := 0; i < 5000; i++ {
		v := int32(rng.NormFloat64() * 12)
		vals = append(vals, v)
		m := MapSigned(v)
		w.WriteRice(m, enc.K())
		enc.Update(m)
	}
	dec := NewModel()
	r := NewReader(w.Finish())
	for i, v := range vals {
		m, err := r.ReadRice(dec.K())
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		dec.Update(m)
		if got := UnmapSigned(m); got != v {
			t.Fatalf("read %d: got %d want %d", i, got, v)
		}
	}
}

func TestReaderTruncated(t *testing.T) {
	w := new(Writer)
	for i := 0; i < 100; i++ {
		w.WriteRice(uint32(i*37%1024), 4)
	}
	full := w.Finish()
	for cut := 0; cut < len(full); cut += 3 {
		r := NewReader(full[:cut])
		var err error
		for i := 0; i < 100; i++ {
			if _, err = r.ReadRice(4); err != nil {
				break
			}
		}
		if cut < len(full)-1 && err == nil {
			// Only the final byte's padding may allow a full read.
			t.Fatalf("cut=%d: no error on truncated stream", cut)
		}
	}
}

func TestReaderAllOnes(t *testing.T) {
	// An adversarial all-ones stream must resolve every symbol via the
	// escape path rather than scanning unboundedly.
	data := make([]byte, 64)
	for i := range data {
		data[i] = 0xff
	}
	r := NewReader(data)
	for i := 0; i < 10; i++ {
		if _, err := r.ReadRice(0); err != nil {
			return // truncation is fine; unbounded scan is not
		}
	}
}
