package stream

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// generation reads the cache's current generation.
func generation(c *EncodeCache) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// resident counts the cache's resident entries.
func resident(c *EncodeCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// TestCacheGenerationPreventsStaleHit is the regression test for the
// stale-quality/stale-frame hit path: a renderer restart re-sends frame
// IDs from zero, and before generations were added the cache served the
// previous sequence's bytes for the new sequence's identically numbered
// frames.
func TestCacheGenerationPreventsStaleHit(t *testing.T) {
	c := NewEncodeCache(4)
	p := Point{Codec: "jpeg", Quality: 45}

	old := []byte("animation-1 frame 0")
	got, err := c.GetOrEncode(0, p, func() ([]byte, error) { return old, nil })
	if err != nil || !bytes.Equal(got, old) {
		t.Fatalf("prime: got %q err %v", got, err)
	}
	// Same key hits.
	got, err = c.GetOrEncode(0, p, func() ([]byte, error) { t.Fatal("unexpected encode"); return nil, nil })
	if err != nil || !bytes.Equal(got, old) {
		t.Fatalf("hit: got %q err %v", got, err)
	}
	if h := c.Stats().Hits.Load(); h != 1 {
		t.Fatalf("hits = %d, want 1", h)
	}

	gen := c.BumpGeneration()
	if gen != 1 {
		t.Fatalf("generation = %d, want 1", gen)
	}
	if resident(c) != 0 {
		t.Fatalf("entries survive a generation bump: %d resident", resident(c))
	}
	fresh := []byte("animation-2 frame 0")
	got, err = c.GetOrEncode(0, p, func() ([]byte, error) { return fresh, nil })
	if err != nil {
		t.Fatalf("re-encode after bump: %v", err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatalf("stale hit across generations: got %q, want %q", got, fresh)
	}
	if m := c.Stats().Misses.Load(); m != 2 {
		t.Fatalf("misses = %d, want 2 (the bump must force a re-encode)", m)
	}
}

// TestCacheInvalidateStepDown covers the mid-frame ladder step-down:
// the abandoned operating point's entry is evicted and a later request
// at that point re-encodes instead of hitting.
func TestCacheInvalidateStepDown(t *testing.T) {
	c := NewEncodeCache(4)
	hi := Point{Codec: "jpeg+lzo", Quality: 85}
	lo := Point{Codec: "jpeg", Quality: 30}

	if _, err := c.GetOrEncode(7, hi, func() ([]byte, error) { return []byte("hi"), nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetOrEncode(7, lo, func() ([]byte, error) { return []byte("lo"), nil }); err != nil {
		t.Fatal(err)
	}
	if !c.Invalidate(7, hi) {
		t.Fatal("Invalidate(7, hi) = false, want eviction")
	}
	if c.Invalidate(7, hi) {
		t.Fatal("second Invalidate(7, hi) = true, want no-op")
	}
	if resident(c) != 1 {
		t.Fatalf("resident entries = %d, want 1 (only the low point)", resident(c))
	}
	if got := c.Stats().Invalidations.Load(); got != 1 {
		t.Fatalf("invalidations = %d, want 1", got)
	}
	// The step-down target is untouched…
	encodes := 0
	if _, err := c.GetOrEncode(7, lo, func() ([]byte, error) { encodes++; return []byte("lo2"), nil }); err != nil {
		t.Fatal(err)
	}
	if encodes != 0 {
		t.Fatal("low-point entry was lost by the invalidation")
	}
	// …while the abandoned point re-encodes.
	if _, err := c.GetOrEncode(7, hi, func() ([]byte, error) { encodes++; return []byte("hi2"), nil }); err != nil {
		t.Fatal(err)
	}
	if encodes != 1 {
		t.Fatal("abandoned point served a stale hit after invalidation")
	}
}

// TestCacheFrameEvictionScopedToGeneration: frame-age eviction only
// removes current-generation keys (older generations are cleared
// wholesale at the bump, so nothing leaks either way).
func TestCacheFrameEvictionScopedToGeneration(t *testing.T) {
	c := NewEncodeCache(2)
	p := Point{Codec: "lzo"}
	for id := uint32(0); id < 5; id++ {
		if _, err := c.GetOrEncode(id, p, func() ([]byte, error) { return []byte{byte(id)}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if resident(c) != 2 {
		t.Fatalf("resident = %d, want capacity 2", resident(c))
	}
	if ev := c.Stats().Evictions.Load(); ev != 3 {
		t.Fatalf("evictions = %d, want 3", ev)
	}
}

// TestBrokerRendererConnectBumpsGeneration: each renderer registration
// starts a fresh cache generation, because its frame-ID sequence may
// restart at zero.
func TestBrokerRendererConnectBumpsGeneration(t *testing.T) {
	b, err := ListenAndServe("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	dial := func() *transport.Endpoint {
		t.Helper()
		conn, err := net.Dial("tcp", b.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		ep, err := transport.NewEndpoint(conn, transport.RoleRenderer)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}

	waitGen := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if generation(b.Cache()) == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("cache generation = %d, want %d", generation(b.Cache()), want)
	}

	ep := dial()
	waitGen(1)
	ep.Close()
	ep2 := dial()
	defer ep2.Close()
	waitGen(2)
}

// TestCacheConcurrentBumpAndEncode races GetOrEncode against
// BumpGeneration from many goroutines (run under -race): every lookup
// must return bytes from its own generation's encode, never a stale
// entry, and the cache must stay within capacity.
func TestCacheConcurrentBumpAndEncode(t *testing.T) {
	c := NewEncodeCache(8)
	p := Point{Codec: "jpeg", Quality: 50}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			c.BumpGeneration()
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := uint32(0); ; id++ {
				select {
				case <-stop:
					return
				default:
				}
				gen := generation(c)
				want := []byte{byte(gen), byte(id % 4)}
				got, err := c.GetOrEncode(id%4, p, func() ([]byte, error) { return want, nil })
				if err != nil {
					t.Error(err)
					return
				}
				// A hit may come from a neighboring generation when a bump
				// races the lookup, but the frame-ID byte must always match
				// — a mismatch is a cross-key collision.
				if len(got) != 2 || got[1] != byte(id%4) {
					t.Errorf("frame %d served bytes for frame %d", id%4, got[1])
					return
				}
			}
		}()
	}
	wg.Wait()
	if resident(c) > 8*4 {
		t.Fatalf("cache grew past capacity: %d", resident(c))
	}
}

// TestCacheTruncationPassDistinctEntries is the regression test for
// the progressive-codec cache key: a preview-only entry (prog@p1) and
// the full-stream entry (prog) for the same frame are different bytes,
// so Points differing only in Passes must never share a cache slot.
// Mirrors TestCacheGenerationPreventsStaleHit for the Passes axis.
func TestCacheTruncationPassDistinctEntries(t *testing.T) {
	c := NewEncodeCache(4)
	full := Point{Codec: "prog"}
	preview := Point{Codec: "prog", Passes: 1}

	fullData := []byte("all five passes of frame 0")
	got, err := c.GetOrEncode(0, full, func() ([]byte, error) { return fullData, nil })
	if err != nil || !bytes.Equal(got, fullData) {
		t.Fatalf("prime full: got %q err %v", got, err)
	}

	// Requesting the preview truncation for the same frame must MISS:
	// serving the full bytes here would defeat the preview rung.
	prevData := []byte("pass 0 only")
	encoded := false
	got, err = c.GetOrEncode(0, preview, func() ([]byte, error) { encoded = true; return prevData, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !encoded {
		t.Fatal("preview request hit the full-stream entry (Passes missing from cache key)")
	}
	if !bytes.Equal(got, prevData) {
		t.Fatalf("preview request returned %q, want %q", got, prevData)
	}

	// Both entries are resident and each hits its own bytes.
	for _, tc := range []struct {
		p    Point
		want []byte
	}{{full, fullData}, {preview, prevData}} {
		got, err := c.GetOrEncode(0, tc.p, func() ([]byte, error) { t.Fatalf("%v: unexpected re-encode", tc.p); return nil, nil })
		if err != nil || !bytes.Equal(got, tc.want) {
			t.Fatalf("%v: got %q err %v, want %q", tc.p, got, err, tc.want)
		}
	}
	if m := c.Stats().Misses.Load(); m != 2 {
		t.Fatalf("misses = %d, want 2 (one per distinct truncation)", m)
	}

	// The jls error bound is part of the key for the same reason.
	n0 := []byte("jls lossless")
	n2 := []byte("jls near-2")
	if _, err := c.GetOrEncode(1, Point{Codec: "jls"}, func() ([]byte, error) { return n0, nil }); err != nil {
		t.Fatal(err)
	}
	got, err = c.GetOrEncode(1, Point{Codec: "jls", Near: 2}, func() ([]byte, error) { return n2, nil })
	if err != nil || !bytes.Equal(got, n2) {
		t.Fatalf("jls near bound shares a cache slot with lossless: got %q err %v", got, err)
	}
}
