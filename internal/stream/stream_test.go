package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/img"
)

func TestEstimatorBandwidthEWMA(t *testing.T) {
	e := NewEstimator(0.3)
	if e.Bandwidth() != 0 {
		t.Fatal("estimator should start unknown")
	}
	for i := 0; i < 20; i++ {
		e.Observe(1000, 10*time.Millisecond) // 100 KB/s
	}
	bw := e.Bandwidth()
	if bw < 90e3 || bw > 110e3 {
		t.Fatalf("bandwidth = %.0f, want ~100e3", bw)
	}
	// A sudden slowdown pulls the estimate down smoothly.
	e.Observe(1000, 100*time.Millisecond) // 10 KB/s sample
	if got := e.Bandwidth(); got >= bw || got < 10e3 {
		t.Fatalf("after slow sample bandwidth = %.0f (was %.0f)", got, bw)
	}
	if e.Samples() != 21 {
		t.Fatalf("samples = %d", e.Samples())
	}
}

func TestEstimatorRTT(t *testing.T) {
	e := NewEstimator(0.5)
	if e.RTT() != 0 {
		t.Fatal("rtt should start unknown")
	}
	e.ObserveRTT(100 * time.Millisecond)
	e.ObserveRTT(50 * time.Millisecond)
	got := e.RTT()
	if got != 75*time.Millisecond {
		t.Fatalf("rtt = %v, want 75ms", got)
	}
	// The propagation estimate is the floor, not the average: smoothed
	// samples absorb decode time and host contention.
	if min := e.MinRTT(); min != 50*time.Millisecond {
		t.Fatalf("min rtt = %v, want 50ms", min)
	}
	// A contention spike raises the smoothed RTT but not the
	// propagation floor the controller plans with.
	e.ObserveRTT(2 * time.Second)
	if min := e.MinRTT(); min != 50*time.Millisecond {
		t.Fatalf("min rtt moved to %v on an RTT spike", min)
	}
}

func TestControllerDowngradesImmediately(t *testing.T) {
	est := NewEstimator(0.5)
	ladder := []Point{{Codec: "jpeg", Quality: 85}, {Codec: "jpeg", Quality: 40}, {Codec: "jpeg", Quality: 10}}
	c := NewController(est, 100*time.Millisecond, ladder, 0.5, 3)
	if p := c.Pick(); p.Quality != 85 {
		t.Fatalf("start at top rung, got %v", p)
	}
	// 20 KB frames at q85 over a 45 KB/s link: ~0.44s per frame, far
	// over the 100ms target; q10 frames are 2 KB: ~0.04s, fits.
	c.ObserveSize(Point{Codec: "jpeg", Quality: 85}, 20000)
	c.ObserveSize(Point{Codec: "jpeg", Quality: 40}, 8000)
	c.ObserveSize(Point{Codec: "jpeg", Quality: 10}, 2000)
	est.Observe(45000, time.Second)
	if p := c.Pick(); p.Quality != 10 {
		t.Fatalf("expected immediate downgrade to q10, got %v", p)
	}
}

func TestControllerStepsDownOnPacerDrops(t *testing.T) {
	est := NewEstimator(0.5)
	ladder := []Point{{Codec: "jpeg", Quality: 85}, {Codec: "jpeg", Quality: 40}, {Codec: "jpeg", Quality: 10}}
	c := NewController(est, 100*time.Millisecond, ladder, 0.5, 3)
	for _, p := range ladder {
		c.ObserveSize(p, 2000)
	}
	// The estimate says every rung fits (the over-read a buffered link
	// produces), so only the drop reports can move the controller.
	est.Observe(1000000, time.Second)
	if p := c.ObserveDrops(2); p.Quality != 85 {
		t.Fatalf("fewer than %d drops must not step down, got %v", dropStepDown, p)
	}
	if p := c.ObserveDrops(dropStepDown); p.Quality != 40 {
		t.Fatalf("one rung per drop report, got %v", p)
	}
	// Two favorable picks, then another burst: the upgrade hysteresis
	// restarts, so two more picks still hold the rung.
	c.Pick()
	c.Pick()
	if p := c.ObserveDrops(dropStepDown + 4); p.Quality != 10 {
		t.Fatalf("second report steps one more rung, got %v", p)
	}
	if p := c.ObserveDrops(dropStepDown); p.Quality != 10 {
		t.Fatalf("stepped below the last rung: %v", p)
	}
	c.Pick()
	if p := c.Pick(); p.Quality != 10 {
		t.Fatalf("upgrade hysteresis did not restart, got %v", p)
	}
	if p := c.Pick(); p.Quality != 40 {
		t.Fatalf("third favorable pick should upgrade one rung, got %v", p)
	}
}

func TestControllerUpgradeHysteresis(t *testing.T) {
	est := NewEstimator(0.5)
	ladder := []Point{{Codec: "jpeg", Quality: 85}, {Codec: "jpeg", Quality: 10}}
	c := NewController(est, 100*time.Millisecond, ladder, 0.5, 3)
	c.ObserveSize(ladder[0], 20000)
	c.ObserveSize(ladder[1], 2000)
	// Slow link: down to q10.
	est.Observe(45000, time.Second)
	if p := c.Pick(); p.Quality != 10 {
		t.Fatalf("want q10, got %v", p)
	}
	// Link recovers to 1 MB/s: the upgrade needs UpHold consecutive
	// favorable picks.
	for i := 0; i < 10; i++ {
		est.Observe(100000, 100*time.Millisecond)
	}
	if p := c.Pick(); p.Quality != 10 {
		t.Fatalf("upgrade should not be immediate, got %v", p)
	}
	if p := c.Pick(); p.Quality != 10 {
		t.Fatalf("upgrade should still be held, got %v", p)
	}
	if p := c.Pick(); p.Quality != 85 {
		t.Fatalf("third favorable pick should upgrade, got %v", p)
	}
}

func TestControllerRestrict(t *testing.T) {
	est := NewEstimator(0.5)
	c := NewController(est, 100*time.Millisecond, DefaultLadder(), 0.5, 3)
	c.Restrict([]string{"jpeg"})
	if p := c.Pick(); p.Codec != "jpeg" {
		t.Fatalf("restricted ladder served %v", p)
	}
	// Restricting to an unknown family is a no-op rather than an empty
	// ladder.
	c.Restrict([]string{"nope"})
	if p := c.Pick(); p.Codec != "jpeg" {
		t.Fatalf("after no-op restrict got %v", p)
	}
	// The new families restrict like any other: a renderer advertising
	// only jls+prog keeps those rungs, best (lossless jls) first.
	c2 := NewController(NewEstimator(0.5), 100*time.Millisecond, DefaultLadder(), 0.5, 3)
	c2.Restrict([]string{"jls", "prog"})
	if n := c2.LadderLen(); n != 6 {
		t.Fatalf("jls+prog ladder has %d rungs, want 6", n)
	}
	if p := c2.Pick(); p.Codec != "jls" || p.Near != 0 {
		t.Fatalf("restricted ladder top = %v, want lossless jls", p)
	}
	if p := c2.ProbePoint(); (p != Point{Codec: "prog", Passes: 1}) {
		t.Fatalf("restricted probe = %v, want prog@p1", p)
	}
}

func TestEncodeCacheSingleflight(t *testing.T) {
	cache := NewEncodeCache(4)
	var encodes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, err := cache.GetOrEncode(1, Point{Codec: "jpeg", Quality: 50}, func() ([]byte, error) {
				encodes.Add(1)
				time.Sleep(10 * time.Millisecond)
				return []byte("x"), nil
			})
			if err != nil || string(data) != "x" {
				t.Errorf("GetOrEncode: %v %q", err, data)
			}
		}()
	}
	wg.Wait()
	if n := encodes.Load(); n != 1 {
		t.Fatalf("encode ran %d times, want 1", n)
	}
	st := cache.Stats()
	if st.Misses.Load() != 1 || st.Hits.Load() != 7 {
		t.Fatalf("hits=%d misses=%d", st.Hits.Load(), st.Misses.Load())
	}
}

func TestEncodeCacheEvictsOldFrames(t *testing.T) {
	cache := NewEncodeCache(2)
	enc := func(s string) func() ([]byte, error) {
		return func() ([]byte, error) { return []byte(s), nil }
	}
	p1 := Point{Codec: "jpeg", Quality: 50}
	p2 := Point{Codec: "jpeg", Quality: 10}
	for id := uint32(0); id < 4; id++ {
		if _, err := cache.GetOrEncode(id, p1, enc("a")); err != nil {
			t.Fatal(err)
		}
		if _, err := cache.GetOrEncode(id, p2, enc("b")); err != nil {
			t.Fatal(err)
		}
	}
	if ev := cache.Stats().Evictions.Load(); ev != 4 {
		t.Fatalf("evictions = %d, want 4 (2 frames x 2 points)", ev)
	}
	if n := resident(cache); n != 4 {
		t.Fatalf("resident entries = %d, want 4", n)
	}
}

func TestEncodeCacheErrorNotCached(t *testing.T) {
	cache := NewEncodeCache(2)
	boom := errors.New("boom")
	if _, err := cache.GetOrEncode(1, Point{Codec: "jpeg"}, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The failure must not be cached: the retry succeeds.
	data, err := cache.GetOrEncode(1, Point{Codec: "jpeg"}, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(data) != "ok" {
		t.Fatalf("retry: %v %q", err, data)
	}
}

func TestPacerDropsOldestNeverBlocks(t *testing.T) {
	p := NewPacer(3)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if ok, _ := p.Offer(&SourceFrame{ID: uint32(i)}); !ok {
				t.Error("offer rejected before close")
				return
			}
			if p.Len() > 3 {
				t.Errorf("queue length %d exceeds depth", p.Len())
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Offer blocked")
	}
	if d := p.Drops(); d != 97 {
		t.Fatalf("drops = %d, want 97", d)
	}
	// The survivors are the newest frames, oldest-first.
	want := []uint32{97, 98, 99}
	for _, id := range want {
		f, ok := p.Next()
		if !ok || f.ID != id {
			t.Fatalf("Next = %v %v, want id %d", f, ok, id)
		}
	}
}

func TestPacerCloseUnblocksNext(t *testing.T) {
	p := NewPacer(2)
	got := make(chan bool, 1)
	go func() {
		_, ok := p.Next()
		got <- ok
	}()
	time.Sleep(20 * time.Millisecond)
	p.Close()
	select {
	case ok := <-got:
		if ok {
			t.Fatal("Next returned a frame after close of empty pacer")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next never unblocked")
	}
	if ok, _ := p.Offer(&SourceFrame{ID: 1}); ok {
		t.Fatal("Offer accepted after close")
	}
}

// noiseFrame builds a frame JPEG cannot compress to nothing, so
// quality levels separate by size.
func noiseFrame(w, h int) *img.Frame {
	rng := rand.New(rand.NewSource(7))
	f := img.NewFrame(w, h)
	for i := range f.Pix {
		f.Pix[i] = byte(rng.Intn(256))
	}
	return f
}

func TestPointFrameCodecsRoundTripAndOrder(t *testing.T) {
	f := noiseFrame(64, 64)
	var prev int
	for i, p := range DefaultLadder() {
		codec, err := p.FrameCodec()
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		data, err := codec.EncodeFrame(f)
		if err != nil {
			t.Fatalf("%v encode: %v", p, err)
		}
		dec, err := codec.DecodeFrame(data)
		if err != nil {
			t.Fatalf("%v decode: %v", p, err)
		}
		if dec.W != f.W || dec.H != f.H {
			t.Fatalf("%v decoded %dx%d", p, dec.W, dec.H)
		}
		// Same family: lower quality must not be larger.
		if i > 0 && DefaultLadder()[i-1].Codec == p.Codec && len(data) > prev {
			t.Fatalf("%v produced %d bytes > previous rung's %d", p, len(data), prev)
		}
		prev = len(data)
	}
	if _, err := (Point{Codec: "nope"}).FrameCodec(); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestPointString(t *testing.T) {
	for _, tc := range []struct {
		p    Point
		want string
	}{
		{Point{Codec: "jpeg", Quality: 40}, "jpeg@q40"},
		{Point{Codec: "jpeg+lzo", Quality: 85}, "jpeg+lzo@q85"},
		{Point{Codec: "raw"}, "raw"},
		{Point{Codec: "lzo", Quality: 50}, "lzo"},
		{Point{Codec: "jls"}, "jls"},
		{Point{Codec: "jls", Near: 2}, "jls@n2"},
		{Point{Codec: "prog"}, "prog"},
		{Point{Codec: "prog", Passes: 1}, "prog@p1"},
	} {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.p, got, tc.want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Target <= 0 || c.QueueDepth <= 0 || c.CacheFrames <= 0 || len(c.Ladder) == 0 || c.Alpha <= 0 || c.UpHold <= 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
}

func ExamplePoint() {
	p := Point{Codec: "jpeg+lzo", Quality: 85}
	fmt.Println(p)
	// Output: jpeg+lzo@q85
}

// TestLadderFloorIsProgressivePreview pins the degradation contract:
// the guard's worst-case quality floor (LevelPacer and above maps to
// ladderLen-1) must land on the prog preview rung, so an overloaded or
// WAN-starved session still ships a usable first pass.
func TestLadderFloorIsProgressivePreview(t *testing.T) {
	lad := DefaultLadder()
	bottom := lad[len(lad)-1]
	if bottom.Codec != "prog" || bottom.Passes != 1 {
		t.Fatalf("ladder floor = %v, want prog@p1 preview rung", bottom)
	}
	est := NewEstimator(0.5)
	c := NewController(est, 100*time.Millisecond, lad, 0.5, 3)
	c.SetFloor(c.LadderLen() - 1) // what broker does at guard.LevelPacer+
	if p := c.Pick(); p != bottom {
		t.Fatalf("floored controller picked %v, want %v", p, bottom)
	}
}
