package guard

import (
	"sync"
	"testing"
	"time"
)

func TestGovernorLadderSteps(t *testing.T) {
	g := NewGovernor(GovernorConfig{BudgetBytes: 1000})
	a := g.Account("frames")

	if g.Level() != LevelHealthy {
		t.Fatalf("level = %d, want healthy", g.Level())
	}
	a.Add(500) // 0.50
	if g.Level() != LevelHealthy {
		t.Fatalf("level at 0.50 = %d, want healthy", g.Level())
	}
	a.Add(250) // 0.75
	if g.Level() != LevelQuality {
		t.Fatalf("level at 0.75 = %d, want quality", g.Level())
	}
	a.Add(100) // 0.85
	if g.Level() != LevelPacer {
		t.Fatalf("level at 0.85 = %d, want pacer", g.Level())
	}
	a.Add(70) // 0.92
	if g.Level() != LevelCache {
		t.Fatalf("level at 0.92 = %d, want cache", g.Level())
	}
	a.Add(60) // 0.98
	if g.Level() != LevelShed {
		t.Fatalf("level at 0.98 = %d, want shed", g.Level())
	}
	tr := g.Transitions()
	for lvl := LevelQuality; lvl <= LevelShed; lvl++ {
		if tr[lvl] != 1 {
			t.Fatalf("transitions[%s] = %d, want 1", LevelName(lvl), tr[lvl])
		}
	}

	// Hysteresis: just below a threshold is not enough to step down...
	a.Release(110) // 0.87, within hysteresis of cache's 0.90
	if g.Level() != LevelCache {
		t.Fatalf("level at 0.87 = %d, want cache (hysteresis)", g.Level())
	}
	// ...but a real drop steps all the way down.
	a.Release(870) // 0.0
	if g.Level() != LevelHealthy {
		t.Fatalf("level at 0 = %d, want healthy", g.Level())
	}
	if got := g.Used(); got != 0 {
		t.Fatalf("used = %d, want 0", got)
	}
}

func TestGovernorKnobsPerLevel(t *testing.T) {
	g := NewGovernor(GovernorConfig{BudgetBytes: 100})
	a := g.Account("x")

	check := func(wantFloor, wantDepth int, wantPause bool) {
		t.Helper()
		if got := g.QualityFloor(8); got != wantFloor {
			t.Errorf("level %s: QualityFloor(8) = %d, want %d", LevelName(g.Level()), got, wantFloor)
		}
		if got := g.PacerDepth(4); got != wantDepth {
			t.Errorf("level %s: PacerDepth(4) = %d, want %d", LevelName(g.Level()), got, wantDepth)
		}
		if got := g.CacheFillPaused(); got != wantPause {
			t.Errorf("level %s: CacheFillPaused = %v, want %v", LevelName(g.Level()), got, wantPause)
		}
	}
	check(0, 4, false)
	a.Add(72)
	check(4, 4, false) // quality floor at ladder midpoint
	a.Add(10)          // 0.82
	check(7, 2, false) // bottom rung, half depth
	a.Add(10)          // 0.92
	check(7, 2, true)
}

func TestGovernorAdmission(t *testing.T) {
	g := NewGovernor(GovernorConfig{BudgetBytes: 100, MaxClients: 2, RetryAfter: 100 * time.Millisecond})
	a := g.Account("x")

	if ok, _ := g.Admit(false, 0); !ok {
		t.Fatal("healthy governor rejected a viewer")
	}
	if ok, _ := g.Admit(false, 2); ok {
		t.Fatal("MaxClients cap not enforced")
	}
	a.Add(92) // past cache threshold: viewers out, relays still in
	if ok, retry := g.Admit(false, 0); ok || retry <= 0 {
		t.Fatalf("viewer admitted at pressure 0.92 (retry=%v)", retry)
	}
	if ok, _ := g.Admit(true, 0); !ok {
		t.Fatal("relay rejected below shed threshold")
	}
	a.Add(6) // 0.98: everyone out
	if ok, _ := g.Admit(true, 10); ok {
		t.Fatal("relay admitted at pressure 0.98")
	}
	if g.rejected.Load() < 3 {
		t.Fatalf("rejected = %d, want >= 3", g.rejected.Load())
	}
}

func TestGovernorShed(t *testing.T) {
	g := NewGovernor(GovernorConfig{BudgetBytes: 100, ShedInterval: time.Millisecond})
	var mu sync.Mutex
	sheds := 0
	g.OnShed(func() bool {
		mu.Lock()
		defer mu.Unlock()
		sheds++
		return true
	})
	a := g.Account("x")
	a.Add(98)
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := sheds
		mu.Unlock()
		if n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no shed at pressure 0.98")
		}
		time.Sleep(time.Millisecond)
		a.Add(0) // recheck tick
		a.Release(0)
		g.recheck()
	}
	if g.ShedCount() < 1 {
		t.Fatalf("ShedCount = %d, want >= 1", g.ShedCount())
	}
}

func TestNilGovernorInert(t *testing.T) {
	var g *Governor
	a := g.Account("x")
	a.Add(100)
	a.Release(100)
	if g.Level() != LevelHealthy || g.Pressure() != 0 {
		t.Fatal("nil governor not inert")
	}
	if ok, _ := g.Admit(false, 1000); !ok {
		t.Fatal("nil governor rejected")
	}
	if g.QualityFloor(8) != 0 || g.PacerDepth(3) != 3 || g.CacheFillPaused() {
		t.Fatal("nil governor degraded")
	}
}

func TestBreakerOpensAndProbes(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Second, Now: clock})

	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker blocked attempt %d", i)
		}
		b.Failure()
	}
	if b.State() != BreakerClosed {
		t.Fatal("breaker opened below threshold")
	}
	b.Failure() // third consecutive failure
	if b.State() != BreakerOpen {
		t.Fatal("breaker not open after threshold failures")
	}
	if b.Allow() {
		t.Fatal("open breaker allowed before cooldown")
	}
	now = now.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused half-open probe after cooldown")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %s, want half-open", b.StateName())
	}
	if b.Allow() {
		t.Fatal("second concurrent half-open probe allowed")
	}
	b.Failure() // probe failed: re-open
	if b.State() != BreakerOpen {
		t.Fatal("failed probe did not re-open")
	}
	now = now.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("no probe after second cooldown")
	}
	b.Success()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("successful probe did not close the breaker")
	}
	if b.opens.Load() != 2 {
		t.Fatalf("opens = %d, want 2", b.opens.Load())
	}
	if b.rejected.Load() < 2 {
		t.Fatalf("rejected = %d, want >= 2", b.rejected.Load())
	}
}

func TestNilBreakerInert(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Fatal("nil breaker blocked")
	}
	b.Success()
	b.Failure()
	if b.State() != BreakerClosed || b.StateName() != "closed" {
		t.Fatal("nil breaker not closed")
	}
}

func TestWatchdogDetectsStallAndRecovery(t *testing.T) {
	w := NewWatchdog(5*time.Millisecond, nil)
	defer w.Close()

	var mu sync.Mutex
	w.Register("lock", 20*time.Millisecond, func() {
		mu.Lock()
		//lint:ignore SA2001 the probe is exactly acquire-then-release
		mu.Unlock()
	})

	waitFor := func(cond func(WatchdogStatus) bool, what string) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if cond(w.Status()) {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timeout waiting for %s: %+v", what, w.Status())
	}

	waitFor(func(s WatchdogStatus) bool {
		return s.Healthy && len(s.Probes) == 1 && s.Probes[0].LastOKAgoMS >= 0
	}, "healthy first pass")

	// Wedge the lock: the probe cannot complete and the check stalls.
	mu.Lock()
	waitFor(func(s WatchdogStatus) bool { return !s.Healthy && s.Probes[0].Stalls >= 1 }, "stall detection")

	// Release: the hung probe completes and the check recovers.
	mu.Unlock()
	waitFor(func(s WatchdogStatus) bool { return s.Healthy }, "recovery")
	if w.Stalls() < 1 {
		t.Fatalf("stalls = %d, want >= 1", w.Stalls())
	}
}
