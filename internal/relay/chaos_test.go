package relay

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/display"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// idCollector records every frame ID a viewer displays and flags
// duplicates — the "no frame delivered twice" half of the re-parent
// contract.
type idCollector struct {
	mu   sync.Mutex
	seen map[uint32]int
	n    int
}

func collect(v *display.Viewer) *idCollector {
	c := &idCollector{seen: map[uint32]int{}}
	go func() {
		for f := range v.Frames() {
			c.mu.Lock()
			c.seen[f.ID]++
			c.n++
			c.mu.Unlock()
		}
	}()
	return c
}

func (c *idCollector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *idCollector) dups() []uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []uint32
	for id, n := range c.seen {
		if n > 1 {
			out = append(out, id)
		}
	}
	return out
}

// TestChaosInteriorRelayKill kills an interior relay mid-stream with a
// scripted fault.Injector kill and asserts the re-parenting contract:
// every downstream viewer resumes within the reconnect+failover budget
// (the orphaned edges re-attach to their grandparent, the root), no
// viewer sees any frame twice, and the edges record the re-parent.
func TestChaosInteriorRelayKill(t *testing.T) {
	testutil.CheckGoroutines(t)
	retry := transport.RetryPolicy{
		Base: 10 * time.Millisecond, Max: 50 * time.Millisecond,
		Factor: 2, Jitter: -1, MaxAttempts: 3,
	}
	failover := 25 * time.Millisecond
	// The budget a viewer outage must fit in: the session burns its
	// whole retry ladder against the dead parent, the node pauses one
	// failover backoff, dials the grandparent, and frames resume. The
	// 20x factor absorbs -race scheduler noise; the point of the
	// assertion is "sub-second with these knobs", not a tight bound.
	budget := 20 * (retry.Base + 2*retry.Base + 4*retry.Base + failover + 100*time.Millisecond)

	root, err := stream.ListenAndServe("127.0.0.1:0", stream.Config{Target: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	inj := fault.New(fault.Plan{})
	interior, err := ListenAndServe("127.0.0.1:0", Config{
		Name:         "interior",
		Parents:      []string{root.Addr().String()},
		Stream:       stream.Config{Target: 50 * time.Millisecond},
		Retry:        retry,
		WrapUpstream: inj.Wrapper(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer interior.Close()

	var edges []*Node
	for _, name := range []string{"edge-0", "edge-1"} {
		e, err := ListenAndServe("127.0.0.1:0", Config{
			Name: name,
			// Ancestor chain: parent first, then the grandparent (root)
			// as the re-parent target.
			Parents:         []string{interior.Addr().String(), root.Addr().String()},
			Stream:          stream.Config{Target: 50 * time.Millisecond},
			Retry:           retry,
			FailoverBackoff: failover,
			WrapUpstream:    inj.Wrapper(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		edges = append(edges, e)
	}

	var collectors []*idCollector
	for _, e := range edges {
		ep, err := transport.Dial(e.Addr().String(), transport.RoleDisplay, nil)
		if err != nil {
			t.Fatal(err)
		}
		v := display.NewViewer(ep)
		defer v.Close()
		collectors = append(collectors, collect(v))
	}

	// Renderer streams continuously into the root for the whole test.
	rend, err := transport.Dial(root.Addr().String(), transport.RoleRenderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rend.Close()
	var stop atomic.Bool
	var sendWG sync.WaitGroup
	sendWG.Add(1)
	go func() {
		defer sendWG.Done()
		for id := uint32(0); !stop.Load(); id++ {
			if err := rend.SendImage(testFrame(t, id, 32)); err != nil {
				return
			}
			time.Sleep(15 * time.Millisecond)
		}
	}()
	defer func() { stop.Store(true); sendWG.Wait() }()

	waitFor(t, 10*time.Second, "frames flowing through the interior tier", func() bool {
		for _, c := range collectors {
			if c.count() < 3 {
				return false
			}
		}
		return true
	})

	// Scripted kill: sever every fault-wrapped link (interior→root and
	// both edge→interior) and keep the interior daemon down so the
	// edges' retries against it fail and failover engages.
	before := make([]int, len(collectors))
	for i, c := range collectors {
		before[i] = c.count()
	}
	killed := inj.KillAll()
	if killed == 0 {
		t.Fatal("scripted kill severed no connections")
	}
	interior.Close()
	killAt := time.Now()

	waitFor(t, budget, "viewers to resume after the interior kill", func() bool {
		for i, c := range collectors {
			if c.count() < before[i]+3 {
				return false
			}
		}
		return true
	})
	resumed := time.Since(killAt)
	t.Logf("viewers resumed %v after the kill (budget %v, %d links killed)", resumed, budget, killed)

	for i, c := range collectors {
		if dups := c.dups(); len(dups) > 0 {
			t.Errorf("viewer %d saw frames twice: %v", i, dups)
		}
	}
	for _, e := range edges {
		if got := e.stats.Reparents.Load(); got < 1 {
			t.Errorf("edge %s reparents = %d, want >= 1", e.cfg.Name, got)
		}
		if p := e.Parent(); p != root.Addr().String() {
			t.Errorf("edge %s parent = %q, want the grandparent %q", e.cfg.Name, p, root.Addr())
		}
	}
	if ks := inj.Stats().Kills; ks == 0 {
		t.Error("injector recorded no kills")
	}
}

// TestReparentReplayDoesNotChargeBudget is the regression test for a
// double-count bug: after a re-parent during active overload, the new
// parent replays frames the old parent already delivered, and those
// dedup-window duplicates used to be charged against the memory budget
// before the dup check dropped them — so the replay burst itself could
// push the governor up the degradation ladder. The upstream in-flight
// charge must happen only past the dup check.
func TestReparentReplayDoesNotChargeBudget(t *testing.T) {
	testutil.CheckGoroutines(t)
	im := testFrame(t, 1, 8)
	payload, err := im.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Budget of exactly one payload: any single dup charge drives
	// pressure to 1.0 and the transition counters record it.
	gov := guard.NewGovernor(guard.GovernorConfig{BudgetBytes: int64(len(payload))})
	cfg := Config{Name: "n", Parents: []string{"unreachable:0"}, Guard: gov}
	cfg = cfg.withDefaults()
	cfg.Stream.Guard = gov
	// Hand-built node: the upstream loop is irrelevant here, onImage is
	// driven directly with crafted upstream messages.
	n := &Node{
		cfg:      cfg,
		broker:   stream.NewBroker(cfg.Stream),
		log:      obs.NewLogger("relay"),
		seen:     map[uint32]struct{}{},
		breakers: map[string]*guard.Breaker{},
		done:     make(chan struct{}),
	}
	n.upstreamAcct = gov.Account("relay-upstream")
	defer n.broker.Close()

	n.onImage(transport.Message{Type: transport.MsgImage, Payload: payload})
	if got := n.stats.FramesIn.Load(); got != 1 {
		t.Fatalf("frames in = %d, want 1", got)
	}
	base := gov.Transitions()

	// Re-parent replay burst: the new parent re-sends the delivered
	// frame many times over.
	const replays = 50
	for i := 0; i < replays; i++ {
		n.onImage(transport.Message{Type: transport.MsgImage, Payload: payload})
		if used := n.upstreamAcct.Used(); used != 0 {
			t.Fatalf("replay %d left %d bytes charged to the upstream account", i, used)
		}
	}
	if got := n.stats.DupDropped.Load(); got != replays {
		t.Fatalf("dup dropped = %d, want %d", got, replays)
	}
	if tr := gov.Transitions(); tr != base {
		t.Fatalf("replay burst moved the degradation ladder: %v -> %v", base, tr)
	}
	if used := gov.Used(); used != 0 {
		t.Fatalf("governor holds %d bytes after the burst", used)
	}
}
