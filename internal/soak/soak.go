// Package soak drives a live loopback relay tree through a seeded,
// randomized overload-and-fault schedule and checks the resilience
// invariants the guard layer promises: admission control engages
// under a client flood, memory stays bounded by the governor budget
// instead of growing with offered load, admitted clients keep a
// bounded p99 frame age, service recovers within an SLO after a hard
// link kill, the watchdog never sees a stalled broker loop, and the
// whole run drains — zero residual budget bytes and zero leaked
// goroutines. TestSoakShortSchedule runs it and fails on any
// invariant that trips.
package soak

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress"
	"repro/internal/display"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/img"
	"repro/internal/relay"
	"repro/internal/stream"
	"repro/internal/transport"
)

// Config is the soak schedule. Zero values pick defaults sized for a
// CI run under -race; TestSoakShortSchedule shrinks the frame counts.
type Config struct {
	// Seed makes the schedule reproducible: flood arrival jitter and
	// edge selection derive from it.
	Seed int64
	// BudgetBytes is the shared governor budget for the whole tree —
	// deliberately small so the flood is a memory squeeze (default
	// 128 KiB).
	BudgetBytes int64
	// MaxClients caps display sessions per broker (default 4).
	MaxClients int
	// BaseViewers is the number of well-behaved viewers attached
	// before the flood, spread round-robin over the edges (default 4).
	BaseViewers int
	// FloodFactor scales the flood: FloodFactor*BaseViewers slow
	// clients dial in during the flood phase (default 5).
	FloodFactor int
	// FrameInterval is the renderer cadence (default 25ms).
	FrameInterval time.Duration
	// BaselineFrames / FloodFrames size the unloaded and flooded
	// phases in frames (defaults 40 / 60).
	BaselineFrames int
	FloodFrames    int
	// StallDuration is how long the scripted partition starves the
	// impaired edge's upstream writes (default 200ms).
	StallDuration time.Duration
	// RecoverySLO bounds how long viewers may take to see post-kill
	// frames again after the hard link kill (default 3s).
	RecoverySLO time.Duration
	// Side is the synthetic frame edge length in pixels (default 64).
	Side int
	// Logf receives phase-by-phase narration (nil silences).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.BudgetBytes <= 0 {
		c.BudgetBytes = 128 << 10
	}
	if c.MaxClients <= 0 {
		c.MaxClients = 4
	}
	if c.BaseViewers <= 0 {
		c.BaseViewers = 4
	}
	if c.FloodFactor <= 0 {
		c.FloodFactor = 5
	}
	if c.FrameInterval <= 0 {
		c.FrameInterval = 25 * time.Millisecond
	}
	if c.BaselineFrames <= 0 {
		c.BaselineFrames = 40
	}
	if c.FloodFrames <= 0 {
		c.FloodFrames = 60
	}
	if c.StallDuration <= 0 {
		c.StallDuration = 200 * time.Millisecond
	}
	if c.RecoverySLO <= 0 {
		c.RecoverySLO = 3 * time.Second
	}
	if c.Side <= 0 {
		c.Side = 64
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Invariant is one named pass/fail check with its evidence.
type Invariant struct {
	Name   string
	OK     bool
	Detail string
}

// Result is everything the soak observed.
type Result struct {
	Seed         int64
	BudgetBytes  int64
	BaseViewers  int
	FloodClients int

	Admitted    int64
	Rejected    int64
	DialErrors  int64
	Shed        int64
	Transitions map[string]int64

	PeakUsedBytes int64
	ResidualBytes int64

	BaselineP99MS float64
	LoadedP99MS   float64
	AgeBoundMS    float64

	Kills         int
	ReadStalls    int64
	RecoveryMS    float64
	RecoverySLOMS float64

	WatchdogStalls   int64
	LeakedGoroutines int
	Panic            string

	Invariants []Invariant
}

func (r *Result) check(name string, ok bool, format string, args ...any) {
	r.Invariants = append(r.Invariants, Invariant{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// phase markers for the age-recording viewers.
const (
	phaseBaseline = iota
	phaseFlood
	phaseFault
	phaseDone
)

// Run executes the soak schedule and returns the observed result. An
// error means the harness itself could not stand up (listen/dial
// failures); invariant trips are reported in Result, not as errors.
func Run(cfg Config) (res *Result, err error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	res = &Result{
		Seed:          cfg.Seed,
		BudgetBytes:   cfg.BudgetBytes,
		BaseViewers:   cfg.BaseViewers,
		FloodClients:  cfg.FloodFactor * cfg.BaseViewers,
		RecoverySLOMS: float64(cfg.RecoverySLO) / float64(time.Millisecond),
	}
	defer func() {
		if r := recover(); r != nil {
			res.Panic = fmt.Sprint(r)
			res.check("no-panic", false, "panicked: %v", r)
		}
	}()
	before := goroutineIDs()

	gov := guard.NewGovernor(guard.GovernorConfig{
		BudgetBytes:  cfg.BudgetBytes,
		MaxClients:   cfg.MaxClients,
		RetryAfter:   50 * time.Millisecond,
		ShedInterval: 100 * time.Millisecond,
		Logf:         cfg.Logf,
	})

	// Sheds by identity: a broker names the remote address of every
	// display it sheds, and a base viewer's local address is that
	// remote, so shedNano[i] records when the governor shed base viewer
	// i (0 = never). Base viewers register their address in baseAddr
	// as they dial.
	var addrMu sync.Mutex
	baseAddr := make([]string, cfg.BaseViewers)
	shedNano := make([]atomic.Int64, cfg.BaseViewers)
	brokerLogf := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if !strings.Contains(line, "shedding newest display") {
			return
		}
		cfg.Logf("%s", line)
		addrMu.Lock()
		defer addrMu.Unlock()
		for i, a := range baseAddr {
			if a != "" && strings.Contains(line, "("+a+")") {
				shedNano[i].CompareAndSwap(0, time.Now().UnixNano())
			}
		}
	}

	// One edge's upstream link carries every scripted fault: a mild
	// recurring read stall for the whole run (the WAN-flavored
	// impairment), a write partition window, and finally a hard kill.
	// It is the last edge: the governor offers each shed round to the
	// brokers in the order they joined it (root, t1-n0, t1-n1) and the
	// first with a display gives one up, so t1-n0 absorbs the sheds
	// and the killed edge keeps base viewers for the recovery check.
	const killedEdge = 1
	inj := fault.New(fault.Plan{ReadStallEveryBytes: 64 << 10, ReadStall: 2 * time.Millisecond})
	tree, err := relay.BuildTree(relay.TreeSpec{
		Tiers: 2, FanOut: 2,
		Stream: stream.Config{Target: cfg.FrameInterval, QueueDepth: 3, CacheFrames: 4, Logf: brokerLogf},
		Retry: transport.RetryPolicy{
			Base: 20 * time.Millisecond, Max: 200 * time.Millisecond,
			Factor: 2, MaxAttempts: 8,
		},
		FailoverBackoff: 25 * time.Millisecond,
		Guard:           gov,
		WrapUpstreamFor: func(tier, index int) func(net.Conn) net.Conn {
			if tier == 1 && index == killedEdge {
				return inj.Wrapper()
			}
			return nil
		},
		Logf: cfg.Logf,
	})
	if err != nil {
		return nil, fmt.Errorf("soak: build tree: %w", err)
	}
	treeClosed := false
	defer func() {
		if !treeClosed {
			tree.Close()
		}
	}()

	// Watchdog over every broker loop in the tree: a wedged lock
	// holder anywhere shows up as a stall count.
	wd := guard.NewWatchdog(100*time.Millisecond, cfg.Logf)
	wd.Register("root", time.Second, tree.Root.Probe)
	for i, n := range tree.Nodes() {
		wd.Register(fmt.Sprintf("relay-%d", i), time.Second, n.Probe)
	}
	defer wd.Close()

	// Shared send-time ledger: the renderer stamps each frame ID on
	// send, viewers look the stamp up on display to compute frame age.
	var sentMu sync.Mutex
	sent := map[uint32]time.Time{}
	stampOf := func(id uint32) (time.Time, bool) {
		sentMu.Lock()
		defer sentMu.Unlock()
		t, ok := sent[id]
		return t, ok
	}

	var phase atomic.Int32
	var killNano atomic.Int64
	var agesMu sync.Mutex
	var baseAges, loadAges []time.Duration
	recovered := make([]atomic.Int64, cfg.BaseViewers)
	// closedNano[i] records when base viewer i's frame channel closed
	// (0 = still open).
	closedNano := make([]atomic.Int64, cfg.BaseViewers)

	// Base viewers: well-behaved clients attached before the flood,
	// round-robin over the edges. Each drains promptly and records the
	// age of every frame it displays into the current phase's bucket.
	edges := tree.EdgeAddrs()
	var baseViewers []*display.Viewer
	closeViewers := func(vs []*display.Viewer) {
		for _, v := range vs {
			v.Close()
		}
	}
	defer func() { closeViewers(baseViewers) }()
	for i := 0; i < cfg.BaseViewers; i++ {
		ep, err := transport.Dial(edges[i%len(edges)], transport.RoleDisplay, func(c net.Conn) net.Conn {
			addrMu.Lock()
			baseAddr[i] = c.LocalAddr().String()
			addrMu.Unlock()
			return c
		})
		if err != nil {
			return nil, fmt.Errorf("soak: base viewer %d: %w", i, err)
		}
		v := display.NewViewer(ep)
		baseViewers = append(baseViewers, v)
		idx := i
		go func() {
			for fr := range v.Frames() {
				t0, ok := stampOf(fr.ID)
				if !ok {
					continue
				}
				age := time.Since(t0)
				switch phase.Load() {
				case phaseBaseline:
					agesMu.Lock()
					baseAges = append(baseAges, age)
					agesMu.Unlock()
				case phaseFlood:
					agesMu.Lock()
					loadAges = append(loadAges, age)
					agesMu.Unlock()
				}
				if k := killNano.Load(); k != 0 && t0.UnixNano() > k {
					recovered[idx].CompareAndSwap(0, time.Now().UnixNano())
				}
			}
			closedNano[idx].Store(time.Now().UnixNano())
		}()
	}

	// Renderer: one synthetic frame every FrameInterval for the whole
	// run, with the governor's high-water mark sampled on each send.
	rend, err := transport.Dial(tree.Root.Addr().String(), transport.RoleRenderer, nil)
	if err != nil {
		return nil, fmt.Errorf("soak: renderer: %w", err)
	}
	frame := img.NewFrame(cfg.Side, cfg.Side)
	for i := range frame.Pix {
		frame.Pix[i] = byte(rng.Intn(256))
	}
	data, err := compress.Raw{}.EncodeFrame(frame)
	if err != nil {
		return nil, fmt.Errorf("soak: encode seed frame: %w", err)
	}
	var peakUsed atomic.Int64
	var sendErr atomic.Pointer[error]
	stopSend := make(chan struct{})
	sendDone := make(chan struct{})
	go func() {
		defer close(sendDone)
		defer rend.Close()
		tick := time.NewTicker(cfg.FrameInterval)
		defer tick.Stop()
		for id := uint32(1); ; id++ {
			select {
			case <-stopSend:
				return
			case <-tick.C:
			}
			im := &transport.ImageMsg{
				FrameID:    id,
				PieceCount: 1,
				X1:         uint16(cfg.Side), Y1: uint16(cfg.Side),
				W: uint16(cfg.Side), H: uint16(cfg.Side),
				Codec: "raw",
				Data:  data,
			}
			sentMu.Lock()
			sent[id] = time.Now()
			sentMu.Unlock()
			if err := rend.SendImage(im); err != nil {
				sendErr.Store(&err)
				return
			}
			if u := gov.Used(); u > peakUsed.Load() {
				peakUsed.Store(u)
			}
		}
	}()

	// Phase 1: unloaded baseline.
	cfg.Logf("soak: baseline, %d frames at %v", cfg.BaselineFrames, cfg.FrameInterval)
	time.Sleep(time.Duration(cfg.BaselineFrames) * cfg.FrameInterval)

	// Phase 2: client flood — FloodFactor x the base population dials
	// in with seeded jitter, and every admitted flood client reads
	// slowly, holding pacer queues full (the memory squeeze).
	phase.Store(phaseFlood)
	floodN := res.FloodClients
	floodWindow := time.Duration(cfg.FloodFrames/2) * cfg.FrameInterval
	cfg.Logf("soak: flood, %d clients over %v", floodN, floodWindow)
	var admitted, rejected, dialErrs atomic.Int64
	var floodMu sync.Mutex
	var floodViewers []*display.Viewer
	defer func() {
		floodMu.Lock()
		vs := floodViewers
		floodViewers = nil
		floodMu.Unlock()
		closeViewers(vs)
	}()
	var floodWG sync.WaitGroup
	for i := 0; i < floodN; i++ {
		addr := edges[rng.Intn(len(edges))]
		delay := time.Duration(rng.Int63n(int64(floodWindow)))
		floodWG.Add(1)
		go func() {
			defer floodWG.Done()
			time.Sleep(delay)
			ep, err := transport.Dial(addr, transport.RoleDisplay, nil)
			if err != nil {
				if errors.Is(err, transport.ErrBusy) {
					rejected.Add(1)
				} else {
					dialErrs.Add(1)
				}
				return
			}
			admitted.Add(1)
			v := display.NewViewer(ep)
			floodMu.Lock()
			floodViewers = append(floodViewers, v)
			floodMu.Unlock()
			go func() {
				for range v.Frames() {
					time.Sleep(4 * cfg.FrameInterval)
				}
			}()
		}()
	}
	time.Sleep(time.Duration(cfg.FloodFrames) * cfg.FrameInterval)
	floodWG.Wait()

	// Phase 3: scripted faults while the flood is still attached.
	// First a write partition on the impaired edge's upstream link
	// (ack starvation — frames must keep flowing and nothing may
	// deadlock), then a hard kill of every fault-wrapped connection;
	// the edge must re-attach and its viewers resume within the SLO.
	phase.Store(phaseFault)
	cfg.Logf("soak: partition for %v", cfg.StallDuration)
	inj.Partition()
	time.Sleep(cfg.StallDuration)
	inj.Heal()
	time.Sleep(2 * cfg.FrameInterval)

	killAt := time.Now()
	killNano.Store(killAt.UnixNano())
	kills := inj.KillAll()
	cfg.Logf("soak: killed %d upstream link(s)", kills)
	recoveryDeadline := killAt.Add(cfg.RecoverySLO + time.Second)
	// A base viewer the governor shed, before or after the kill, is
	// designed ladder behavior, not a recovery failure, so it is out of
	// the recovery population; a viewer closed for any other reason
	// stays in. Base viewers i with i%len(edges) == killedEdge sit
	// behind the killed link, and the check needs one of them.
	surviving := func(i int) bool { return shedNano[i].Load() == 0 }
	allRecovered := func() (n, onKilled int, all bool) {
		all = true
		for i := range recovered {
			if !surviving(i) {
				continue
			}
			n++
			if i%len(edges) == killedEdge {
				onKilled++
			}
			if recovered[i].Load() == 0 {
				all = false
			}
		}
		return n, onKilled, all
	}
	for {
		if _, _, all := allRecovered(); all || !time.Now().Before(recoveryDeadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	var recovery time.Duration
	survivors, killedEdgeSurvivors, recoveredAll := allRecovered()
	sinceKill := func(ns int64) string {
		if ns == 0 {
			return "never"
		}
		return time.Unix(0, ns).Sub(killAt).Round(time.Millisecond).String()
	}
	for i := range recovered {
		cfg.Logf("soak: base viewer %d (edge %d): shed %s, closed %s, recovered %s after the kill",
			i, i%len(edges), sinceKill(shedNano[i].Load()), sinceKill(closedNano[i].Load()), sinceKill(recovered[i].Load()))
	}
	for i := range recovered {
		if ts := recovered[i].Load(); ts != 0 {
			if d := time.Unix(0, ts).Sub(killAt); d > recovery {
				recovery = d
			}
		}
	}

	// Teardown: stop the renderer, detach every client, fold the tree,
	// then hold the run to the drain and leak invariants.
	phase.Store(phaseDone)
	close(stopSend)
	<-sendDone
	floodMu.Lock()
	vs := floodViewers
	floodViewers = nil
	floodMu.Unlock()
	closeViewers(vs)
	closeViewers(baseViewers)
	baseViewers = nil
	stalls := wd.Stalls()
	healthy := wd.Status().Healthy
	wd.Close()
	tree.Close()
	treeClosed = true

	residual := gov.Used()
	for deadline := time.Now().Add(2 * time.Second); residual != 0 && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		residual = gov.Used()
	}
	leaked := newReproGoroutines(before)
	for deadline := time.Now().Add(2 * time.Second); len(leaked) > 0 && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		leaked = newReproGoroutines(before)
	}

	// Fill in the observations and judge the invariants.
	status := gov.Status()
	res.Admitted = admitted.Load()
	res.Rejected = rejected.Load()
	res.DialErrors = dialErrs.Load()
	res.Shed = gov.ShedCount()
	res.Transitions = status.Transitions
	res.PeakUsedBytes = peakUsed.Load()
	res.ResidualBytes = residual
	res.Kills = kills
	res.ReadStalls = inj.Stats().Stalls
	res.RecoveryMS = float64(recovery) / float64(time.Millisecond)
	res.WatchdogStalls = stalls
	res.LeakedGoroutines = len(leaked)

	agesMu.Lock()
	basePhase, loadPhase := append([]time.Duration(nil), baseAges...), append([]time.Duration(nil), loadAges...)
	agesMu.Unlock()
	baseP99, loadP99 := p99(basePhase), p99(loadPhase)
	bound := 2 * baseP99
	if m := 2 * cfg.FrameInterval; bound < m {
		bound = m
	}
	res.BaselineP99MS = float64(baseP99) / float64(time.Millisecond)
	res.LoadedP99MS = float64(loadP99) / float64(time.Millisecond)
	res.AgeBoundMS = float64(bound) / float64(time.Millisecond)

	res.check("no-panic", true, "run completed")
	if serr := sendErr.Load(); serr != nil {
		res.check("renderer-alive", false, "renderer send failed mid-run: %v", *serr)
	} else {
		res.check("renderer-alive", true, "renderer streamed the full schedule")
	}
	res.check("admission-engaged", res.Rejected > 0,
		"flood: %d admitted, %d rejected busy, %d dial errors", res.Admitted, res.Rejected, res.DialErrors)
	degraded := int64(0)
	for name, n := range res.Transitions {
		if name != guard.LevelName(0) {
			degraded += n
		}
	}
	res.check("degradation-engaged", degraded > 0 || res.Shed > 0,
		"ladder transitions %v, shed %d", res.Transitions, res.Shed)
	res.check("memory-bounded", res.PeakUsedBytes <= 2*cfg.BudgetBytes,
		"peak %d bytes vs budget %d (bound 2x)", res.PeakUsedBytes, cfg.BudgetBytes)
	res.check("frame-age", len(basePhase) > 0 && len(loadPhase) > 0 && loadP99 <= bound,
		"baseline p99 %.1fms (%d samples), loaded p99 %.1fms (%d samples), bound %.1fms",
		res.BaselineP99MS, len(basePhase), res.LoadedP99MS, len(loadPhase), res.AgeBoundMS)
	res.check("recovery", kills > 0 && killedEdgeSurvivors > 0 && recoveredAll && recovery <= cfg.RecoverySLO,
		"%d kills, %d/%d surviving viewers (%d on the killed edge) recovered=%v, worst recovery %.0fms vs SLO %.0fms",
		kills, survivors, cfg.BaseViewers, killedEdgeSurvivors, recoveredAll, res.RecoveryMS, res.RecoverySLOMS)
	res.check("watchdog", healthy && stalls == 0, "healthy=%v stalls=%d", healthy, stalls)
	res.check("budget-drained", residual == 0, "residual %d bytes after teardown", residual)
	res.check("no-goroutine-leaks", len(leaked) == 0,
		"%d goroutines still running repro code%s", len(leaked), stackHeads(leaked))
	return res, nil
}

// p99 returns the 99th-percentile duration (0 for an empty sample).
func p99(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := len(sorted) * 99 / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// goroutineIDs snapshots the IDs of every live goroutine.
func goroutineIDs() map[int64]bool {
	out := map[int64]bool{}
	for id := range goroutineStacks() {
		out[id] = true
	}
	return out
}

// newReproGoroutines returns the stacks of goroutines started since
// the snapshot that are still executing this repo's code — the soak's
// own machinery excluded.
func newReproGoroutines(before map[int64]bool) []string {
	var out []string
	for id, stack := range goroutineStacks() {
		if before[id] {
			continue
		}
		if !strings.Contains(stack, "repro/") {
			continue
		}
		if strings.Contains(stack, "internal/soak.") {
			continue
		}
		out = append(out, stack)
	}
	return out
}

// stackHeads compresses leaked stacks into their first frames for the
// invariant evidence line.
func stackHeads(stacks []string) string {
	if len(stacks) == 0 {
		return ""
	}
	var heads []string
	for _, s := range stacks {
		lines := strings.SplitN(s, "\n", 4)
		head := lines[0]
		if len(lines) > 1 {
			head += " at " + strings.TrimSpace(lines[1])
		}
		heads = append(heads, head)
	}
	return ": " + strings.Join(heads, "; ")
}

// goroutineStacks parses a full runtime stack dump into one entry per
// goroutine ID.
func goroutineStacks() map[int64]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[int64]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		rest, ok := strings.CutPrefix(g, "goroutine ")
		if !ok {
			continue
		}
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			continue
		}
		id, err := strconv.ParseInt(rest[:sp], 10, 64)
		if err != nil {
			continue
		}
		out[id] = g
	}
	return out
}
