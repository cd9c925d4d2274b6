// Package guard is the process-wide overload-protection layer: a
// resource Governor with byte-accounted memory budgets and a stepped
// degradation ladder, a circuit Breaker for upstream links, and a
// Watchdog for deadlock/stall self-checks.
//
// The Governor is the policy core. Subsystems that hold frame memory
// (decoded frames in flight, the encode cache, per-client pacer
// queues, a relay's upstream ingest) each open a named Account and
// charge/release bytes as buffers come and go. The Governor tracks the
// total against a configured budget and derives a pressure ratio; as
// pressure crosses thresholds the process steps down a degradation
// ladder, in order:
//
//	L0  healthy    — no intervention
//	L1  ≥ 70%     — force lower quality rungs (cheaper encodes)
//	L2  ≥ 80%     — widen pacer drop windows (shallower queues)
//	L3  ≥ 90%     — pause encode-cache fills (serve hits only)
//	L4  ≥ 97%     — shed the newest non-relay clients
//
// Each transition is logged and counted. Stepping back up requires
// pressure to fall a hysteresis margin below the threshold, so the
// ladder does not flap at a boundary. Admission control sits in front
// of all of it: above the L3 threshold new viewers are rejected with a
// wire MsgBusy + retry-after instead of being accepted and starving
// everyone already admitted (relays, which serve whole subtrees, are
// only turned away above the L4 threshold).
package guard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Degradation-ladder levels.
const (
	// LevelHealthy is normal operation.
	LevelHealthy = 0
	// LevelQuality forces clients onto lower quality rungs.
	LevelQuality = 1
	// LevelPacer additionally halves effective pacer queue depth.
	LevelPacer = 2
	// LevelCache additionally pauses encode-cache fills.
	LevelCache = 3
	// LevelShed additionally sheds the newest non-relay clients.
	LevelShed = 4

	numLevels = 5
)

// Pressure thresholds for entering each level (fraction of budget),
// and the hysteresis margin required to step back down.
const (
	qualityThreshold = 0.70
	pacerThreshold   = 0.80
	cacheThreshold   = 0.90
	shedThreshold    = 0.97
	hysteresis       = 0.03
)

// LevelName names a ladder level for logs and status output.
func LevelName(level int) string {
	switch level {
	case LevelHealthy:
		return "healthy"
	case LevelQuality:
		return "quality-floor"
	case LevelPacer:
		return "pacer-narrow"
	case LevelCache:
		return "cache-pause"
	case LevelShed:
		return "shed"
	}
	return fmt.Sprintf("level(%d)", level)
}

// GovernorConfig parameterizes a Governor.
type GovernorConfig struct {
	// BudgetBytes is the total frame-memory budget the accounts charge
	// against. Zero or negative disables pressure-driven degradation
	// (accounts still count, pressure reads 0).
	BudgetBytes int64
	// MaxClients caps admitted display sessions per broker regardless
	// of memory pressure (0 = unlimited).
	MaxClients int
	// RetryAfter is the base retry hint attached to busy rejections
	// (default 500ms; scaled up with the current ladder level).
	RetryAfter time.Duration
	// ShedInterval rate-limits client shedding while at LevelShed
	// (default 250ms) so one pressure spike does not clear the room.
	ShedInterval time.Duration
	// Logf receives transition and shed diagnostics (nil silences).
	Logf func(format string, args ...any)
}

// Account is one subsystem's byte ledger against the shared budget.
// Add and Release are safe for concurrent use and O(1).
type Account struct {
	name string
	gov  *Governor
	used atomic.Int64
}

// Used returns the bytes currently charged to this account.
func (a *Account) Used() int64 { return a.used.Load() }

// Add charges n bytes (no-op for n <= 0) and re-evaluates the ladder.
func (a *Account) Add(n int64) {
	if a == nil || n <= 0 {
		return
	}
	a.used.Add(n)
	a.gov.total.Add(n)
	a.gov.recheck()
}

// Release returns n bytes (no-op for n <= 0).
func (a *Account) Release(n int64) {
	if a == nil || n <= 0 {
		return
	}
	a.used.Add(-n)
	a.gov.total.Add(-n)
	a.gov.recheck()
}

// Governor is the process-wide resource governor. The zero value is
// not usable; construct with NewGovernor. A nil *Governor is inert:
// every method is safe to call and reports "no pressure", so callers
// thread an optional governor without nil checks.
type Governor struct {
	cfg GovernorConfig

	total atomic.Int64 // bytes charged across all accounts
	level atomic.Int32 // current ladder level

	mu       sync.Mutex
	accounts map[string]*Account
	shedFns  []func() bool
	lastShed time.Time

	transitions [numLevels]atomic.Int64 // entries into each level
	rejected    atomic.Int64
	shedCount   atomic.Int64
	shedBusy    atomic.Bool
}

// NewGovernor builds a governor over the given budget.
func NewGovernor(cfg GovernorConfig) *Governor {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 500 * time.Millisecond
	}
	if cfg.ShedInterval <= 0 {
		cfg.ShedInterval = 250 * time.Millisecond
	}
	return &Governor{cfg: cfg, accounts: map[string]*Account{}}
}

// Account returns the named byte ledger, creating it on first use.
// Nil-safe: a nil governor returns a nil account whose Add/Release are
// no-ops.
func (g *Governor) Account(name string) *Account {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	a, ok := g.accounts[name]
	if !ok {
		a = &Account{name: name, gov: g}
		g.accounts[name] = a
	}
	return a
}

// Used returns the total bytes charged across all accounts.
func (g *Governor) Used() int64 {
	if g == nil {
		return 0
	}
	return g.total.Load()
}

// Pressure returns used/budget in [0, ∞), or 0 when unbudgeted.
func (g *Governor) Pressure() float64 {
	if g == nil || g.cfg.BudgetBytes <= 0 {
		return 0
	}
	u := g.total.Load()
	if u <= 0 {
		return 0
	}
	return float64(u) / float64(g.cfg.BudgetBytes)
}

// Level returns the current degradation-ladder level.
func (g *Governor) Level() int {
	if g == nil {
		return LevelHealthy
	}
	return int(g.level.Load())
}

// levelFor maps a pressure ratio to the ladder level it demands,
// honoring the hysteresis margin relative to the current level: a
// level is kept until pressure falls margin below its threshold.
func levelFor(p float64, cur int) int {
	thresholds := [...]float64{qualityThreshold, pacerThreshold, cacheThreshold, shedThreshold}
	lvl := 0
	for i, th := range thresholds {
		eff := th
		if cur >= i+1 {
			eff = th - hysteresis
		}
		if p >= eff {
			lvl = i + 1
		}
	}
	return lvl
}

// recheck re-derives the ladder level from current pressure, counting
// and logging transitions, and triggers shedding while at LevelShed.
func (g *Governor) recheck() {
	if g == nil || g.cfg.BudgetBytes <= 0 {
		return
	}
	for {
		cur := g.level.Load()
		next := int32(levelFor(g.Pressure(), int(cur)))
		if next == cur {
			break
		}
		if !g.level.CompareAndSwap(cur, next) {
			continue
		}
		g.transitions[next].Add(1)
		if g.cfg.Logf != nil {
			dir := "up to"
			if next < cur {
				dir = "down to"
			}
			g.cfg.Logf("guard: pressure %.2f, degradation %s %s", g.Pressure(), dir, LevelName(int(next)))
		}
		break
	}
	if g.level.Load() >= LevelShed {
		g.maybeShed()
	}
}

// OnShed registers a shed callback — typically one per broker in the
// process — invoked (off the caller's goroutine) while the ladder sits
// at LevelShed. A callback reports whether it shed a client; the
// governor stops at the first success per shed round.
func (g *Governor) OnShed(fn func() bool) {
	if g == nil || fn == nil {
		return
	}
	g.mu.Lock()
	g.shedFns = append(g.shedFns, fn)
	g.mu.Unlock()
}

// maybeShed runs at most one shed round per ShedInterval, on its own
// goroutine so account updates made under subsystem locks never
// re-enter those subsystems synchronously.
func (g *Governor) maybeShed() {
	g.mu.Lock()
	due := time.Since(g.lastShed) >= g.cfg.ShedInterval && len(g.shedFns) > 0
	if due {
		g.lastShed = time.Now()
	}
	fns := g.shedFns
	g.mu.Unlock()
	if !due || !g.shedBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer g.shedBusy.Store(false)
		for _, fn := range fns {
			if fn() {
				g.shedCount.Add(1)
				if g.cfg.Logf != nil {
					g.cfg.Logf("guard: shed newest client (pressure %.2f)", g.Pressure())
				}
				return
			}
		}
	}()
}

// Admit decides whether a new display connection may attach. relay
// marks connections that serve whole subtrees: they are admitted up to
// the shed threshold, while plain viewers are turned away once the
// cache-pause threshold is crossed — the room is already degrading,
// more viewers only deepen it. clients is the broker's current session
// count for the MaxClients cap. A rejection returns the retry-after
// hint to put on the wire.
func (g *Governor) Admit(relay bool, clients int) (ok bool, retryAfter time.Duration) {
	if g == nil {
		return true, 0
	}
	reject := false
	if g.cfg.MaxClients > 0 && clients >= g.cfg.MaxClients && !relay {
		reject = true
	}
	p := g.Pressure()
	if relay {
		reject = reject || p >= shedThreshold
	} else {
		reject = reject || p >= cacheThreshold
	}
	if !reject {
		return true, 0
	}
	g.rejected.Add(1)
	// Scale the hint with how deep the ladder sits: the hotter the
	// process, the longer the caller should hold off.
	return false, g.cfg.RetryAfter * time.Duration(1+g.Level())
}

// QualityFloor returns the minimum ladder index (0 = best rung) a
// controller may operate at for a ladder of ladderLen rungs: no floor
// while healthy, the ladder midpoint at LevelQuality, the bottom rung
// from LevelPacer on.
func (g *Governor) QualityFloor(ladderLen int) int {
	if g == nil || ladderLen <= 1 {
		return 0
	}
	switch {
	case g.Level() >= LevelPacer:
		return ladderLen - 1
	case g.Level() >= LevelQuality:
		return ladderLen / 2
	}
	return 0
}

// PacerDepth returns the effective pacer queue depth for a configured
// depth: halved (min 1) from LevelPacer on, widening the drop window
// so backlog sheds sooner.
func (g *Governor) PacerDepth(configured int) int {
	if g == nil || g.Level() < LevelPacer {
		return configured
	}
	d := configured / 2
	if d < 1 {
		d = 1
	}
	return d
}

// CacheFillPaused reports whether encode caches should serve hits only
// and stop inserting new entries.
func (g *Governor) CacheFillPaused() bool {
	return g != nil && g.Level() >= LevelCache
}

// ShedCount counts clients shed at LevelShed.
func (g *Governor) ShedCount() int64 {
	if g == nil {
		return 0
	}
	return g.shedCount.Load()
}

// Transitions returns entries into each ladder level since start.
func (g *Governor) Transitions() [numLevels]int64 {
	var out [numLevels]int64
	if g == nil {
		return out
	}
	for i := range out {
		out[i] = g.transitions[i].Load()
	}
	return out
}

// AccountSnapshot is one account's point-in-time usage.
type AccountSnapshot struct {
	Name string `json:"name"`
	Used int64  `json:"used_bytes"`
}

// StatusSnapshot is the governor's observable state for /debug/status.
type StatusSnapshot struct {
	BudgetBytes int64             `json:"budget_bytes"`
	UsedBytes   int64             `json:"used_bytes"`
	Pressure    float64           `json:"pressure"`
	Level       int               `json:"level"`
	LevelName   string            `json:"level_name"`
	Rejected    int64             `json:"rejected"`
	Shed        int64             `json:"shed"`
	Transitions map[string]int64  `json:"transitions"`
	Accounts    []AccountSnapshot `json:"accounts"`
}

// Status snapshots the governor.
func (g *Governor) Status() StatusSnapshot {
	if g == nil {
		return StatusSnapshot{LevelName: LevelName(LevelHealthy)}
	}
	s := StatusSnapshot{
		BudgetBytes: g.cfg.BudgetBytes,
		UsedBytes:   g.total.Load(),
		Pressure:    g.Pressure(),
		Level:       g.Level(),
		LevelName:   LevelName(g.Level()),
		Rejected:    g.rejected.Load(),
		Shed:        g.shedCount.Load(),
		Transitions: map[string]int64{},
	}
	for i := 1; i < numLevels; i++ {
		s.Transitions[LevelName(i)] = g.transitions[i].Load()
	}
	g.mu.Lock()
	for _, a := range g.accounts {
		s.Accounts = append(s.Accounts, AccountSnapshot{Name: a.name, Used: a.Used()})
	}
	g.mu.Unlock()
	sort.Slice(s.Accounts, func(i, j int) bool { return s.Accounts[i].Name < s.Accounts[j].Name })
	return s
}

// Instrument registers the governor's series on a metrics registry.
func (g *Governor) Instrument(reg *obs.Registry) {
	if g == nil || reg == nil {
		return
	}
	reg.GaugeFunc("guard_budget_bytes", "Configured frame-memory budget.", func() float64 {
		return float64(g.cfg.BudgetBytes)
	})
	reg.GaugeFunc("guard_used_bytes", "Bytes charged across all guard accounts.", func() float64 {
		return float64(g.total.Load())
	})
	reg.GaugeFunc("guard_pressure", "used/budget pressure ratio.", g.Pressure)
	reg.GaugeFunc("guard_level", "Current degradation-ladder level (0=healthy .. 4=shed).", func() float64 {
		return float64(g.Level())
	})
	reg.CounterFunc("guard_rejected_total", "Connections rejected by admission control.", g.rejected.Load)
	reg.CounterFunc("guard_shed_total", "Clients shed under extreme pressure.", g.shedCount.Load)
	for i := 1; i < numLevels; i++ {
		c := &g.transitions[i]
		reg.CounterFunc(fmt.Sprintf("guard_transitions_total{level=%q}", LevelName(i)),
			"Degradation-ladder entries into this level.", c.Load)
	}
	reg.Collect(func(emit obs.Emit) {
		for _, a := range g.Status().Accounts {
			emit(fmt.Sprintf("guard_account_bytes{account=%q}", a.Name),
				"Bytes charged by one subsystem account.", "gauge", float64(a.Used))
		}
	})
}
