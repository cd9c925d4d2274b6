package stream

import (
	"testing"

	"repro/internal/guard"
	"repro/internal/img"
)

// queuedBytes sums the payload bytes of the frames p holds.
func queuedBytes(p *Pacer) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, f := range p.q {
		n += f.Size()
	}
	return n
}

// frameOf builds a SourceFrame with real pixel bytes charged to acct,
// mirroring what Broker.ingest does when guarded.
func frameOf(id uint32, w, h int, acct *guard.Account) *SourceFrame {
	sf := &SourceFrame{ID: id, Image: img.NewFrame(w, h)}
	sf.acct = acct
	sf.refs.Store(1)
	acct.Add(sf.Size())
	return sf
}

// TestPacerEvictionUnderSustainedOverload floods a guarded pacer far
// past its depth with no consumer and checks the overload contract:
// queued bytes stay bounded by the (governor-narrowed) depth, the byte
// ledger tracks the queue exactly, and every offered frame is
// accounted for exactly once — still queued or reported dropped, with
// its identity returned to the caller so drop provenance can name it.
func TestPacerEvictionUnderSustainedOverload(t *testing.T) {
	const (
		depth  = 4
		w, h   = 16, 16
		frames = 200
	)
	frameBytes := int64(w * h * 3)
	// Budget sized so the flood drives pressure well past the pacer
	// degradation threshold: the governor narrows the effective depth.
	gov := guard.NewGovernor(guard.GovernorConfig{BudgetBytes: 6 * frameBytes})
	framesAcct := gov.Account("frames")
	pacerAcct := gov.Account("pacer")

	p := NewPacer(depth)
	p.SetGuard(pacerAcct, func() int { return gov.PacerDepth(depth) })

	droppedIDs := map[uint32]int{}
	var droppedCount int64
	for i := 0; i < frames; i++ {
		sf := frameOf(uint32(i), w, h, framesAcct)
		sf.retain()
		accepted, dropped := p.Offer(sf)
		if !accepted {
			t.Fatalf("frame %d refused by open pacer", i)
		}
		sf.release() // creator ref; the queued ref keeps the charge
		for _, d := range dropped {
			droppedIDs[d.ID]++
			droppedCount++
			d.release()
		}
		// Bounded backlog: never more than the configured depth queued,
		// and the byte ledger tracks the queue exactly.
		if n := p.Len(); n > depth {
			t.Fatalf("after frame %d: %d queued, depth %d", i, n, depth)
		}
		if got, want := queuedBytes(p), int64(p.Len())*frameBytes; got != want {
			t.Fatalf("after frame %d: pacer bytes %d, want %d", i, got, want)
		}
		if got := pacerAcct.Used(); got != queuedBytes(p) {
			t.Fatalf("after frame %d: account %d, queue %d", i, got, queuedBytes(p))
		}
	}

	// The flood pushes pressure over the pacer rung inside each charge,
	// the narrowed window evicts, and the refunds step the ladder right
	// back down — the transient is invisible to polling, so the entry
	// counters are the observable. The queue settling below the
	// configured depth is the narrowed window's steady state, and the
	// final level shows degradation is a regulator, not a ratchet.
	tr := gov.Transitions()
	if tr[guard.LevelPacer] == 0 {
		t.Fatalf("governor never entered %s under sustained overload (transitions %v)",
			guard.LevelName(guard.LevelPacer), tr)
	}
	if n := p.Len(); n >= depth {
		t.Fatalf("%d queued after flood, want < %d (narrowed window)", n, depth)
	}
	if lvl := gov.Level(); lvl > guard.LevelQuality {
		t.Fatalf("governor stuck at %s after the flood drained", guard.LevelName(lvl))
	}

	// Exact drop provenance: every offered frame is either still queued
	// or was returned as dropped exactly once — no ghost drops, no
	// silent losses.
	queued := map[uint32]bool{}
	for {
		p.Close()
		sf, ok := p.Next()
		if !ok {
			break
		}
		queued[sf.ID] = true
		sf.release()
	}
	for id, n := range droppedIDs {
		if n != 1 {
			t.Fatalf("frame %d reported dropped %d times", id, n)
		}
		if queued[id] {
			t.Fatalf("frame %d both dropped and queued", id)
		}
	}
	if got := int64(len(droppedIDs)) + int64(len(queued)); got != frames {
		t.Fatalf("%d dropped + %d queued = %d, want %d offered",
			len(droppedIDs), len(queued), got, frames)
	}
	if got := p.Drops(); got != droppedCount {
		t.Fatalf("Drops() = %d, want %d", got, droppedCount)
	}

	// With every reference released the whole ledger must drain: no
	// frame bytes leak past their last holder.
	if used := pacerAcct.Used(); used != 0 {
		t.Fatalf("pacer account holds %d bytes after drain", used)
	}
	if used := framesAcct.Used(); used != 0 {
		t.Fatalf("frames account holds %d bytes after drain", used)
	}
}

// TestPacerGuardNarrowsDepthMidStream checks the degradation step in
// isolation: the same pacer evicts down to the narrowed window in one
// Offer once the governor crosses the pacer rung, and every evicted
// frame is returned.
func TestPacerGuardNarrowsDepthMidStream(t *testing.T) {
	const depth = 6
	eff := depth
	p := NewPacer(depth)
	p.SetGuard(nil, func() int { return eff })

	for i := 0; i < depth; i++ {
		if ok, dropped := p.Offer(&SourceFrame{ID: uint32(i)}); !ok || len(dropped) != 0 {
			t.Fatalf("warm-up frame %d: ok=%v dropped=%d", i, ok, len(dropped))
		}
	}
	// Governor steps down: the window halves. The next Offer must evict
	// enough of the oldest frames to fit the new limit.
	eff = depth / 2
	ok, dropped := p.Offer(&SourceFrame{ID: depth})
	if !ok {
		t.Fatal("offer refused")
	}
	if want := depth - eff + 1; len(dropped) != want {
		t.Fatalf("%d evicted, want %d", len(dropped), want)
	}
	for i, d := range dropped {
		if d.ID != uint32(i) {
			t.Fatalf("eviction %d is frame %d, want oldest-first %d", i, d.ID, i)
		}
	}
	if n := p.Len(); n != eff {
		t.Fatalf("%d queued, want %d", n, eff)
	}
}
