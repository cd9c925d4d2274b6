package provenance

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestLogRingBounded: the ring retains at most capacity events, oldest
// first out, and counts the overwritten ones.
func TestLogRingBounded(t *testing.T) {
	l := NewLog("n", 4)
	for i := 0; i < 10; i++ {
		l.Record(Event{Trace: 1, Frame: uint32(i), Event: EvReceived})
	}
	if got := l.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	snap := l.Snapshot()
	if snap[0].Frame != 6 || snap[3].Frame != 9 {
		t.Fatalf("snapshot frames = %d..%d, want 6..9", snap[0].Frame, snap[3].Frame)
	}
	if d := l.Dump().Dropped; d != 6 {
		t.Fatalf("dropped = %d, want 6", d)
	}
	for _, ev := range snap {
		if ev.Node != "n" || ev.UnixNano == 0 {
			t.Fatalf("event not stamped: %+v", ev)
		}
	}
}

// TestLogNilSafe: all methods are no-ops on a nil log, so hot paths
// need no guards.
func TestLogNilSafe(t *testing.T) {
	var l *Log
	l.Record(Event{Event: EvSent})
	if l.Len() != 0 || l.Snapshot() != nil || l.Node() != "" {
		t.Fatal("nil log not inert")
	}
}

// TestLogConcurrentScrapeIngest hammers one ring from writer
// goroutines while readers scrape the HTTP handler — the shape of a
// live daemon being crawled mid-stream. Run under -race.
func TestLogConcurrentScrapeIngest(t *testing.T) {
	l := NewLog("node", 256)
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()

	const writers, scrapes, perWriter = 4, 25, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Record(Event{
					Trace: uint64(w + 1), Frame: uint32(i), Hop: w,
					Event: EvReceived, Bytes: i, Link: "127.0.0.1:1",
				})
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < scrapes; i++ {
			resp, err := http.Get(srv.URL)
			if err != nil {
				t.Error(err)
				return
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			var d Dump
			if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
				t.Errorf("scrape %d: bad JSON: %v", i, err)
			}
			resp.Body.Close()
			if len(d.Events) > 256 {
				t.Errorf("scrape %d: %d events exceed capacity", i, len(d.Events))
			}
			if d.Node != "node" || d.NowUnixNano == 0 {
				t.Errorf("scrape %d: dump header %q/%d", i, d.Node, d.NowUnixNano)
			}
		}
	}()
	wg.Wait()
	if got := l.Len(); got != 256 {
		t.Fatalf("final Len = %d, want full ring 256", got)
	}
}
