package stream_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/display"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wan"
)

// TestBrokerInstrumentAndTrace pins the broker's observability bridge:
// after streaming real frames to a client, the registry carries the
// broker counters, the per-stage histograms and the per-client labeled
// series, and the tracer holds encode/send spans on the client's
// track.
func TestBrokerInstrumentAndTrace(t *testing.T) {
	b := stream.NewBroker(stream.Config{Target: 50 * time.Millisecond, QueueDepth: 4, CacheFrames: 8})
	defer b.Close()
	reg := obs.NewRegistry()
	b.Instrument(reg)
	tr := obs.NewTracer(obs.WallClock(), 4096)
	b.SetTracer(tr)

	ep := pipeConn(t, b, transport.RoleDisplay, wan.Profile{})
	v := display.NewViewer(ep)
	go func() {
		for range v.Frames() {
		}
	}()
	rend := pipeConn(t, b, transport.RoleRenderer, wan.Profile{})
	const n = 5
	sendFrames(t, rend, noiseFrame(32, 32), n, 5*time.Millisecond)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && v.Stats().Frames < n {
		time.Sleep(10 * time.Millisecond)
	}
	if got := v.Stats().Frames; got < n {
		t.Fatalf("viewer saw %d/%d frames", got, n)
	}

	snap := reg.Snapshot()
	if got := snap["broker_frames_in_total"]; got != float64(n) {
		t.Fatalf("broker_frames_in_total = %v, want %d", got, n)
	}
	if got := snap["broker_frames_out_total"]; got != float64(n) {
		t.Fatalf("broker_frames_out_total = %v, want %d", got, n)
	}
	if got := snap["broker_clients"]; got != 1.0 {
		t.Fatalf("broker_clients = %v, want 1", got)
	}
	if got := snap["broker_encode_seconds_count"]; got != float64(n) {
		t.Fatalf("encode histogram count = %v, want %d", got, n)
	}
	if got := snap["broker_send_seconds_count"]; got != float64(n) {
		t.Fatalf("send histogram count = %v, want %d", got, n)
	}

	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE broker_frames_out_total counter",
		"# TYPE broker_send_seconds summary",
	} {
		if !strings.Contains(expo.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, expo.String())
		}
	}
	// Every per-client series is emitted once per scrape, from the
	// client snapshot alone.
	for _, name := range []string{"frames_sent", "bytes_sent", "drops", "queue_len", "bandwidth_Bps", "rtt_ms", "quality"} {
		series := "\nbroker_client_" + name + `{client="1"} `
		if got := strings.Count(expo.String(), series); got != 1 {
			t.Fatalf("%q appears %d times in the exposition, want 1:\n%s", series, got, expo.String())
		}
	}

	spans := map[string]int{}
	for _, sp := range tr.Spans() {
		if sp.Track == "client 1" {
			spans[sp.Name]++
		}
	}
	if spans["encode"] != n || spans["send"] != n {
		t.Fatalf("client spans = %v, want %d encode and %d send", spans, n, n)
	}
}
