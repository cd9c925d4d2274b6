package pipeline

import (
	"repro/internal/testutil"

	"testing"

	"repro/internal/obs"
	"repro/internal/tf"
)

// TestRunRecordsStageSpans pins the pipeline's tracing contract: every
// (group, step) leader records fetch, render and composite spans on
// its group's track, plus a deliver span per frame.
func TestRunRecordsStageSpans(t *testing.T) {
	testutil.CheckGoroutines(t)
	const steps = 4
	store := testStore(steps)
	tr := obs.NewTracer(obs.WallClock(), 1024)
	reg := obs.NewRegistry()
	_, err := Run(store, Options{
		P: 4, L: 2,
		ImageW: 24, ImageH: 24,
		TF:      tf.Jet(),
		Trace:   tr,
		Metrics: reg,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	type key struct{ track, name string }
	counts := map[key]int{}
	for _, sp := range tr.Spans() {
		if sp.End < sp.Start {
			t.Fatalf("span %v ends before it starts", sp)
		}
		counts[key{sp.Track, sp.Name}]++
	}
	// L=2 groups alternate steps: two steps per group, each with the
	// four stages on the group's own track.
	for _, track := range []string{"group 0", "group 1"} {
		for _, stage := range []string{"fetch", "render", "composite", "deliver"} {
			if got := counts[key{track, stage}]; got != steps/2 {
				t.Fatalf("%s/%s spans = %d, want %d (all: %v)", track, stage, got, steps/2, counts)
			}
		}
	}

	for _, stage := range []string{"fetch", "render", "composite", "deliver"} {
		h := reg.Histogram(`pipeline_stage_seconds{stage="`+stage+`"}`, "")
		if got := h.Summary().N; got != steps {
			t.Fatalf("%s histogram N = %d, want %d", stage, got, steps)
		}
	}
	if got := reg.Histogram("pipeline_interframe_delay_seconds", "").Summary().N; got != steps-1 {
		t.Fatalf("interframe delays = %d, want %d", got, steps-1)
	}
	if got := reg.Counter("pipeline_frames_total", "").Value(); got != steps {
		t.Fatalf("frames counter = %d, want %d", got, steps)
	}
}
