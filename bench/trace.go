package main

import (
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one interval recorded at a layer boundary, from the
// benchmark's side of that boundary. ID and Parent (the frame root the
// span was attached to, 0 = none) are assigned by buildTree. Spans
// live in memory until the window is over.
type span struct {
	ID, Parent int
	Track      string // the layer's row in the trace viewer
	Name       string
	Viewer     string // which viewer's frame roots the span may attach to ("" = any)
	Frame      int    // index of the frame the span was recorded for, -1 if unknown at record time
	Codec      string
	Start, End time.Duration // since the recorder's epoch
	Args       map[string]any
}

// recorder is the benchmark's in-memory span sink. A nil recorder is
// "tracing off": every method is a no-op, and the decorators that feed
// it are not installed at all in the end-to-end run.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// interval records [start,end] given as wall-clock instants.
func (r *recorder) interval(track, name, viewer string, frame int, start, end time.Time, args map[string]any) {
	if r == nil {
		return
	}
	r.add(span{Track: track, Name: name, Viewer: viewer, Frame: frame, Start: start.Sub(r.epoch), End: end.Sub(r.epoch), Args: args})
}

// ended records a span known by its end instant and duration — the
// shape compress.SetObserver reports.
func (r *recorder) ended(track, name, viewer string, frame int, end time.Time, d time.Duration, codec string, args map[string]any) {
	if r == nil {
		return
	}
	e := end.Sub(r.epoch)
	r.add(span{Track: track, Name: name, Viewer: viewer, Frame: frame, Codec: codec, Start: e - d, End: e, Args: args})
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// frameRoot describes one displayed frame for attachment.
type frameRoot struct {
	viewer      string
	frame       int
	codec       string
	start, end  time.Time
	decode, asm time.Duration
}

// buildTree turns the recorded spans plus the displayed frames into a
// span tree: one root "frame" span per displayed frame (source stamp
// to displayed), display.decode/display.assemble children placed at
// the root's tail from display.Frame's durations, and every recorded
// span attached to a root — by (viewer, frame index) when the decorator
// knew the index, otherwise to the earliest-started root of the same
// viewer and codec that contains it. A span that fits no root, or
// whose indexed root does not contain it, stays parentless. Children
// therefore always lie inside their parent.
func buildTree(rec *recorder, roots []frameRoot) []span {
	recorded := rec.snapshot()
	out := make([]span, 0, len(recorded)+3*len(roots))
	nextID := 1
	add := func(s span) int {
		s.ID = nextID
		nextID++
		out = append(out, s)
		return s.ID
	}
	type rootRef struct {
		id         int
		start, end time.Duration
		viewer     string
		codec      string
	}
	type rootKey struct {
		viewer string
		frame  int
	}
	byIndex := map[rootKey]rootRef{}
	var ordered []rootRef
	for _, fr := range roots {
		s, e := fr.start.Sub(rec.epoch), fr.end.Sub(rec.epoch)
		track := "frames " + fr.viewer
		id := add(span{Track: track, Name: "frame", Viewer: fr.viewer, Frame: fr.frame, Codec: fr.codec, Start: s, End: e})
		ref := rootRef{id, s, e, fr.viewer, fr.codec}
		byIndex[rootKey{fr.viewer, fr.frame}] = ref
		ordered = append(ordered, ref)
		tail := fr.decode + fr.asm
		if tail > e-s {
			continue
		}
		add(span{Parent: id, Track: "display " + fr.viewer, Name: "display.decode", Viewer: fr.viewer, Frame: fr.frame, Codec: fr.codec, Start: e - tail, End: e - fr.asm})
		add(span{Parent: id, Track: "display " + fr.viewer, Name: "display.assemble", Viewer: fr.viewer, Frame: fr.frame, Start: e - fr.asm, End: e})
	}
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].start < ordered[j].start })
	for _, s := range recorded {
		s.Parent = 0
		if s.Frame >= 0 {
			if ref, ok := byIndex[rootKey{s.Viewer, s.Frame}]; ok && ref.start <= s.Start && s.End <= ref.end {
				s.Parent = ref.id
			}
		} else {
			for _, ref := range ordered {
				if ref.start > s.Start {
					break
				}
				if s.End <= ref.end && (s.Viewer == "" || s.Viewer == ref.viewer) && (s.Codec == "" || s.Codec == ref.codec) {
					s.Parent = ref.id
					break
				}
			}
		}
		add(s)
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval that its children cover (overlapping children count
// once).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		cursor := s.Start
		for _, c := range cs {
			from, to := c.Start, c.End
			if from < cursor {
				from = cursor
			}
			if to > from {
				covered += to - from
				cursor = to
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// writeChrome exports the tree through obs.WriteChrome (open the file
// in chrome://tracing or ui.perfetto.dev). Self time rides as an
// argument of every span.
func writeChrome(w io.Writer, spans []span) error {
	self := selfTimes(spans)
	out := make([]obs.Span, len(spans))
	for i, s := range spans {
		args := map[string]any{"id": s.ID, "self_ms": ms(self[s.ID])}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.Frame >= 0 {
			args["frame"] = s.Frame
		}
		if s.Codec != "" {
			args["codec"] = s.Codec
		}
		for k, v := range s.Args {
			args[k] = v
		}
		out[i] = obs.Span{Track: s.Track, Cat: "bench", Name: s.Name, Start: s.Start, End: s.End, Args: args}
	}
	return obs.WriteChrome(w, out)
}
