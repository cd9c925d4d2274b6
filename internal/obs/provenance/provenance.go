// Package provenance implements NetLogger-style end-to-end frame
// tracing for the wide-area pipeline: every process a frame crosses
// (render server, display daemon, relay node, viewer) records
// per-frame lifecycle events against the wire-carried trace context
// (transport.TraceCtx) into a bounded in-process ring buffer, exposed
// at /debug/frames as JSON. Reading those dumps from every process a
// frame crossed answers the "where did frame 1293 spend its 800 ms"
// question the paper's WAN measurements answer by hand.
package provenance

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// Event vocabulary: one constant per lifecycle point. The set is
// deliberately small and closed — readers switch on these strings.
const (
	// EvRendered marks frame pixels complete at the origin.
	EvRendered = "rendered"
	// EvComposited marks parallel-piece compositing complete.
	EvComposited = "composited"
	// EvCompressed marks codec output ready (origin or re-encode).
	EvCompressed = "compressed"
	// EvSent marks the frame handed to a peer socket.
	EvSent = "sent"
	// EvRelayed marks a relay re-forwarding a frame downstream.
	EvRelayed = "relayed"
	// EvReceived marks the frame read off the wire (Link names the
	// upstream address it arrived from).
	EvReceived = "received"
	// EvDecoded marks codec decode complete at a consumer.
	EvDecoded = "decoded"
	// EvDisplayed marks the frame assembled and presented.
	EvDisplayed = "displayed"
	// EvDropped marks an intentional discard (Cause says why:
	// "buffer-full", "pacer-full", "dup", ...).
	EvDropped = "dropped"
	// EvReplayed marks a duplicate suppressed after a reconnect or
	// re-parent replay.
	EvReplayed = "reconnect-replayed"
)

// Event is one provenance record. Times are the recording process's
// own wall clock; comparing them across hosts needs skew correction.
type Event struct {
	// Node names the recording process (relay node name, "viewer-3").
	Node string `json:"node"`
	// Trace and Frame identify the frame across processes.
	Trace uint64 `json:"trace"`
	Frame uint32 `json:"frame"`
	// Hop is the forwarding distance from the origin at which this
	// process saw the frame (origin = 0).
	Hop int `json:"hop"`
	// Event is one of the Ev* vocabulary constants.
	Event string `json:"event"`
	// UnixNano is the recording process's clock at the event.
	UnixNano int64 `json:"t"`
	// Bytes is the payload size where meaningful (0 otherwise).
	Bytes int `json:"bytes,omitempty"`
	// Cause qualifies drops and replays.
	Cause string `json:"cause,omitempty"`
	// Link names the upstream address on received events, letting a
	// reader bind a child to its parent without guessing from time
	// order (which interleaves sibling branches in a fan-out tree).
	Link string `json:"link,omitempty"`
}

// Log is a bounded per-process provenance ring buffer. All methods
// are safe for concurrent use and safe on a nil receiver, so
// instrumented hot paths need no nil checks.
type Log struct {
	node string

	mu      sync.Mutex
	events  []Event
	next    int
	wrapped bool
	dropped int64
}

// DefaultCapacity bounds the per-process event ring.
const DefaultCapacity = 1 << 14

// NewLog creates a log for the named process retaining up to capacity
// events (oldest overwritten beyond that; capacity < 1 defaults to
// DefaultCapacity).
func NewLog(node string, capacity int) *Log {
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	return &Log{node: node, events: make([]Event, capacity)}
}

// Node returns the process name the log records under ("" on nil).
func (l *Log) Node() string {
	if l == nil {
		return ""
	}
	return l.node
}

// Record appends one event, stamping Node and (if unset) UnixNano.
// No-op on a nil log.
func (l *Log) Record(ev Event) {
	if l == nil {
		return
	}
	ev.Node = l.node
	if ev.UnixNano == 0 {
		ev.UnixNano = time.Now().UnixNano()
	}
	l.mu.Lock()
	if l.wrapped {
		l.dropped++
	}
	l.events[l.next] = ev
	l.next++
	if l.next == len(l.events) {
		l.next = 0
		l.wrapped = true
	}
	l.mu.Unlock()
}

// Len returns the number of retained events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wrapped {
		return len(l.events)
	}
	return l.next
}

// Snapshot copies the retained events in recording order.
func (l *Log) Snapshot() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.wrapped {
		return append([]Event(nil), l.events[:l.next]...)
	}
	out := make([]Event, 0, len(l.events))
	out = append(out, l.events[l.next:]...)
	out = append(out, l.events[:l.next]...)
	return out
}

// Dump is the /debug/frames document: the event snapshot plus the
// server's clock at serialization, which a reader pairs with its own
// request timestamps to estimate the clock offset (NTP-style: offset
// = NowUnixNano - requestMidpoint).
type Dump struct {
	Node        string  `json:"node"`
	NowUnixNano int64   `json:"now_unix_nano"`
	Dropped     int64   `json:"dropped"`
	Events      []Event `json:"events"`
}

// Dump snapshots the log with a fresh clock reading.
func (l *Log) Dump() Dump {
	d := Dump{Node: l.Node(), Events: l.Snapshot(), NowUnixNano: time.Now().UnixNano()}
	if l != nil {
		l.mu.Lock()
		d.Dropped = l.dropped
		l.mu.Unlock()
	}
	return d
}

// Handler serves the dump as JSON — mounted at /debug/frames.
func (l *Log) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		_ = enc.Encode(l.Dump())
	})
}
