// Package control implements the paper's user-control path: the
// display client sends tagged messages through the daemon to the
// render engine; rendering of in-flight frames is never interrupted —
// inputs are buffered and take effect on subsequent frames (§5 of the
// paper).
package control

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/tf"
	"repro/internal/transport"
)

// Tags of the control messages the render engine understands.
const (
	TagView     = "view"     // ViewEvent payload
	TagColormap = "colormap" // tf.Marshal payload
	TagCodec    = "codec"    // codec name as UTF-8
	TagStart    = "start"    // no payload: begin/resume streaming
	TagStop     = "stop"     // no payload: pause after current frame
	// TagStride selects preview-mode time-step skipping (§7.1:
	// "certain time steps can be skipped during a previewing mode"):
	// payload is one byte, the stride k (render every k-th step).
	TagStride = "stride"
)

// ViewEvent is a new camera position (orbit parameterization).
type ViewEvent struct {
	Azimuth, Elevation float64
	// Distance is the eye distance as a multiple of the volume
	// diagonal.
	Distance float64
}

// Marshal encodes the view event.
func (v ViewEvent) Marshal() []byte {
	out := make([]byte, 24)
	binary.LittleEndian.PutUint64(out, math.Float64bits(v.Azimuth))
	binary.LittleEndian.PutUint64(out[8:], math.Float64bits(v.Elevation))
	binary.LittleEndian.PutUint64(out[16:], math.Float64bits(v.Distance))
	return out
}

// UnmarshalView decodes a view event.
func UnmarshalView(p []byte) (ViewEvent, error) {
	if len(p) != 24 {
		return ViewEvent{}, fmt.Errorf("control: view payload %d bytes", len(p))
	}
	v := ViewEvent{
		Azimuth:   math.Float64frombits(binary.LittleEndian.Uint64(p)),
		Elevation: math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
		Distance:  math.Float64frombits(binary.LittleEndian.Uint64(p[16:])),
	}
	for _, f := range []float64{v.Azimuth, v.Elevation, v.Distance} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return ViewEvent{}, fmt.Errorf("control: non-finite view value")
		}
	}
	if v.Distance <= 0 {
		return ViewEvent{}, fmt.Errorf("control: distance %v must be positive", v.Distance)
	}
	return v, nil
}

// Messages builds the wire ControlMsg for each event kind.

// ViewMsg wraps a view change.
func ViewMsg(v ViewEvent) *transport.ControlMsg {
	return &transport.ControlMsg{Tag: TagView, Data: v.Marshal()}
}

// ColormapMsg wraps a transfer-function change.
func ColormapMsg(t *tf.TF) *transport.ControlMsg {
	return &transport.ControlMsg{Tag: TagColormap, Data: t.Marshal()}
}

// CodecMsg wraps a codec switch.
func CodecMsg(name string) *transport.ControlMsg {
	return &transport.ControlMsg{Tag: TagCodec, Data: []byte(name)}
}

// StrideMsg selects preview-mode step skipping (k >= 1).
func StrideMsg(k int) *transport.ControlMsg {
	if k < 1 {
		k = 1
	}
	if k > 255 {
		k = 255
	}
	return &transport.ControlMsg{Tag: TagStride, Data: []byte{byte(k)}}
}

// State buffers pending user inputs on the renderer side. Apply is
// called between frames: rendering in progress is never interrupted
// and the most recent value of each control wins.
type State struct {
	mu sync.Mutex

	pendingView     *ViewEvent
	pendingColormap *tf.TF
	pendingCodec    string
	pendingStride   int
	running         bool
	runChanged      bool
}

// NewState returns a buffered control state; streaming starts enabled.
func NewState() *State { return &State{running: true} }

// Ingest buffers one control message; unknown tags are reported but
// not fatal (forward compatibility).
func (s *State) Ingest(m *transport.ControlMsg) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch m.Tag {
	case TagView:
		v, err := UnmarshalView(m.Data)
		if err != nil {
			return err
		}
		s.pendingView = &v
	case TagColormap:
		t, err := tf.Unmarshal(m.Data)
		if err != nil {
			return err
		}
		s.pendingColormap = t
	case TagCodec:
		if len(m.Data) == 0 {
			return fmt.Errorf("control: empty codec name")
		}
		s.pendingCodec = string(m.Data)
	case TagStart:
		s.running = true
		s.runChanged = true
	case TagStop:
		s.running = false
		s.runChanged = true
	case TagStride:
		if len(m.Data) != 1 || m.Data[0] == 0 {
			return fmt.Errorf("control: bad stride payload")
		}
		s.pendingStride = int(m.Data[0])
	default:
		return fmt.Errorf("control: unknown tag %q", m.Tag)
	}
	return nil
}

// Pending describes the changes to apply before the next frame.
type Pending struct {
	View     *ViewEvent
	Colormap *tf.TF
	Codec    string
	// Stride is the new preview-mode step stride (0 = unchanged).
	Stride int
	// RunChanged reports that Running carries a new start/stop state.
	RunChanged bool
	Running    bool
}

// Apply drains the buffered changes; each call returns the changes
// accumulated since the previous call (latest value per control).
func (s *State) Apply() Pending {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := Pending{
		View:       s.pendingView,
		Colormap:   s.pendingColormap,
		Codec:      s.pendingCodec,
		Stride:     s.pendingStride,
		RunChanged: s.runChanged,
		Running:    s.running,
	}
	s.pendingView = nil
	s.pendingColormap = nil
	s.pendingCodec = ""
	s.pendingStride = 0
	s.runChanged = false
	return p
}

// Running reports the current streaming state without draining.
func (s *State) Running() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}
