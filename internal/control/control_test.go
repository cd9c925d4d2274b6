package control

import (
	"bytes"
	"testing"

	"repro/internal/tf"
	"repro/internal/transport"
)

func TestViewRoundTrip(t *testing.T) {
	v := ViewEvent{Azimuth: 1.2, Elevation: -0.4, Distance: 2.5}
	got, err := UnmarshalView(v.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("%+v != %+v", got, v)
	}
}

func TestViewValidation(t *testing.T) {
	if _, err := UnmarshalView([]byte{1, 2}); err == nil {
		t.Fatal("short payload accepted")
	}
	bad := ViewEvent{Distance: -1}.Marshal()
	if _, err := UnmarshalView(bad); err == nil {
		t.Fatal("negative distance accepted")
	}
}

func TestStateBuffersLatestWins(t *testing.T) {
	s := NewState()
	if err := s.Ingest(ViewMsg(ViewEvent{Azimuth: 1, Distance: 2})); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(ViewMsg(ViewEvent{Azimuth: 3, Distance: 2})); err != nil {
		t.Fatal(err)
	}
	p := s.Apply()
	if p.View == nil || p.View.Azimuth != 3 {
		t.Fatalf("latest view must win: %+v", p.View)
	}
	// Second Apply is empty.
	p = s.Apply()
	if p.View != nil || p.Colormap != nil || p.Codec != "" || p.RunChanged {
		t.Fatalf("Apply not drained: %+v", p)
	}
}

func TestStateColormapAndCodec(t *testing.T) {
	s := NewState()
	if err := s.Ingest(ColormapMsg(tf.Vortex())); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(CodecMsg("jpeg+lzo")); err != nil {
		t.Fatal(err)
	}
	p := s.Apply()
	if p.Colormap == nil {
		t.Fatal("colormap missing")
	}
	if p.Codec != "jpeg+lzo" {
		t.Fatalf("codec %q", p.Codec)
	}
}

func TestStartStop(t *testing.T) {
	s := NewState()
	if !s.Running() {
		t.Fatal("must start running")
	}
	if err := s.Ingest(&transport.ControlMsg{Tag: TagStop}); err != nil {
		t.Fatal(err)
	}
	if s.Running() {
		t.Fatal("stop not applied")
	}
	p := s.Apply()
	if !p.RunChanged || p.Running {
		t.Fatalf("%+v", p)
	}
	if err := s.Ingest(&transport.ControlMsg{Tag: TagStart}); err != nil {
		t.Fatal(err)
	}
	if !s.Running() {
		t.Fatal("start not applied")
	}
}

func TestIngestRejectsBad(t *testing.T) {
	s := NewState()
	if err := s.Ingest(&transport.ControlMsg{Tag: "warp-drive"}); err == nil {
		t.Fatal("unknown tag accepted")
	}
	if err := s.Ingest(&transport.ControlMsg{Tag: TagView, Data: []byte{1}}); err == nil {
		t.Fatal("bad view accepted")
	}
	if err := s.Ingest(&transport.ControlMsg{Tag: TagColormap, Data: []byte{1}}); err == nil {
		t.Fatal("bad colormap accepted")
	}
	if err := s.Ingest(&transport.ControlMsg{Tag: TagCodec}); err == nil {
		t.Fatal("empty codec accepted")
	}
}

func TestColormapSurvivesWire(t *testing.T) {
	msg := ColormapMsg(tf.Mixing())
	s := NewState()
	if err := s.Ingest(msg); err != nil {
		t.Fatal(err)
	}
	p := s.Apply()
	// Marshal writes every control point, so equal bytes mean equal
	// points.
	if got, want := p.Colormap.Marshal(), tf.Mixing().Marshal(); !bytes.Equal(got, want) {
		t.Fatalf("colormap points %x, want %x", got, want)
	}
}

func TestStrideControl(t *testing.T) {
	s := NewState()
	if err := s.Ingest(StrideMsg(4)); err != nil {
		t.Fatal(err)
	}
	p := s.Apply()
	if p.Stride != 4 {
		t.Fatalf("stride = %d", p.Stride)
	}
	// Drained on next Apply.
	if s.Apply().Stride != 0 {
		t.Fatal("stride not drained")
	}
	// Clamping.
	if got := StrideMsg(0); got.Data[0] != 1 {
		t.Fatalf("StrideMsg(0) = %v", got.Data)
	}
	if got := StrideMsg(1000); got.Data[0] != 255 {
		t.Fatalf("StrideMsg(1000) = %v", got.Data)
	}
	// Bad payloads rejected.
	if err := s.Ingest(&transport.ControlMsg{Tag: TagStride}); err == nil {
		t.Fatal("empty stride accepted")
	}
	if err := s.Ingest(&transport.ControlMsg{Tag: TagStride, Data: []byte{0}}); err == nil {
		t.Fatal("zero stride accepted")
	}
}
