// Package display implements the display-interface side of the
// paper's framework: decompression of incoming image pieces, assembly
// of parallel-compressed sub-images into full frames, and a frame sink
// (save to disk or in-memory framebuffer). The uncompressed "X Window"
// baseline is the same path with the raw codec.
package display

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress"
	// Register the full codec set: frames name their codec on the
	// wire and the assembler resolves it by name.
	_ "repro/internal/compress/codecs"
	"repro/internal/compress/prog"
	"repro/internal/img"
	"repro/internal/obs/provenance"
	"repro/internal/transport"
)

// Frame is a fully assembled display frame.
type Frame struct {
	ID    uint32
	Image *img.Frame
	// DecodeTime is the total codec decode time across the frame's
	// pieces; AssembleTime covers piece blits.
	DecodeTime   time.Duration
	AssembleTime time.Duration
	// Bytes is the total compressed payload size received.
	Bytes int
	// Pieces is the number of sub-images the frame arrived as.
	Pieces int
	// Codec names the compression the frame arrived in (the adaptive
	// broker varies this per client per frame).
	Codec string
	// Passes/TotalPasses describe progressive (prog codec) delivery:
	// the same frame ID may be delivered more than once, each time
	// reconstructed from more refinement passes. For non-progressive
	// codecs both are zero.
	Passes, TotalPasses int
	// Final marks the last (or only) delivery of a frame ID;
	// a progressive preview still awaiting refinement is not final.
	Final bool
	// Refinement marks a re-delivery of a frame ID already shown at
	// lower fidelity — viewers refresh in place rather than counting
	// a new frame.
	Refinement bool
}

// Assembler turns incoming image messages into complete frames. It
// tolerates out-of-order pieces across a bounded number of concurrent
// frames; older incomplete frames are evicted (counted as lost).
type Assembler struct {
	mu sync.Mutex
	// MaxInFlight bounds concurrently assembling frames (default 4).
	MaxInFlight int

	pending map[uint32]*partial
	order   []uint32 // insertion order for eviction
	lost    int

	// progs holds per-frame progressive decoders: a prog frame's
	// preview message opens one, refinement tails feed it, and
	// completion (or eviction) closes it. An orphan tail — its
	// preview lost or evicted upstream — is dropped and counted as
	// lost, matching the transport's drop-and-continue contract.
	progs     map[uint32]*progPartial
	progOrder []uint32

	codecCache map[string]compress.FrameCodec
	// DecodeFast is recorded for decoders that honor a speed knob;
	// kept here so a codec switch can re-resolve by name.
	lookup func(string) (compress.FrameCodec, error)
}

type partial struct {
	frame *Frame
	need  int
}

type progPartial struct {
	dec       *prog.Decoder
	delivered bool
	bytes     int
	decode    time.Duration
}

// NewAssembler builds an assembler resolving codecs through
// compress.ByName (override lookup in tests).
func NewAssembler() *Assembler {
	return &Assembler{
		MaxInFlight: 4,
		pending:     map[uint32]*partial{},
		progs:       map[uint32]*progPartial{},
		codecCache:  map[string]compress.FrameCodec{},
		lookup:      compress.ByName,
	}
}

// Lost reports evicted incomplete frames.
func (a *Assembler) Lost() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lost
}

func (a *Assembler) codec(name string) (compress.FrameCodec, error) {
	if c, ok := a.codecCache[name]; ok {
		return c, nil
	}
	c, err := a.lookup(name)
	if err != nil {
		return nil, err
	}
	a.codecCache[name] = c
	return c, nil
}

// Ingest processes one image message; it returns the completed frame
// when this piece was the last one, else nil. Progressive (prog)
// frames may complete more than once: first as a preview, then as
// refinements — the returned Frame's Refinement/Final flags say
// which.
func (a *Assembler) Ingest(m *transport.ImageMsg) (*Frame, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if m.Codec == "prog" && m.PieceCount <= 1 {
		return a.ingestProgLocked(m)
	}
	c, err := a.codec(m.Codec)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	piece, err := c.DecodeFrame(m.Data)
	if err != nil {
		return nil, fmt.Errorf("display: decoding frame %d piece %d: %w", m.FrameID, m.PieceIndex, err)
	}
	decodeTime := time.Since(t0)

	reg := img.Region{X0: int(m.X0), Y0: int(m.Y0), X1: int(m.X1), Y1: int(m.Y1)}
	if piece.W != reg.W() || piece.H != reg.H() {
		return nil, fmt.Errorf("display: piece %dx%d does not match region %v", piece.W, piece.H, reg)
	}

	p, ok := a.pending[m.FrameID]
	if !ok {
		p = &partial{
			frame: &Frame{ID: m.FrameID, Image: img.NewFrame(int(m.W), int(m.H))},
			need:  int(m.PieceCount),
		}
		a.pending[m.FrameID] = p
		a.order = append(a.order, m.FrameID)
		a.evictLocked()
	}
	if p.frame.Image.W != int(m.W) || p.frame.Image.H != int(m.H) {
		return nil, fmt.Errorf("display: frame %d size changed mid-assembly", m.FrameID)
	}
	t1 := time.Now()
	if err := p.frame.Image.Blit(piece, reg); err != nil {
		return nil, fmt.Errorf("display: assembling frame %d: %w", m.FrameID, err)
	}
	p.frame.AssembleTime += time.Since(t1)
	p.frame.DecodeTime += decodeTime
	p.frame.Bytes += len(m.Data)
	p.frame.Pieces++
	p.frame.Codec = m.Codec
	if p.frame.Pieces < p.need {
		return nil, nil
	}
	delete(a.pending, m.FrameID)
	a.removeOrder(m.FrameID)
	p.frame.Final = true
	return p.frame, nil
}

// ingestProgLocked feeds one progressive chunk (preview head or
// refinement tail) into the frame's incremental decoder. Malformed or
// orphaned chunks are dropped and counted as lost rather than killing
// the session: a refinement whose preview was evicted is an expected
// race under pacer pressure, not a protocol violation.
func (a *Assembler) ingestProgLocked(m *transport.ImageMsg) (*Frame, error) {
	p, ok := a.progs[m.FrameID]
	fresh := false
	if !ok {
		p = &progPartial{dec: prog.NewDecoder()}
		fresh = true
	}
	t0 := time.Now()
	im, err := p.dec.Add(m.Data)
	p.decode += time.Since(t0)
	if err != nil {
		delete(a.progs, m.FrameID)
		a.removeProgOrder(m.FrameID)
		a.lost++
		return nil, nil
	}
	p.bytes += len(m.Data)
	if fresh {
		a.progs[m.FrameID] = p
		a.progOrder = append(a.progOrder, m.FrameID)
		a.evictProgLocked()
	}
	if im == nil {
		return nil, nil // mid-record: wait for more bytes
	}
	if im.W != int(m.W) || im.H != int(m.H) {
		delete(a.progs, m.FrameID)
		a.removeProgOrder(m.FrameID)
		a.lost++
		return nil, nil
	}
	fr := &Frame{
		ID: m.FrameID, Image: im,
		DecodeTime: p.decode, Bytes: p.bytes,
		Pieces: 1, Codec: m.Codec,
		Passes: p.dec.Passes(), TotalPasses: p.dec.TotalPasses(),
		Final:      p.dec.Complete(),
		Refinement: p.delivered,
	}
	p.decode = 0
	p.delivered = true
	if fr.Final {
		delete(a.progs, m.FrameID)
		a.removeProgOrder(m.FrameID)
	}
	return fr, nil
}

func (a *Assembler) evictProgLocked() {
	max := a.MaxInFlight
	if max <= 0 {
		max = 4
	}
	for len(a.progs) > max {
		victim := a.progOrder[0]
		a.progOrder = a.progOrder[1:]
		if p, ok := a.progs[victim]; ok {
			delete(a.progs, victim)
			// A never-delivered preview died unseen; a delivered one
			// simply stops refining, which is not a loss.
			if !p.delivered {
				a.lost++
			}
		}
	}
}

func (a *Assembler) removeProgOrder(id uint32) {
	for i, v := range a.progOrder {
		if v == id {
			a.progOrder = append(a.progOrder[:i], a.progOrder[i+1:]...)
			return
		}
	}
}

func (a *Assembler) evictLocked() {
	max := a.MaxInFlight
	if max <= 0 {
		max = 4
	}
	for len(a.pending) > max {
		victim := a.order[0]
		a.order = a.order[1:]
		if _, ok := a.pending[victim]; ok {
			delete(a.pending, victim)
			a.lost++
		}
	}
}

func (a *Assembler) removeOrder(id uint32) {
	for i, v := range a.order {
		if v == id {
			a.order = append(a.order[:i], a.order[i+1:]...)
			return
		}
	}
}

// Viewer drives an Endpoint: it ingests image messages and delivers
// completed frames on Frames, recording per-frame timing. It is the
// "display interface + display application" pair of the paper.
type Viewer struct {
	ep  transport.Link
	asm *Assembler

	frames chan *Frame
	errs   chan error
	done   chan struct{}
	once   sync.Once

	mu    sync.Mutex
	stats ViewerStats

	// history keeps the most recent frames for review (§7.1: "a
	// mechanism for the user to review previously viewed images").
	history      []*Frame
	HistoryDepth int

	// autoAck reports each completed frame's receive timestamp back
	// through the daemon (MsgAck) — the feedback signal the adaptive
	// stream broker's RTT estimator runs on. On by default; the plain
	// daemon just counts the acks.
	autoAck bool

	// prov, when set, records received/decoded/displayed lifecycle
	// events for traced frames; upstream names the link the frames
	// arrived over.
	prov     atomic.Pointer[provenance.Log]
	upstream atomic.Pointer[string]
}

// ViewerStats aggregates what the viewer saw.
type ViewerStats struct {
	Frames int
	// Refinements counts progressive re-deliveries of frames already
	// displayed at lower fidelity; they refresh in place and do not
	// inflate Frames or the FPS figure.
	Refinements int
	Bytes       int64
	DecodeTime  time.Duration
	FirstFrame  time.Time
	LastFrame   time.Time
}

// FPS returns the average displayed frame rate.
func (s *ViewerStats) FPS() float64 {
	if s.Frames < 2 {
		return 0
	}
	el := s.LastFrame.Sub(s.FirstFrame).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(s.Frames-1) / el
}

// NewViewer wraps a connected display endpoint.
func NewViewer(ep transport.Link) *Viewer {
	v := &Viewer{
		ep:           ep,
		asm:          NewAssembler(),
		frames:       make(chan *Frame, 16),
		errs:         make(chan error, 1),
		done:         make(chan struct{}),
		HistoryDepth: 16,
		autoAck:      true,
	}
	go v.loop()
	return v
}

// SetProvenance attaches a frame-provenance log; upstreamAddr names
// the daemon the viewer is attached to (recorded as the Link on
// received events so collectors can attribute the last hop).
func (v *Viewer) SetProvenance(l *provenance.Log, upstreamAddr string) {
	v.prov.Store(l)
	v.upstream.Store(&upstreamAddr)
}

// SetAutoAck enables or disables receive-timestamp reporting.
func (v *Viewer) SetAutoAck(on bool) {
	v.mu.Lock()
	v.autoAck = on
	v.mu.Unlock()
}

// History returns the most recently displayed frames, oldest first.
func (v *Viewer) History() []*Frame {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]*Frame, len(v.history))
	copy(out, v.history)
	return out
}

// Review returns the retained frame with the given ID, or nil if it
// has aged out of the history.
func (v *Viewer) Review(id uint32) *Frame {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, f := range v.history {
		if f.ID == id {
			return f
		}
	}
	return nil
}

// Frames delivers completed frames; closed when the connection ends.
func (v *Viewer) Frames() <-chan *Frame { return v.frames }

// Err reports the first fatal error, if any.
func (v *Viewer) Err() error {
	select {
	case err := <-v.errs:
		return err
	default:
		return nil
	}
}

// SendControl forwards a user-control message to the daemon.
func (v *Viewer) SendControl(m *transport.ControlMsg) error { return v.ep.SendControl(m) }

// Stats snapshots the viewer counters.
func (v *Viewer) Stats() ViewerStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.stats
}

// Close shuts the endpoint down and releases the delivery loop: a
// loop blocked handing a frame to a consumer that stopped draining
// would otherwise outlive the viewer.
func (v *Viewer) Close() error {
	var err error
	v.once.Do(func() {
		close(v.done)
		err = v.ep.Close()
	})
	return err
}

func (v *Viewer) loop() {
	defer close(v.frames)
	for m := range v.ep.Inbox() {
		if m.Type != transport.MsgImage {
			continue
		}
		if prov := v.prov.Load(); prov != nil && m.Trace != nil {
			link := ""
			if up := v.upstream.Load(); up != nil {
				link = *up
			}
			prov.Record(provenance.Event{
				Trace: m.Trace.TraceID, Frame: m.Trace.FrameID,
				Hop: int(m.Trace.Hop), Event: provenance.EvReceived,
				Bytes: len(m.Payload), Link: link,
			})
		}
		im, err := transport.UnmarshalImage(m.Payload)
		if err != nil {
			v.fail(err)
			return
		}
		fr, err := v.asm.Ingest(im)
		if err != nil {
			v.fail(err)
			return
		}
		if fr == nil {
			continue
		}
		if prov := v.prov.Load(); prov != nil && m.Trace != nil {
			prov.Record(provenance.Event{
				Trace: m.Trace.TraceID, Frame: m.Trace.FrameID,
				Hop: int(m.Trace.Hop), Event: provenance.EvDecoded,
				Bytes: fr.Bytes, Cause: fr.Codec,
			})
		}
		now := time.Now()
		v.mu.Lock()
		autoAck := v.autoAck
		v.mu.Unlock()
		if autoAck {
			ack := transport.AckMsg{FrameID: fr.ID, RecvUnixNano: now.UnixNano(), Bytes: uint32(fr.Bytes)}
			// Best-effort: a failed ack only costs an RTT sample.
			_ = v.ep.Send(transport.Message{Type: transport.MsgAck, Payload: ack.Marshal()})
		}
		v.mu.Lock()
		if fr.Refinement {
			// A progressive refinement refreshes an already-counted
			// frame: track it, but leave Frames/FPS honest.
			v.stats.Refinements++
		} else {
			if v.stats.Frames == 0 {
				v.stats.FirstFrame = now
			}
			v.stats.LastFrame = now
			v.stats.Frames++
		}
		v.stats.Bytes += int64(fr.Bytes)
		v.stats.DecodeTime += fr.DecodeTime
		depth := v.HistoryDepth
		if depth > 0 {
			replaced := false
			if fr.Refinement {
				// Review should return the sharpest copy we have.
				for i := len(v.history) - 1; i >= 0; i-- {
					if v.history[i].ID == fr.ID {
						v.history[i] = fr
						replaced = true
						break
					}
				}
			}
			if !replaced {
				v.history = append(v.history, fr)
				if len(v.history) > depth {
					v.history = v.history[len(v.history)-depth:]
				}
			}
		}
		v.mu.Unlock()
		select {
		case v.frames <- fr:
			if prov := v.prov.Load(); prov != nil && m.Trace != nil {
				prov.Record(provenance.Event{
					Trace: m.Trace.TraceID, Frame: m.Trace.FrameID,
					Hop: int(m.Trace.Hop), Event: provenance.EvDisplayed,
				})
			}
		case <-v.done:
			return
		}
	}
}

func (v *Viewer) fail(err error) {
	select {
	case v.errs <- err:
	default:
	}
}
