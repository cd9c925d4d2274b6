package relay

import (
	"net"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/display"
	"repro/internal/img"
	"repro/internal/stream"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// testFrame builds a small deterministic raw frame message.
func testFrame(t *testing.T, id uint32, side int) *transport.ImageMsg {
	t.Helper()
	f := img.NewFrame(side, side)
	for i := range f.Pix {
		f.Pix[i] = byte(int(id) + i)
	}
	data, err := compress.Raw{}.EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	return &transport.ImageMsg{
		FrameID:    id,
		PieceCount: 1,
		X1:         uint16(side), Y1: uint16(side),
		W: uint16(side), H: uint16(side),
		Codec: "raw",
		Data:  data,
	}
}

// fastRetry keeps test reconnect budgets small.
func fastRetry() transport.RetryPolicy {
	return transport.RetryPolicy{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond, Factor: 2, Jitter: -1, MaxAttempts: 3}
}

func waitFor(t *testing.T, d time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestTreeFanOut: a 2-tier tree (root + 2 edges) delivers every frame
// to viewers on both edges, the root encodes per edge link rather than
// per viewer, and each relay tier records its own encode share.
func TestTreeFanOut(t *testing.T) {
	testutil.CheckGoroutines(t)
	tree, err := BuildTree(TreeSpec{
		Tiers: 2, FanOut: 2,
		Stream: stream.Config{Target: 50 * time.Millisecond},
		Retry:  fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	waitFor(t, 5*time.Second, "edges attached", func() bool {
		for _, n := range tree.Edges() {
			if n.Parent() == "" {
				return false
			}
		}
		return true
	})

	// Two viewers per edge daemon.
	var viewers []*display.Viewer
	for _, addr := range tree.EdgeAddrs() {
		for i := 0; i < 2; i++ {
			ep, err := transport.Dial(addr, transport.RoleDisplay, nil)
			if err != nil {
				t.Fatal(err)
			}
			v := display.NewViewer(ep)
			defer v.Close()
			viewers = append(viewers, v)
			go func() {
				for range v.Frames() {
				}
			}()
		}
	}

	rend, err := transport.Dial(tree.Root.Addr().String(), transport.RoleRenderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rend.Close()
	const frames = 10
	for id := uint32(0); id < frames; id++ {
		if err := rend.SendImage(testFrame(t, id, 32)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(15 * time.Millisecond)
	}

	waitFor(t, 15*time.Second, "all viewers to drain the animation", func() bool {
		for _, v := range viewers {
			if v.Stats().Frames < frames {
				return false
			}
		}
		return true
	})

	for _, n := range tree.Edges() {
		if got := n.Stats().FramesIn.Load(); got != frames {
			t.Errorf("edge %s frames in = %d, want %d", n.cfg.Name, got, frames)
		}
	}
	// The root fans out to 2 relay links, not 4 viewers: its per-frame
	// encode count is bounded by distinct edge operating points (≤ 2),
	// and each tier contributes its own encodes.
	tiers := tree.TierEncodes()
	if len(tiers) != 2 {
		t.Fatalf("tier encode rows = %d, want 2", len(tiers))
	}
	if tiers[0] == 0 || tiers[1] == 0 {
		t.Errorf("expected encodes at both tiers, got %v", tiers)
	}
	if tiers[0] > 2*frames {
		t.Errorf("root encodes %d exceed 2 links x %d frames — fan-out cache not engaged", tiers[0], frames)
	}

	top := tree.Topology()
	if top.RootClients != 2 {
		t.Errorf("root clients = %d, want the 2 edge relays", top.RootClients)
	}
	if len(top.Tiers) != 1 || len(top.Tiers[0]) != 2 {
		t.Fatalf("topology shape %dx?, want 1 tier of 2", len(top.Tiers))
	}
	for _, st := range top.Tiers[0] {
		if !st.Connected || st.Parent != top.RootAddr {
			t.Errorf("edge %s parent %q, want %q", st.Name, st.Parent, top.RootAddr)
		}
		if len(st.Clients) != 2 {
			t.Errorf("edge %s clients = %d, want 2 viewers", st.Name, len(st.Clients))
		}
	}
}

// TestControlsFlowUpTree: a user-control message sent by a viewer at
// the edge reaches a renderer connected to the root.
func TestControlsFlowUpTree(t *testing.T) {
	testutil.CheckGoroutines(t)
	tree, err := BuildTree(TreeSpec{
		Tiers: 2, FanOut: 1,
		Stream: stream.Config{Target: 50 * time.Millisecond},
		Retry:  fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	waitFor(t, 5*time.Second, "edge attached", func() bool { return tree.Edges()[0].Parent() != "" })

	rend, err := transport.Dial(tree.Root.Addr().String(), transport.RoleRenderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rend.Close()
	view, err := transport.Dial(tree.EdgeAddrs()[0], transport.RoleDisplay, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()

	want := &transport.ControlMsg{Tag: "view", Data: []byte("orbit")}
	if err := view.SendControl(want); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-rend.Inbox():
		if m.Type != transport.MsgControl {
			t.Fatalf("renderer got message type %d, want control", m.Type)
		}
		got, err := transport.UnmarshalControl(m.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if got.Tag != want.Tag || string(got.Data) != string(want.Data) {
			t.Fatalf("control %q/%q, want %q/%q", got.Tag, got.Data, want.Tag, want.Data)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("control never reached the renderer through the tree")
	}
	// The edge counts a control after its send to the parent returns,
	// so the renderer can hold the control before the count moves.
	forwarded := &tree.Edges()[0].Stats().ControlsForwarded
	waitFor(t, 5*time.Second, "edge to count the forwarded control", func() bool { return forwarded.Load() >= 1 })
	if n := forwarded.Load(); n != 1 {
		t.Errorf("edge controls forwarded = %d, want 1", n)
	}
}

// TestNodeDedup: a frame replayed by a fresh parent after re-parenting
// is dropped, not delivered twice.
func TestNodeDedup(t *testing.T) {
	testutil.CheckGoroutines(t)
	root, err := stream.ListenAndServe("127.0.0.1:0", stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	n, err := ListenAndServe("127.0.0.1:0", Config{
		Parents: []string{root.Addr().String()},
		Retry:   fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	payload, err := testFrame(t, 42, 16).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	n.onImage(transport.Message{Type: transport.MsgImage, Payload: payload})
	n.onImage(transport.Message{Type: transport.MsgImage, Payload: payload}) // replay after a simulated re-parent
	if got := n.Stats().FramesIn.Load(); got != 1 {
		t.Fatalf("frames in = %d, want 1", got)
	}
	if got := n.Stats().DupDropped.Load(); got != 1 {
		t.Fatalf("dup dropped = %d, want 1", got)
	}
}

// TestNodeNoParents: construction fails without at least one parent.
func TestNodeNoParents(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := NewNode(ln, Config{}); err == nil {
		t.Fatal("NewNode with no parents succeeded")
	}
}

// TestTreeSpecValidation rejects nonsense shapes.
func TestTreeSpecValidation(t *testing.T) {
	for _, spec := range []TreeSpec{
		{Tiers: 0},
		{Tiers: 2, FanOut: 0},
	} {
		if _, err := BuildTree(spec); err == nil {
			t.Errorf("BuildTree(%+v) succeeded, want error", spec)
		}
	}
}
