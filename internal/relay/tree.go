package relay

import (
	"fmt"
	"net"
	"time"

	"repro/internal/guard"
	"repro/internal/stream"
	"repro/internal/transport"
)

// TreeSpec describes a local relay tree for tests and the soak: the
// root broker plus Tiers-1 relay levels, each interior node fanning out
// to FanOut children. Tiers counts daemon levels including the root, so
// Tiers=1 is the flat single-daemon baseline, Tiers=2 adds one edge
// level, Tiers=3 is root → interior → edge.
type TreeSpec struct {
	Tiers  int
	FanOut int
	// Stream configures every broker in the tree (root and relays).
	Stream stream.Config
	// Retry / failover knobs applied to every relay's upstream link.
	Retry           transport.RetryPolicy
	Heartbeat       time.Duration
	PeerTimeout     time.Duration
	FailoverBackoff time.Duration
	DedupWindow     int
	// WrapUpstreamFor, when set, supplies the upstream dial wrapper for
	// the node at (tier, index) — the hook the soak uses to impair
	// exactly one interior link with fault injection. nil (or a nil
	// return) leaves that node's upstream socket raw.
	WrapUpstreamFor func(tier, index int) func(net.Conn) net.Conn
	// Guard, when set, attaches every broker and relay node in the tree
	// to one shared resource governor — valid because a built tree runs
	// in a single process, so one memory budget covers it. nil =
	// unguarded.
	Guard *guard.Governor
	// Logf receives node diagnostics (nil silences).
	Logf func(format string, args ...any)
}

// Tree is a locally running relay tree. Levels[0] holds the root's
// immediate relay children; the last level holds the edge daemons that
// viewers attach to.
type Tree struct {
	Root   *stream.Broker
	Levels [][]*Node
}

// BuildTree stands a tree up on loopback listeners: the root broker
// first, then each relay level attaching to its parent (with the full
// ancestor chain as re-parent fallbacks: parent, grandparent, …, root).
func BuildTree(spec TreeSpec) (*Tree, error) {
	if spec.Tiers < 1 {
		return nil, fmt.Errorf("relay: tree needs at least 1 tier, have %d", spec.Tiers)
	}
	if spec.Tiers > 1 && spec.FanOut < 1 {
		return nil, fmt.Errorf("relay: fan-out must be >= 1, have %d", spec.FanOut)
	}
	if spec.Guard != nil && spec.Stream.Guard == nil {
		spec.Stream.Guard = spec.Guard
	}
	root, err := stream.ListenAndServe("127.0.0.1:0", spec.Stream)
	if err != nil {
		return nil, err
	}
	t := &Tree{Root: root}
	// ancestry[level][i] is node i's own ancestor chain (self first).
	prevAncestry := [][]string{{root.Addr().String()}}
	for level := 1; level < spec.Tiers; level++ {
		count := 1
		for i := 0; i < level; i++ {
			count *= spec.FanOut
		}
		nodes := make([]*Node, 0, count)
		ancestry := make([][]string, 0, count)
		for i := 0; i < count; i++ {
			parents := prevAncestry[i/spec.FanOut]
			name := fmt.Sprintf("t%d-n%d", level, i)
			cfg := Config{
				Name:            name,
				Tier:            level,
				Parents:         append([]string(nil), parents...),
				Stream:          spec.Stream,
				Retry:           spec.Retry,
				Heartbeat:       spec.Heartbeat,
				PeerTimeout:     spec.PeerTimeout,
				FailoverBackoff: spec.FailoverBackoff,
				DedupWindow:     spec.DedupWindow,
				Guard:           spec.Guard,
				Logf:            spec.Logf,
			}
			if spec.WrapUpstreamFor != nil {
				cfg.WrapUpstream = spec.WrapUpstreamFor(level, i)
			}
			n, err := ListenAndServe("127.0.0.1:0", cfg)
			if err != nil {
				t.Close()
				return nil, err
			}
			nodes = append(nodes, n)
			ancestry = append(ancestry, append([]string{n.Addr().String()}, parents...))
		}
		t.Levels = append(t.Levels, nodes)
		prevAncestry = ancestry
	}
	return t, nil
}

// Edges returns the daemons viewers should attach to: the deepest relay
// level, or the root itself in a flat (Tiers=1) tree.
func (t *Tree) Edges() []*Node {
	if len(t.Levels) == 0 {
		return nil
	}
	return t.Levels[len(t.Levels)-1]
}

// EdgeAddrs returns the downstream addresses viewers connect to.
func (t *Tree) EdgeAddrs() []string {
	edges := t.Edges()
	if len(edges) == 0 {
		return []string{t.Root.Addr().String()}
	}
	out := make([]string, len(edges))
	for i, n := range edges {
		out[i] = n.Addr().String()
	}
	return out
}

// Nodes returns every relay node, root-most level first.
func (t *Tree) Nodes() []*Node {
	var out []*Node
	for _, level := range t.Levels {
		out = append(out, level...)
	}
	return out
}

// Close tears the tree down edge-first so upstream closes do not
// trigger re-parent storms in the still-living levels.
func (t *Tree) Close() {
	for i := len(t.Levels) - 1; i >= 0; i-- {
		for _, n := range t.Levels[i] {
			n.Close()
		}
	}
	if t.Root != nil {
		t.Root.Close()
	}
}
