// Command displaydaemon runs the paper's display daemon: it relays
// compressed images from render servers to display clients and routes
// user-control messages back.
//
//	displaydaemon -listen 127.0.0.1:7420
//
// With -adaptive it runs the stream broker instead: frames are decoded
// once and re-encoded per client at an adaptively chosen codec/quality
// (held in an encode-once fan-out cache), and each client's delivery
// is paced to its link with a bounded drop-oldest queue.
//
//	displaydaemon -listen 127.0.0.1:7420 -adaptive -target 200ms
//
// With -relay-parent the daemon joins a relay tree as an edge or
// interior node: it consumes frames from the parent daemon like a
// display client (acking frames so the parent's estimator sees this
// link) and re-serves them through its own adaptive broker, encoding
// once per distinct downstream operating point. If the parent dies the
// node re-parents to the next address in the chain (-relay-fallback,
// repeatable) with bounded backoff, deduplicating any frames the new
// parent replays.
//
//	displaydaemon -listen :7421 -relay-parent render-site:7420 \
//	    -relay-fallback render-site:7419 -relay-name edge-tokyo
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/obs/provenance"
	"repro/internal/relay"
	"repro/internal/stream"
	"repro/internal/transport"
)

// stringList collects a repeatable string flag.
type stringList []string

func (s *stringList) String() string { return fmt.Sprint(*s) }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	listen := flag.String("listen", "127.0.0.1:7420", "listen address")
	buffer := flag.Int("buffer", 8, "per-display image buffer depth (plain mode)")
	heartbeat := flag.Duration("heartbeat", 0, "ping every peer on this interval and evict after -peer-timeout of silence (plain mode, 0 = off)")
	peerTimeout := flag.Duration("peer-timeout", 0, "silence threshold for evicting a dead peer (0 = 3x -heartbeat)")
	adaptive := flag.Bool("adaptive", false, "run the adaptive stream broker (per-client rate control)")
	target := flag.Duration("target", 200*time.Millisecond, "adaptive: target inter-frame delay per client")
	queue := flag.Int("queue", 3, "adaptive: per-client frame queue depth (drop-oldest)")
	cacheFrames := flag.Int("cache", 4, "adaptive: frames retained in the encode fan-out cache")
	memBudget := flag.Int64("mem-budget", 0, "adaptive/relay: frame-memory budget in bytes; over budget the daemon walks the degradation ladder and refuses new displays busy (0 = unguarded)")
	maxClients := flag.Int("max-clients", 0, "adaptive/relay: cap admitted display sessions; excess connections are refused busy with a retry-after hint (0 = unlimited)")
	verbose := flag.Bool("v", false, "log connections and drops")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/status and /debug/trace on this address")
	relayParent := flag.String("relay-parent", "", "run as a relay-tree node attached to this parent daemon")
	relayName := flag.String("relay-name", "", "relay: node name in status output (default the listen address)")
	relayTier := flag.Int("relay-tier", 1, "relay: tier depth in the tree (labels Prometheus series; root daemon = 0)")
	var relayFallbacks stringList
	flag.Var(&relayFallbacks, "relay-fallback", "relay: re-parent target after the parent dies (repeatable; order = preference)")
	flag.Parse()

	gov := newGovernor(*memBudget, *maxClients, *verbose)
	if *relayParent != "" {
		runRelay(*listen, *relayParent, relayFallbacks, *relayName, *relayTier,
			stream.Config{Target: *target, QueueDepth: *queue, CacheFrames: *cacheFrames},
			*heartbeat, *peerTimeout, *verbose, *debugAddr, gov)
		return
	}
	if len(relayFallbacks) > 0 {
		fmt.Fprintln(os.Stderr, "displaydaemon: -relay-fallback requires -relay-parent")
		os.Exit(2)
	}

	if *adaptive {
		runAdaptive(*listen, *target, *queue, *cacheFrames, *verbose, *debugAddr, gov)
		return
	}
	if gov != nil {
		fmt.Fprintln(os.Stderr, "displaydaemon: -mem-budget/-max-clients need -adaptive or -relay-parent")
		os.Exit(2)
	}

	d, err := transport.ListenAndServe(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "displaydaemon:", err)
		os.Exit(1)
	}
	d.SetBufferFrames(*buffer)
	if *heartbeat > 0 {
		d.SetHeartbeat(*heartbeat, *peerTimeout)
	}
	if *verbose {
		d.SetLogf(log.Printf)
	}
	fmt.Printf("display daemon listening on %s\n", d.Addr())
	if *debugAddr != "" {
		reg := obs.NewRegistry()
		d.Instrument(reg)
		prov := provenance.NewLog("displaydaemon", 0)
		d.SetProvenance(prov)
		st := d.Stats()
		wd := newWatchdog(*verbose, map[string]func(){"daemon": func() { _ = d.Health() }})
		defer wd.Close()
		dbg, err := obs.StartDebugServer(*debugAddr, obs.DebugConfig{
			Component: "displaydaemon",
			Registry:  reg,
			Frames:    prov.Handler(),
			Status: func() any {
				return map[string]any{
					"mode":             "plain",
					"images_forwarded": st.ImagesForwarded.Load(),
					"images_dropped":   st.ImagesDropped.Load(),
					"bytes_forwarded":  st.BytesForwarded.Load(),
					"controls_routed":  st.ControlsRouted.Load(),
					"acks_received":    st.AcksReceived.Load(),
					"corrupt_dropped":  st.CorruptDropped.Load(),
					"peers_evicted":    st.PeersEvicted.Load(),
					"peers":            d.Health(),
					"watchdog":         wd.Status(),
				}
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "displaydaemon:", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Printf("debug endpoints on http://%s/metrics\n", dbg.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	st := d.Stats()
	fmt.Printf("\nforwarded %d images (%d bytes), dropped %d, routed %d controls, %d acks\n",
		st.ImagesForwarded.Load(), st.BytesForwarded.Load(),
		st.ImagesDropped.Load(), st.ControlsRouted.Load(), st.AcksReceived.Load())
	if n := st.CorruptDropped.Load(); n > 0 {
		fmt.Printf("dropped %d corrupt messages (wire CRC)\n", n)
	}
	if n := st.PeersEvicted.Load(); n > 0 {
		fmt.Printf("evicted %d dead peers (heartbeat)\n", n)
	}
	d.Close()
}

// newGovernor builds the shared resource governor, or nil when both
// knobs are off.
func newGovernor(budget int64, maxClients int, verbose bool) *guard.Governor {
	if budget <= 0 && maxClients <= 0 {
		return nil
	}
	cfg := guard.GovernorConfig{BudgetBytes: budget, MaxClients: maxClients}
	if verbose {
		cfg.Logf = log.Printf
	}
	return guard.NewGovernor(cfg)
}

// newWatchdog starts the per-binary stall watchdog over the given
// probes (name -> lock-acquiring self-check).
func newWatchdog(verbose bool, probes map[string]func()) *guard.Watchdog {
	var logf func(string, ...any)
	if verbose {
		logf = log.Printf
	}
	wd := guard.NewWatchdog(time.Second, logf)
	for name, fn := range probes {
		wd.Register(name, 5*time.Second, fn)
	}
	return wd
}

// runRelay joins a relay tree: downstream adaptive broker on listen,
// upstream session against parent with the fallback chain as re-parent
// targets.
func runRelay(listen, parent string, fallbacks []string, name string, tier int, streamCfg stream.Config, heartbeat, peerTimeout time.Duration, verbose bool, debugAddr string, gov *guard.Governor) {
	if name == "" {
		name = listen
	}
	if verbose {
		streamCfg.Logf = log.Printf
	}
	cfg := relay.Config{
		Name:        name,
		Tier:        tier,
		Parents:     append([]string{parent}, fallbacks...),
		Stream:      streamCfg,
		Heartbeat:   heartbeat,
		PeerTimeout: peerTimeout,
		Prov:        provenance.NewLog(name, 0),
		Guard:       gov,
	}
	if verbose {
		cfg.Logf = log.Printf
	}
	n, err := relay.ListenAndServe(listen, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "displaydaemon:", err)
		os.Exit(1)
	}
	fmt.Printf("relay node %q listening on %s, parent chain %v\n", name, n.Addr(), cfg.Parents)
	if debugAddr != "" {
		reg := obs.NewRegistry()
		n.Instrument(reg)
		obs.InstrumentCodecs(reg)
		gov.Instrument(reg)
		wd := newWatchdog(verbose, map[string]func(){"relay": n.Probe})
		defer wd.Close()
		dbg, err := obs.StartDebugServer(debugAddr, obs.DebugConfig{
			Component: "displaydaemon",
			Registry:  reg,
			Frames:    cfg.Prov.Handler(),
			Status: func() any {
				return map[string]any{
					"mode":     "relay",
					"node":     n.Status(),
					"guard":    gov.Status(),
					"watchdog": wd.Status(),
				}
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "displaydaemon:", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Printf("debug endpoints on http://%s/metrics\n", dbg.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	st := n.Status()
	fmt.Printf("\nrelay %q: %d frames in (%d dup-dropped), %d reparents, %d failed parents, %d encodes, %d frames out (%d bytes)\n",
		st.Name, st.FramesIn, st.DupDropped, st.Reparents, st.FailedParents,
		st.Encodes, st.FramesOut, st.BytesOut)
	n.Close()
}

func runAdaptive(listen string, target time.Duration, queue, cacheFrames int, verbose bool, debugAddr string, gov *guard.Governor) {
	cfg := stream.Config{Target: target, QueueDepth: queue, CacheFrames: cacheFrames, Guard: gov}
	if verbose {
		cfg.Logf = log.Printf
	}
	b, err := stream.ListenAndServe(listen, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "displaydaemon:", err)
		os.Exit(1)
	}
	fmt.Printf("adaptive stream broker listening on %s (target %v, queue %d, cache %d frames)\n",
		b.Addr(), target, queue, cacheFrames)
	if debugAddr != "" {
		reg := obs.NewRegistry()
		b.Instrument(reg)
		obs.InstrumentCodecs(reg)
		obs.InstrumentAllocs(reg)
		gov.Instrument(reg)
		tr := obs.NewTracer(obs.WallClock(), obs.DefaultTraceCapacity)
		b.SetTracer(tr)
		prov := provenance.NewLog("displaydaemon", 0)
		b.SetProvenance(prov)
		wd := newWatchdog(verbose, map[string]func(){"broker": b.Probe})
		defer wd.Close()
		dbg, err := obs.StartDebugServer(debugAddr, obs.DebugConfig{
			Component: "displaydaemon",
			Registry:  reg,
			Tracer:    tr,
			Frames:    prov.Handler(),
			Status: func() any {
				return map[string]any{
					"mode":     "adaptive",
					"clients":  b.ClientSnapshots(),
					"guard":    gov.Status(),
					"watchdog": wd.Status(),
				}
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "displaydaemon:", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Printf("debug endpoints on http://%s/metrics\n", dbg.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	st := b.Stats()
	cs := b.Cache().Stats()
	fmt.Printf("\nframes in %d, frames out %d (%d bytes), encodes %d, drops %d, cache hit rate %.2f\n",
		st.FramesIn.Load(), st.FramesOut.Load(), st.BytesOut.Load(),
		st.Encodes.Load(), st.Drops.Load(), cs.HitRate())
	for _, c := range b.ClientSnapshots() {
		fmt.Printf("client %d (%s): %d frames, %s, est %.0f KB/s, rtt %v, drops %d\n",
			c.ID, c.Remote, c.FramesSent, c.Point, c.Bandwidth/1e3, c.RTT, c.Drops)
	}
	b.Close()
}
