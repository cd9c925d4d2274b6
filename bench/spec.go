package main

import (
	"encoding/json"
	"io"
	"strings"
)

// metricSpec names one reported number. Better is "higher" or "lower";
// Bound (end-to-end metrics only) is the share of the parent's median
// by which the metric may worsen before a change counts as a
// regression. How says where the number comes from; README.md repeats
// it as the glossary.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	How    string
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the timed window of one run. 92 driver runs with their
// set-up must fit 3420 s, which caps a run at about 35 s wall; 20 s of
// window leaves the rest for three set-up repeats, the cold starts and
// the pixel check.
const runSeconds = 20

var workloadSpecs = []workloadSpec{
	{"render_lan", "Render-bound: full-scale jet from a .tvv through core.StartSession P=4 L=2 at 512x512, lzo, unshaped; ray caster, compositor, comm and volio work shows here, codec and wire work does not."},
	{"wan_vortex", "Wire-bound: vortex 48^3 session with jpeg+lzo over the 45 KB/s japan-ucd link; bytes on the wire move frames_per_s, a faster renderer must move only CPU per frame."},
	{"broker_fanout", "Open loop 8 frames/s of pre-rendered frames through stream.Broker to a LAN and a nasa-ucd viewer; controller, pacer, encode cache and jls/jpeg/prog encoders do all the work, render none."},
	{"replay_pieces", "Display/transport-bound: pre-encoded 8-piece jpeg+lzo frames replayed through transport.Daemon, 4 frames in flight; per-message framing, CRC, copies and viewer decode show here."},
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25, "median of three set-up repeats: dataset generation, .tvv write, pre-render/pre-encode"},
	{"frames_per_s", "1/s", "higher", 0.25, "frames displayed per second of timed window by the primary viewer (the only viewer; the WAN viewer in broker_fanout)"},
	{"startup_ms", "ms", "lower", 0.25, "paper's start-up latency: session start to first frame displayed, fastest of the cold starts run before the window"},
	{"interframe_p90_ms", "ms", "lower", 0.25, "paper's inter-frame delay: p90 of gaps between displayed frames (p50 is bimodal with L=2)"},
	{"frame_latency_p50_ms", "ms", "lower", 0.25, "glass to glass: source stamp (k-th Store.Fetch start, frame due time, or first piece send) to pixels decoded and assembled in the viewer, p50"},
	{"frame_latency_p90_ms", "ms", "lower", 0.25, "same, p90"},
	{"bytes_per_frame", "B", "lower", 0.02, "wire payload bytes received per displayed frame (display.Frame.Bytes)"},
	{"psnr_db", "dB", "higher", 0.05, "mean PSNR of the pixel-checked frames against the reference (99 = identical)"},
	{"peak_rss_mb", "MB", "lower", 0.25, "ru_maxrss of the run's process, set-up included"},
	{"lan_frames_per_s", "1/s", "higher", 0.25, "delivery rate of the viewer behind an unshaped daemon-to-viewer leg: viewer A in broker_fanout, the only viewer elsewhere"},
	{"lan_frame_latency_p90_ms", "ms", "lower", 0.25, "frame latency p90 of that viewer"},
}

// codecNames are the codec families probed per layer; '+' is not a
// legal metric-name character, so jpeg+lzo reports as jpeg-lzo.
var codecNames = []string{"lzo", "bzip", "jpeg", "jpeg+lzo", "jpeg+bzip", "jls", "prog"}

func codecMetricName(codec string) string { return strings.ReplaceAll(codec, "+", "-") }

var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		{"volio.fetch_ms_per_step", "ms", "lower", 0, "Store decorator around FileStore: mean Fetch time in the traced window"},
		{"volio.read_mb_per_s", "MB/s", "higher", 0, "same decorator: step bytes / fetch time"},
		{"volio.bytes_per_step", "B", "lower", 0, "same decorator: bytes per fetched step"},
		{"render.ms_per_frame", "ms", "lower", 0, "probe: render.RenderBrick over the workload's P bricks, median of 11"},
		{"render.ns_per_sample", "ns", "lower", 0, "probe: render time / render.Stats.Samples"},
		{"render.samples_per_ray", "count", "lower", 0, "probe: Stats.Samples / Stats.Rays"},
		{"render.skipped_frac", "ratio", "higher", 0, "probe: Stats.Skipped / (Samples+Skipped)"},
		{"render.allocs_per_frame", "count", "lower", 0, "probe: mallocs per P-brick render"},
		{"composite.binswap_ms_per_frame", "ms", "lower", 0, "probe: BinarySwap+FinalGather under comm.Run at g=2 on the workload's partial images"},
		{"composite.dfb_ms_per_frame", "ms", "lower", 0, "probe: DFBComposite+GatherTiles, same inputs"},
		{"composite.bytes_per_frame", "B", "lower", 0, "probe: World.BytesSent per binary-swap frame"},
		{"composite.msgs_per_frame", "count", "lower", 0, "probe: World.MessagesSent per binary-swap frame"},
		{"core.render_composite_ms_per_frame", "ms", "lower", 0, "core.ServerStats.RenderNS delta / frames sent, traced window"},
		{"core.encode_ms_per_frame", "ms", "lower", 0, "core.ServerStats.EncodeNS delta / frames sent"},
		{"core.frames_dropped", "count", "lower", 0, "core.ServerStats.FramesDropped delta"},
		{"pipeline.fetch_ms", "ms", "lower", 0, "mean pipeline_stage_seconds{stage=fetch} from the registry passed as ServerOptions.Metrics"},
		{"pipeline.render_ms", "ms", "lower", 0, "same, stage=render"},
		{"pipeline.composite_ms", "ms", "lower", 0, "same, stage=composite"},
		{"pipeline.deliver_ms", "ms", "lower", 0, "same, stage=deliver (encode + wire wait)"},
	}
	for _, c := range codecNames {
		n := "compress." + codecMetricName(c)
		m = append(m,
			metricSpec{n + ".encode_mb_per_s", "MB/s", "higher", 0, "probe: EncodeFrame on a strip of the workload's own frame, raw MB per second, median of 11"},
			metricSpec{n + ".decode_mb_per_s", "MB/s", "higher", 0, "probe: DecodeFrame of that strip"},
			metricSpec{n + ".ratio", "ratio", "higher", 0, "probe: raw bytes / coded bytes"},
			metricSpec{n + ".encode_allocs_per_op", "count", "lower", 0, "probe: mallocs per EncodeFrame"},
		)
	}
	m = append(m,
		metricSpec{"transport.write_ns_per_msg", "ns", "lower", 0, "probe: Framer.WriteMessage of a workload-sized piece into a bytes.Buffer"},
		metricSpec{"transport.read_ns_per_msg", "ns", "lower", 0, "probe: Framer.ReadMessage of the same"},
		metricSpec{"transport.allocs_per_msg", "count", "lower", 0, "probe: mallocs per write+read"},
		metricSpec{"transport.overhead_bytes_per_msg", "B", "lower", 0, "probe: framed size minus codec payload (frame header, CRC, ImageMsg header)"},
		metricSpec{"transport.daemon_forward_us_p50", "us", "lower", 0, "probe: renderer endpoint -> transport.Daemon -> raw display endpoint, send to inbox, no decode"},
		metricSpec{"transport.daemon_dropped_msgs", "count", "lower", 0, "transport.DaemonStats.ImagesDropped delta, traced window"},
		metricSpec{"wan.wire_bytes_per_frame", "B", "lower", 0, "net.Conn decorator outside the shaper: bytes written per displayed frame"},
		metricSpec{"wan.write_blocked_ms_per_frame", "ms", "lower", 0, "same decorator: time inside Write per displayed frame"},
		metricSpec{"wan.utilization", "ratio", "higher", 0, "bytes written / (link bandwidth x window); 0 on unshaped workloads"},
		metricSpec{"stream.ingest_ms_per_frame", "ms", "lower", 0, "span around each Broker.IngestImage"},
		metricSpec{"stream.encodes_per_frame", "count", "lower", 0, "BrokerStats.Encodes delta / frames ingested"},
		metricSpec{"stream.cache_hit_rate", "ratio", "higher", 0, "CacheStats hits / (hits+misses) over the window"},
		metricSpec{"stream.wan_drop_frac", "ratio", "lower", 0, "WAN client pacer drops / frames ingested (ClientSnapshots)"},
		metricSpec{"stream.wan_rung_switches", "count", "lower", 0, "codec changes between consecutive frames shown by the WAN viewer"},
		metricSpec{"stream.est_bandwidth_kb_s", "KB/s", "higher", 0, "WAN client's estimator bandwidth at window end (ClientSnapshots)"},
		metricSpec{"stream.pick_ns", "ns", "lower", 0, "probe: Controller.Pick on a warmed controller"},
		metricSpec{"stream.cache_get_ns_hit", "ns", "lower", 0, "probe: EncodeCache.GetOrEncode on a resident key"},
		metricSpec{"stream.pacer_offer_ns", "ns", "lower", 0, "probe: Pacer.Offer+Next pair"},
		metricSpec{"display.decode_ms_per_frame", "ms", "lower", 0, "mean display.Frame.DecodeTime, primary viewer"},
		metricSpec{"display.assemble_ms_per_frame", "ms", "lower", 0, "mean display.Frame.AssembleTime"},
		metricSpec{"display.lost_frames", "count", "lower", 0, "frames owed to the primary viewer and never displayed"},
		metricSpec{"display.ingest_allocs_per_piece", "count", "lower", 0, "probe: mallocs per Assembler.Ingest of a workload piece"},
		metricSpec{"rt.mallocs_per_frame", "count", "lower", 0, "runtime.MemStats.Mallocs delta over the window / frames"},
		metricSpec{"rt.alloc_kb_per_frame", "KB", "lower", 0, "MemStats.TotalAlloc delta / frames"},
		metricSpec{"rt.gc_pause_ms", "ms", "lower", 0, "MemStats.PauseTotalNs delta over the window"},
		metricSpec{"rt.goroutines_peak", "count", "lower", 0, "peak runtime.NumGoroutine sampled every 100 ms"},
		metricSpec{"budget.fetch_ms", "ms", "lower", 0, "mean per displayed frame, traced window"},
		metricSpec{"budget.render_composite_ms", "ms", "lower", 0, "mean per displayed frame"},
		metricSpec{"budget.encode_ms", "ms", "lower", 0, "mean per displayed frame"},
		metricSpec{"budget.wire_ms", "ms", "lower", 0, "mean time blocked in the decorated conn's Write per displayed frame"},
		metricSpec{"budget.decode_ms", "ms", "lower", 0, "mean per displayed frame"},
		metricSpec{"budget.assemble_ms", "ms", "lower", 0, "mean per displayed frame"},
		metricSpec{"budget.unattributed_ms", "ms", "lower", 0, "mean frame latency minus the rows above: queueing in pipeline, daemon, broker and pacer"},
		metricSpec{"obs.trace_overhead_frac", "ratio", "lower", 0, "1 - traced/untraced frames_per_s, two windows of the same run"},
		metricSpec{"obs.spans_per_frame", "count", "lower", 0, "spans recorded / frames displayed"},
		metricSpec{"bench.gen_late_p90_ms", "ms", "lower", 0, "open loop only: p90 of how late the generator ingested a frame after its due instant"},
		metricSpec{"bench.cpu_ms_per_frame", "ms", "lower", 0, "process user+sys CPU over the traced window / frames displayed by all viewers; demoted from the end-to-end list, see README"},
		metricSpec{"bench.window_s", "s", "higher", 0, "length of the traced window"},
		metricSpec{"bench.frames", "count", "higher", 0, "frames displayed by the primary viewer in the traced window"},
	)
	return m
}

// writeSpec prints BENCHMARK.json; the committed file is this output,
// and bench_test.go checks the two agree.
func writeSpec(w io.Writer) error {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
