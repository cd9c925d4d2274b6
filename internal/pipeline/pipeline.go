// Package pipeline runs the paper's parallel pipelined renderer for
// real: P goroutine-backed processor nodes partitioned into L groups,
// each group rendering one time step at a time (intra-volume
// parallelism inside the group, inter-volume parallelism across
// groups), with the data-input stage serialized through a shared path
// as in the paper's no-parallel-I/O setting. Binary-swap compositing
// merges each group's partial images; the composited pieces are handed
// to a sink either assembled (single-image output) or as per-node
// pieces (the parallel-compression path of §4).
//
// The package measures the three §3 metrics — start-up latency,
// overall execution time, inter-frame delay — on the real execution;
// package sim extrapolates the same pipeline to cluster scale.
package pipeline

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/accel"
	"repro/internal/comm"
	"repro/internal/composite"
	"repro/internal/img"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/tf"
	"repro/internal/vol"
	"repro/internal/volio"
)

// Piece is one node's share of a composited frame.
type Piece struct {
	Region img.Region
	Image  *img.RGBA
}

// Frame is a completed time step delivered to the sink.
type Frame struct {
	Step int
	// Image is the assembled frame (nil when Options.EmitPieces).
	Image *img.RGBA
	// Pieces are the per-node composited regions (set when
	// Options.EmitPieces).
	Pieces []Piece
	// Stage timings measured at the group leader.
	InputTime     time.Duration
	RenderTime    time.Duration
	CompositeTime time.Duration
	// Group is the processor group that rendered this step.
	Group int
}

// Options configures a pipelined run.
type Options struct {
	// P is the node count; L the group count. P must be divisible by
	// L, and the group size P/L must be a power of two (binary-swap).
	P, L int
	// ImageW, ImageH set the output size.
	ImageW, ImageH int
	// TF is the transfer function.
	TF *tf.TF
	// TFFn, when set, overrides TF per step (resolved once per step
	// by the group leader, so it may read mutable control state).
	TFFn func(step int) *tf.TF
	// CameraFn returns the camera for a step; nil uses a fixed
	// default orbit view. Resolved once per step by the group leader.
	CameraFn func(step int, d vol.Dims) (*render.Camera, error)
	// BeforeStep, when set, is called by the group leader before
	// fetching each step — the hook the interactive server uses to
	// pause and to apply buffered user control.
	BeforeStep func(step int)
	// Render are the ray-casting options (zero value = defaults).
	Render render.Options
	// Ghost is the brick ghost-cell width (default 2).
	Ghost int
	// Steps caps the number of steps rendered (0 = all in store).
	Steps int
	// EmitPieces delivers per-node pieces instead of assembled
	// frames (the parallel-compression path).
	EmitPieces bool
	// RegionInput makes every node fetch its own (ghosted) brick
	// directly from storage instead of the leader reading the whole
	// step and scattering bricks — the paper's §7.1 parallel-I/O
	// extension. Requires the store to implement volio.RegionStore.
	RegionInput bool
	// Trace receives one span per stage (fetch, render, composite,
	// deliver) per group and step, recorded at the group leader — the
	// raw material of the paper's pipelining Gantt. Nil disables.
	Trace *obs.Tracer
	// Metrics receives stage-duration histograms
	// (pipeline_stage_seconds{stage=...}) and the §3 metric series
	// (startup latency, inter-frame delay). Nil disables.
	Metrics *obs.Registry
	// StepTimeout bounds every comm-level receive inside a step; a
	// rank waiting longer than this on a peer declares it dead
	// (comm.ErrRecvTimeout) instead of hanging the pipeline. 0 waits
	// forever.
	StepTimeout time.Duration
	// FaultFn, when set, is consulted by every node before it renders
	// (group id, group-local rank, step); a non-nil error crashes that
	// node — the deterministic injection point for fault.NodeCrash.
	FaultFn func(gid, rank, step int) error
	// ContinueOnFailure turns a node failure into a group failure
	// instead of a run failure: the dead node's group marks its
	// remaining steps failed and the other groups keep rendering
	// (skip-and-continue). Without it the first failure aborts the
	// world and Run returns the error.
	ContinueOnFailure bool
	// OnFailure observes each failed (group, step) with its cause
	// (serialized; called once per step). Nil disables.
	OnFailure func(gid, step int, err error)
}

func (o *Options) normalize(store volio.Store) error {
	if o.P < 1 || o.L < 1 || o.L > o.P || o.P%o.L != 0 {
		return fmt.Errorf("pipeline: invalid P=%d L=%d", o.P, o.L)
	}
	g := o.P / o.L
	if g&(g-1) != 0 {
		return fmt.Errorf("pipeline: group size %d not a power of two (binary-swap compositing)", g)
	}
	if o.ImageW < 1 || o.ImageH < 1 {
		return fmt.Errorf("pipeline: image %dx%d", o.ImageW, o.ImageH)
	}
	if o.ImageH < g {
		return fmt.Errorf("pipeline: image height %d smaller than group size %d", o.ImageH, g)
	}
	if o.TF == nil {
		return fmt.Errorf("pipeline: nil transfer function")
	}
	if o.Ghost == 0 {
		o.Ghost = 2
	}
	if o.Render.Step == 0 {
		o.Render = render.DefaultOptions()
	}
	if o.Steps == 0 || o.Steps > store.Steps() {
		o.Steps = store.Steps()
	}
	if o.CameraFn == nil {
		o.CameraFn = func(step int, d vol.Dims) (*render.Camera, error) {
			return render.NewOrbitCamera(d, 0.6, 0.35, 1.8)
		}
	}
	if o.RegionInput {
		if _, ok := store.(volio.RegionStore); !ok {
			return fmt.Errorf("pipeline: RegionInput requires a volio.RegionStore, got %T", store)
		}
	}
	return nil
}

// Metrics are the paper's three performance measures, computed from
// real completion times. With ContinueOnFailure they cover only the
// steps that completed; FailedSteps counts the rest.
type Metrics struct {
	StartupLatency  time.Duration
	Overall         time.Duration
	InterFrameDelay time.Duration
	Frames          int
	// FailedSteps counts steps skipped or failed because their group
	// lost a node.
	FailedSteps int
	// GroupFailures counts processor groups that dropped out of the
	// run.
	GroupFailures int
}

// Sink receives completed frames. It is called from group-leader
// goroutines; calls are serialized by the pipeline and come in step
// order, except that a frame more than one step time behind its
// successor is overtaken and arrives late.
type Sink func(*Frame) error

// Run executes the pipelined renderer over the store and reports
// metrics. The sink may be nil when only metrics are wanted.
func Run(store volio.Store, opt Options, sink Sink) (Metrics, error) {
	if err := opt.normalize(store); err != nil {
		return Metrics{}, err
	}
	g := opt.P / opt.L
	dims := store.Dims()

	var (
		diskMu sync.Mutex // the shared sequential input path
		sinkMu sync.Mutex
		done   = make([]time.Time, opt.Steps)
		// Display order: a finished frame lets the steps before it reach
		// the sink first, but waits for them no longer than its own step
		// took — a group that is slow, stalled or dead delays the others
		// by one step time at most (then its frame goes out late, out of
		// order), so no leader ever sits out a peer's StepTimeout.
		// turnMu guards next and skipped.
		turnMu  sync.Mutex
		turn    = sync.NewCond(&turnMu)
		next    int                       // lowest step that has neither taken its turn nor been passed over
		skipped = make([]bool, opt.Steps) // failed steps no frame will come from
	)
	// passTurn moves next beyond step and the failed steps that follow
	// it. The caller holds turnMu.
	passTurn := func(step int) {
		next = max(next, step+1)
		for next < opt.Steps && skipped[next] {
			next++
		}
		turn.Broadcast()
	}
	var fetchH, renderH, compositeH, deliverH *obs.Histogram
	if opt.Metrics != nil {
		const help = "Per-(group,step) pipeline stage time in seconds."
		fetchH = opt.Metrics.Histogram(`pipeline_stage_seconds{stage="fetch"}`, help)
		renderH = opt.Metrics.Histogram(`pipeline_stage_seconds{stage="render"}`, help)
		compositeH = opt.Metrics.Histogram(`pipeline_stage_seconds{stage="composite"}`, help)
		deliverH = opt.Metrics.Histogram(`pipeline_stage_seconds{stage="deliver"}`, help)
	}
	start := time.Now()

	// Failure bookkeeping (ContinueOnFailure): first recorder of a
	// (step) failure wins; OnFailure fires once per step.
	var (
		failMu      sync.Mutex
		failedSteps = map[int]error{}
		deadGroups  = map[int]bool{}
	)
	recordFailure := func(gid, step int, cause error) {
		turnMu.Lock()
		skipped[step] = true
		if step == next {
			passTurn(step)
		}
		turnMu.Unlock()
		failMu.Lock()
		defer failMu.Unlock()
		if !deadGroups[gid] {
			deadGroups[gid] = true
			if opt.Trace != nil {
				opt.Trace.Begin(groupTrack(gid), "pipeline", "group-failed", "step", step)()
			}
		}
		if _, seen := failedSteps[step]; seen {
			return
		}
		failedSteps[step] = cause
		if opt.OnFailure != nil {
			opt.OnFailure(gid, step, cause)
		}
	}

	err := comm.RunWith(opt.P, comm.RunConfig{RecvTimeout: opt.StepTimeout}, func(c *comm.Comm) error {
		gid := c.Rank() / g
		members := make([]int, g)
		for i := range members {
			members[i] = gid*g + i
		}
		gc, err := c.Group(members)
		if err != nil {
			return err
		}
		var groupDead error
		for s := gid; s < opt.Steps; s += opt.L {
			if groupDead != nil {
				// The group lost a node: its remaining steps are marked
				// failed, not rendered — skip-and-continue.
				recordFailure(gid, s, groupDead)
				continue
			}
			err := renderStepGuarded(gc, store, &opt, dims, gid, s, &diskMu, func(f *Frame) error {
				end := opt.Trace.Begin(groupTrack(f.Group), "pipeline", "deliver", "step", f.Step)
				t0 := time.Now()
				turnMu.Lock()
				if next < s {
					overdue := false
					patience := time.AfterFunc(f.InputTime+f.RenderTime+f.CompositeTime, func() {
						turnMu.Lock()
						overdue = true
						turnMu.Unlock()
						turn.Broadcast()
					})
					for next < s && !overdue {
						turn.Wait()
					}
					patience.Stop()
				}
				passTurn(s)
				// Queue for the sink before giving up turnMu, so frames
				// reach it in the order they took their turns.
				sinkMu.Lock()
				turnMu.Unlock()
				defer sinkMu.Unlock()
				done[s] = time.Now()
				var err error
				if sink != nil {
					err = sink(f)
				}
				end()
				fetchH.Observe(f.InputTime.Seconds())
				renderH.Observe(f.RenderTime.Seconds())
				compositeH.Observe(f.CompositeTime.Seconds())
				deliverH.ObserveDuration(time.Since(t0))
				return err
			})
			if err == nil {
				continue
			}
			if !opt.ContinueOnFailure {
				return fmt.Errorf("pipeline: group %d step %d: %w", gid, s, err)
			}
			// Wake groupmates blocked on this rank, stop touching the
			// group communicator, and let the other groups run on.
			c.FailSelf()
			groupDead = fmt.Errorf("pipeline: group %d step %d: %w", gid, s, err)
			recordFailure(gid, s, groupDead)
		}
		return nil
	})
	if err != nil {
		return Metrics{}, err
	}

	// Display-order completion: a frame appears once all earlier
	// completed frames have. Failed steps (zero done time) are excluded
	// from the latency series and counted separately.
	display := make([]time.Duration, 0, opt.Steps)
	var running time.Duration
	for s := 0; s < opt.Steps; s++ {
		if done[s].IsZero() {
			continue
		}
		d := done[s].Sub(start)
		if d > running {
			running = d
		}
		display = append(display, running)
	}
	m := Metrics{
		Frames:        len(display),
		FailedSteps:   opt.Steps - len(display),
		GroupFailures: len(deadGroups),
	}
	if len(display) > 0 {
		m.StartupLatency = display[0]
		m.Overall = display[len(display)-1]
	}
	if len(display) > 1 {
		m.InterFrameDelay = (m.Overall - m.StartupLatency) / time.Duration(len(display)-1)
	}
	if opt.Metrics != nil {
		if len(display) > 0 {
			opt.Metrics.Histogram("pipeline_startup_latency_seconds",
				"Time until the first frame of a pass completes.").Observe(m.StartupLatency.Seconds())
		}
		ifd := opt.Metrics.Histogram("pipeline_interframe_delay_seconds",
			"Delay between consecutive frames in display order.")
		for i := 1; i < len(display); i++ {
			ifd.Observe((display[i] - display[i-1]).Seconds())
		}
		opt.Metrics.Gauge("pipeline_overall_seconds",
			"Overall execution time of the most recent pass.").Set(m.Overall.Seconds())
		opt.Metrics.Counter("pipeline_frames_total",
			"Frames completed by the pipelined renderer.").Add(int64(m.Frames))
		opt.Metrics.Counter("pipeline_failed_steps_total",
			"Steps skipped or failed because their group lost a node.").Add(int64(m.FailedSteps))
		opt.Metrics.Counter("pipeline_group_failures_total",
			"Processor groups that dropped out of a pass.").Add(int64(m.GroupFailures))
	}
	return m, nil
}

// renderStepGuarded runs one step, converting comm failure panics
// (dead peer, receive timeout) into ordinary errors at this rank so
// the caller can degrade per group. World aborts still propagate.
func renderStepGuarded(gc *comm.Comm, store volio.Store, opt *Options, dims vol.Dims, gid, step int, diskMu *sync.Mutex, deliver Sink) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if fe := comm.AsFailure(rec); fe != nil {
				err = fe
				return
			}
			panic(rec)
		}
	}()
	return renderStep(gc, store, opt, dims, gid, step, diskMu, deliver)
}

// groupTrack names a processor group's trace track.
func groupTrack(gid int) string { return fmt.Sprintf("group %d", gid) }

// Tag classes of the pipeline's exchanges, drawn from comm's central
// registry: each class gets a disjoint block per step, so groups
// sharing the world (always on different steps) never cross-talk —
// with the composite classes and with each other. This replaces the
// old hand-counted `step*64 + kind*32 (+16)` arithmetic, which would
// have collided silently had a class outgrown its slice.
var (
	tagWork  = comm.RegisterTagClass("pipeline.work", 1)
	tagPiece = comm.RegisterTagClass("pipeline.pieces", 1)
)

// stepWork is the leader's per-step distribution payload: the node's
// brick plus the step's resolved camera and transfer function.
type stepWork struct {
	brick *vol.Brick
	cam   *render.Camera
	tf    *tf.TF
}

// renderStep runs one time step inside one group communicator.
func renderStep(gc *comm.Comm, store volio.Store, opt *Options, dims vol.Dims, gid, step int, diskMu *sync.Mutex, deliver Sink) error {
	if opt.FaultFn != nil {
		// Injected node crash: fires before this node touches the
		// group, so groupmates detect it via failed-peer wakeups (or
		// StepTimeout) exactly like a real dead process.
		if err := opt.FaultFn(gid, gc.Rank(), step); err != nil {
			return err
		}
	}
	g := gc.Size()
	boxes, err := vol.SplitKD(dims, g)
	if err != nil {
		return err
	}

	// Stage spans are recorded at the group leader: one track per
	// group, so the trace viewer shows the paper's pipelining Gantt
	// (input hidden behind the other groups' rendering).
	leader := gc.Rank() == 0
	track := groupTrack(gid)
	span := func(name string) func() {
		if !leader {
			return func() {}
		}
		return opt.Trace.Begin(track, "pipeline", name, "step", step)
	}

	var work stepWork
	var inputTime time.Duration
	if opt.RegionInput {
		// Parallel I/O: the leader resolves camera/TF and broadcasts
		// the small control payload; every node then pulls its own
		// ghosted brick from storage concurrently.
		if gc.Rank() == 0 {
			if opt.BeforeStep != nil {
				opt.BeforeStep(step)
			}
			cam, err := opt.CameraFn(step, dims)
			if err != nil {
				return err
			}
			tfn := opt.TF
			if opt.TFFn != nil {
				tfn = opt.TFFn(step)
			}
			work = stepWork{cam: cam, tf: tfn}
			for i := 1; i < g; i++ {
				gc.Send(i, tagWork.Tag(step, 0), work, 64)
			}
		} else {
			payload, _ := gc.Recv(0, tagWork.Tag(step, 0))
			var ok bool
			work, ok = payload.(stepWork)
			if !ok {
				return fmt.Errorf("unexpected work payload %T", payload)
			}
		}
		endFetch := span("fetch")
		t0 := time.Now()
		b, err := fetchBrickRegion(store.(volio.RegionStore), step, boxes[gc.Rank()], opt.Ghost, dims)
		if err != nil {
			return err
		}
		work.brick = b
		inputTime = time.Since(t0)
		endFetch()
	} else if gc.Rank() == 0 {
		if opt.BeforeStep != nil {
			opt.BeforeStep(step)
		}
		// The leader resolves the step's camera and transfer function
		// once (they may come from mutable user-control state) and
		// distributes them with the bricks.
		cam, err := opt.CameraFn(step, dims)
		if err != nil {
			return err
		}
		tfn := opt.TF
		if opt.TFFn != nil {
			tfn = opt.TFFn(step)
		}
		// Data input: fetch through the shared sequential path and
		// distribute bricks to the group. Bricks are views: the group
		// shares the fetched volume read-only until it has rendered the
		// step, and each rank's message is still accounted at its
		// ghosted brick's size.
		endFetch := span("fetch")
		t0 := time.Now()
		diskMu.Lock()
		v, err := store.Fetch(step)
		diskMu.Unlock()
		if err != nil {
			return err
		}
		for i := 1; i < g; i++ {
			b, err := v.Extract(boxes[i], opt.Ghost)
			if err != nil {
				return err
			}
			gc.Send(i, tagWork.Tag(step, 0), stepWork{brick: b, cam: cam, tf: tfn}, int(b.Dims.Bytes()))
		}
		b, err := v.Extract(boxes[0], opt.Ghost)
		if err != nil {
			return err
		}
		work = stepWork{brick: b, cam: cam, tf: tfn}
		inputTime = time.Since(t0)
		endFetch()
	} else {
		payload, _ := gc.Recv(0, tagWork.Tag(step, 0))
		var ok bool
		work, ok = payload.(stepWork)
		if !ok {
			return fmt.Errorf("unexpected work payload %T", payload)
		}
	}
	cam := work.cam

	endRender := span("render")
	t1 := time.Now()
	ropt := opt.Render
	if ropt.Mode == render.ModeOver {
		// §7.1 "preprocessing ... can provide many hints to the
		// renderer": a macrocell grid per brick lets the caster leap
		// transparent space with bit-identical output. MIP has no use
		// for it.
		grid, err := accel.Build(work.brick, 0)
		if err != nil {
			return err
		}
		ropt.Accel = grid
	}
	// The partial covers only the screen rectangle the brick's rays
	// reach. It is allocated per step, not pooled: on dense data it is
	// a whole frame, and pooled frames outlive GC cycles.
	rect, partial, _, err := render.RenderBrickRect(work.brick, cam, work.tf, ropt, opt.ImageW, opt.ImageH)
	if err != nil {
		return err
	}
	renderTime := time.Since(t1)
	endRender()

	endComposite := span("composite")
	t2 := time.Now()
	var pieces []Piece
	var assembled *img.RGBA
	if g == 1 {
		frame := img.Region{X1: opt.ImageW, Y1: opt.ImageH}
		if rect != frame {
			full := img.NewRGBA(opt.ImageW, opt.ImageH)
			if err := full.BlitRGBA(partial, rect); err != nil {
				return err
			}
			partial = full
		}
		pieces = []Piece{{Region: frame, Image: partial}}
		assembled = partial
	} else {
		reg, piece, err := composite.BinarySwapRect(gc, rect, partial, opt.ImageW, opt.ImageH, boxes, cam.Eye, step)
		if err != nil {
			return err
		}
		if opt.EmitPieces {
			// Gather pieces (region+image) at the leader; in the real
			// distributed system each node would compress and ship its
			// own piece — core.Server does exactly that.
			if gc.Rank() != 0 {
				gc.Send(0, tagPiece.Tag(step, 0), Piece{Region: reg, Image: piece}, len(piece.Pix)*4)
				return nil
			}
			pieces = make([]Piece, g)
			pieces[0] = Piece{Region: reg, Image: piece}
			for i := 1; i < g; i++ {
				got, _ := gc.Recv(i, tagPiece.Tag(step, 0))
				pieces[i] = got.(Piece)
			}
		} else {
			full, err := composite.FinalGather(gc, reg, piece, opt.ImageW, opt.ImageH, 0, step)
			if err != nil {
				return err
			}
			if gc.Rank() != 0 {
				return nil
			}
			assembled = full
		}
	}
	compositeTime := time.Since(t2)
	endComposite()

	f := &Frame{
		Step:          step,
		Pieces:        pieces,
		InputTime:     inputTime,
		RenderTime:    renderTime,
		CompositeTime: compositeTime,
		Group:         gid,
	}
	if !opt.EmitPieces {
		f.Image = assembled
		f.Pieces = nil
	}
	return deliver(f)
}

// fetchBrickRegion reads one node's ghosted brick straight from a
// region-capable store and views the fetched volume in place.
func fetchBrickRegion(rs volio.RegionStore, step int, region vol.Box, ghost int, dims vol.Dims) (*vol.Brick, error) {
	full := vol.Box{X1: dims.NX, Y1: dims.NY, Z1: dims.NZ}
	region = region.Intersect(full)
	g := vol.Box{
		X0: maxInt(region.X0-ghost, 0), Y0: maxInt(region.Y0-ghost, 0), Z0: maxInt(region.Z0-ghost, 0),
		X1: minInt(region.X1+ghost, dims.NX), Y1: minInt(region.Y1+ghost, dims.NY), Z1: minInt(region.Z1+ghost, dims.NZ),
	}
	sub, err := rs.FetchRegion(step, g)
	if err != nil {
		return nil, err
	}
	return sub.Place([3]int{g.X0, g.Y0, g.Z0}, region, dims)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// GroupSizes returns the valid L values for a given P (divisors with
// power-of-two quotient), sorted ascending — the x-axis of Figure 6.
func GroupSizes(p int) []int {
	var out []int
	for l := 1; l <= p; l++ {
		if p%l == 0 {
			g := p / l
			if g&(g-1) == 0 {
				out = append(out, l)
			}
		}
	}
	sort.Ints(out)
	return out
}
