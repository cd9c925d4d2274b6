package pipeline

import (
	"repro/internal/testutil"

	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/composite"
	"repro/internal/datagen"
	"repro/internal/img"
	"repro/internal/render"
	"repro/internal/tf"
	"repro/internal/vol"
	"repro/internal/volio"
)

func testStore(steps int) *volio.GenStore {
	return volio.NewGenStore(datagen.NewJetScaled(0.15, steps))
}

func baseOptions(p, l int) Options {
	return Options{P: p, L: l, ImageW: 32, ImageH: 32, TF: tf.Jet()}
}

// runFrames renders every step with the given options and returns the
// delivered frames indexed by step.
func runFrames(t *testing.T, steps int, opt Options) []*Frame {
	t.Helper()
	store := testStore(steps)
	frames := make([]*Frame, steps)
	var mu sync.Mutex
	if _, err := Run(store, opt, func(f *Frame) error {
		mu.Lock()
		frames[f.Step] = f
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for s, f := range frames {
		if f == nil {
			t.Fatalf("step %d not delivered", s)
		}
	}
	return frames
}

func TestOptionsValidation(t *testing.T) {
	testutil.CheckGoroutines(t)
	store := testStore(2)
	bad := []Options{
		{P: 0, L: 1, ImageW: 8, ImageH: 8, TF: tf.Jet()},
		{P: 4, L: 3, ImageW: 8, ImageH: 8, TF: tf.Jet()},  // not divisible
		{P: 12, L: 2, ImageW: 8, ImageH: 8, TF: tf.Jet()}, // G=6 not pow2
		{P: 2, L: 1, ImageW: 8, ImageH: 8},                // nil TF
		{P: 2, L: 1, ImageW: 0, ImageH: 8, TF: tf.Jet()},
		{P: 16, L: 1, ImageW: 8, ImageH: 8, TF: tf.Jet()}, // H < G
	}
	for i, o := range bad {
		if _, err := Run(store, o, nil); err == nil {
			t.Errorf("case %d accepted: %+v", i, o)
		}
	}
	_, err := Run(store, Options{P: 6, L: 2, ImageW: 8, ImageH: 8, TF: tf.Jet()}, nil)
	if want := "pipeline: group size 3 not a power of two (binary-swap compositing)"; err == nil || err.Error() != want {
		t.Errorf("group of 3: err %v, want %q", err, want)
	}
}

func TestAllStepsDeliveredOnce(t *testing.T) {
	testutil.CheckGoroutines(t)
	store := testStore(6)
	var mu sync.Mutex
	seen := map[int]int{}
	m, err := Run(store, baseOptions(4, 2), func(f *Frame) error {
		mu.Lock()
		seen[f.Step]++
		mu.Unlock()
		if f.Image == nil {
			return fmt.Errorf("step %d: nil image", f.Step)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Frames != 6 {
		t.Fatalf("frames = %d", m.Frames)
	}
	for s := 0; s < 6; s++ {
		if seen[s] != 1 {
			t.Fatalf("step %d delivered %d times", s, seen[s])
		}
	}
	if m.Overall <= 0 || m.StartupLatency <= 0 || m.InterFrameDelay <= 0 {
		t.Fatalf("metrics %+v", m)
	}
	if m.StartupLatency > m.Overall {
		t.Fatal("startup after overall")
	}
}

// The pipelined result must match a single-node render of each step.
func TestMatchesSerialRender(t *testing.T) {
	testutil.CheckGoroutines(t)
	const steps = 2
	store := testStore(steps)
	opt := baseOptions(4, 1)
	opt.Render = render.DefaultOptions()
	opt.Render.TerminationAlpha = 1

	got := make([]*img.RGBA, steps)
	var mu sync.Mutex
	if _, err := Run(store, opt, func(f *Frame) error {
		mu.Lock()
		got[f.Step] = f.Image
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		v, err := store.Fetch(s)
		if err != nil {
			t.Fatal(err)
		}
		// The default camera Run uses when CameraFn is nil.
		cam, err := render.NewOrbitCamera(store.Dims(), 0.6, 0.35, 1.8)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := render.Render(v, cam, opt.TF, opt.Render, opt.ImageW, opt.ImageH)
		if err != nil {
			t.Fatal(err)
		}
		var maxDiff float64
		for i := range want.Pix {
			d := math.Abs(float64(want.Pix[i] - got[s].Pix[i]))
			if d > maxDiff {
				maxDiff = d
			}
		}
		if maxDiff > 5e-3 {
			t.Fatalf("step %d: max diff %v vs serial render", s, maxDiff)
		}
	}
}

// All valid L for a fixed P must produce identical images.
func TestPartitioningInvariance(t *testing.T) {
	testutil.CheckGoroutines(t)
	const steps = 3
	var ref []*img.RGBA
	for _, l := range []int{1, 2, 4} {
		store := testStore(steps)
		opt := baseOptions(4, l)
		opt.Render.TerminationAlpha = 1
		imgs := make([]*img.RGBA, steps)
		var mu sync.Mutex
		if _, err := Run(store, opt, func(f *Frame) error {
			mu.Lock()
			imgs[f.Step] = f.Image
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatalf("L=%d: %v", l, err)
		}
		if ref == nil {
			ref = imgs
			continue
		}
		for s := range imgs {
			for i := range imgs[s].Pix {
				if math.Abs(float64(imgs[s].Pix[i]-ref[s].Pix[i])) > 5e-3 {
					t.Fatalf("L=%d step %d differs from L=1", l, s)
				}
			}
		}
	}
}

func TestEmitPieces(t *testing.T) {
	testutil.CheckGoroutines(t)
	store := testStore(2)
	opt := baseOptions(4, 1)
	opt.EmitPieces = true
	opt.Render.TerminationAlpha = 1

	var mu sync.Mutex
	var frames []*Frame
	if _, err := Run(store, opt, func(f *Frame) error {
		mu.Lock()
		frames = append(frames, f)
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("%d frames", len(frames))
	}
	for _, f := range frames {
		if f.Image != nil {
			t.Fatal("EmitPieces must not assemble")
		}
		if len(f.Pieces) != 4 {
			t.Fatalf("step %d: %d pieces", f.Step, len(f.Pieces))
		}
		// Pieces tile the image.
		covered := 0
		for _, p := range f.Pieces {
			if p.Image.W != p.Region.W() || p.Image.H != p.Region.H() {
				t.Fatal("piece size mismatch")
			}
			covered += p.Region.Pixels()
		}
		if covered != opt.ImageW*opt.ImageH {
			t.Fatalf("pieces cover %d px", covered)
		}
	}
}

// Pieces reassembled must equal the assembled image from a separate
// run with identical options.
func TestPiecesMatchAssembled(t *testing.T) {
	testutil.CheckGoroutines(t)
	mk := func(emit bool) []*Frame {
		store := testStore(1)
		opt := baseOptions(8, 1)
		opt.EmitPieces = emit
		opt.Render.TerminationAlpha = 1
		var frames []*Frame
		var mu sync.Mutex
		if _, err := Run(store, opt, func(f *Frame) error {
			mu.Lock()
			frames = append(frames, f)
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return frames
	}
	pieces := mk(true)[0]
	whole := mk(false)[0]
	re := img.NewRGBA(32, 32)
	for _, p := range pieces.Pieces {
		if err := re.BlitRGBA(p.Image, p.Region); err != nil {
			t.Fatal(err)
		}
	}
	for i := range re.Pix {
		if math.Abs(float64(re.Pix[i]-whole.Image.Pix[i])) > 5e-3 {
			t.Fatal("reassembled pieces differ from assembled image")
		}
	}
}

func TestSinkErrorPropagates(t *testing.T) {
	testutil.CheckGoroutines(t)
	store := testStore(2)
	boom := fmt.Errorf("sink failed")
	_, err := Run(store, baseOptions(2, 1), func(f *Frame) error { return boom })
	if err == nil {
		t.Fatal("sink error swallowed")
	}
}

func TestGroupSizes(t *testing.T) {
	testutil.CheckGoroutines(t)
	got := GroupSizes(16)
	want := []int{1, 2, 4, 8, 16}
	if len(got) != len(want) {
		t.Fatalf("GroupSizes(16) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GroupSizes(16) = %v", got)
		}
	}
	// 12 has divisors 1,2,3,4,6,12; valid L are those with pow2 G:
	// L=3 (G=4), L=6 (G=2), L=12 (G=1).
	got = GroupSizes(12)
	want = []int{3, 6, 12}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("GroupSizes(12) = %v", got)
	}
}

func TestCustomCamera(t *testing.T) {
	testutil.CheckGoroutines(t)
	store := testStore(2)
	opt := baseOptions(2, 1)
	calls := 0
	var mu sync.Mutex
	opt.CameraFn = func(step int, d vol.Dims) (*render.Camera, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return render.NewOrbitCamera(d, float64(step)*0.5, 0.3, 2)
	}
	if _, err := Run(store, opt, nil); err != nil {
		t.Fatal(err)
	}
	if calls < 2 {
		t.Fatalf("camera fn called %d times", calls)
	}
}

func BenchmarkPipeline4x2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		store := testStore(4)
		if _, err := Run(store, baseOptions(4, 2), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// The parallel-I/O input path (§7.1) must produce frames identical to
// the leader-scatter path, over both a generator store and a real
// dataset file.
func TestRegionInputMatchesScatter(t *testing.T) {
	testutil.CheckGoroutines(t)
	const steps = 2
	dir := t.TempDir()
	path := filepath.Join(dir, "jet.tvv")
	if err := volio.WriteDataset(path, datagen.NewJetScaled(0.15, steps)); err != nil {
		t.Fatal(err)
	}
	r, err := volio.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	run := func(store volio.Store, region bool) []*img.RGBA {
		opt := baseOptions(4, 1)
		opt.RegionInput = region
		opt.Render.TerminationAlpha = 1
		imgs := make([]*img.RGBA, steps)
		var mu sync.Mutex
		if _, err := Run(store, opt, func(f *Frame) error {
			mu.Lock()
			imgs[f.Step] = f.Image
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return imgs
	}
	fileStore := volio.FileStore{R: r}
	scatter := run(fileStore, false)
	region := run(fileStore, true)
	for s := range scatter {
		for i := range scatter[s].Pix {
			if math.Abs(float64(scatter[s].Pix[i]-region[s].Pix[i])) > 5e-3 {
				t.Fatalf("step %d differs between scatter and region input", s)
			}
		}
	}
	// Generator-backed store supports the same path.
	genRegion := run(volio.NewGenStore(datagen.NewJetScaled(0.15, steps)), true)
	if genRegion[0] == nil {
		t.Fatal("generator region input produced nothing")
	}
}

func TestRegionInputRequiresRegionStore(t *testing.T) {
	testutil.CheckGoroutines(t)
	opt := baseOptions(2, 1)
	opt.RegionInput = true
	_, err := Run(plainStore{testStore(1)}, opt, nil)
	if err == nil {
		t.Fatal("non-region store accepted")
	}
}

// plainStore hides the RegionStore capability of the wrapped store.
type plainStore struct{ s volio.Store }

func (p plainStore) Dims() vol.Dims                   { return p.s.Dims() }
func (p plainStore) Steps() int                       { return p.s.Steps() }
func (p plainStore) Fetch(t int) (*vol.Volume, error) { return p.s.Fetch(t) }

// The pipeline always renders through a per-brick macrocell grid. Its
// frames must equal, float for float, what the grid-less ray caster
// produces for the same bricks put through binary-swap and the final
// gather by hand.
func TestAccelPipelineMatches(t *testing.T) {
	testutil.CheckGoroutines(t)
	const g = 4
	opt := baseOptions(g, 1)
	opt.Render = render.DefaultOptions()
	opt.Render.TerminationAlpha = 1

	store := testStore(1)
	v, err := store.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	boxes, err := vol.SplitKD(v.Dims, g)
	if err != nil {
		t.Fatal(err)
	}
	// The default camera Run uses when CameraFn is nil.
	cam, err := render.NewOrbitCamera(v.Dims, 0.6, 0.35, 1.8)
	if err != nil {
		t.Fatal(err)
	}
	var want *img.RGBA
	if err := comm.Run(g, func(c *comm.Comm) error {
		br, err := v.Extract(boxes[c.Rank()], 2)
		if err != nil {
			return err
		}
		partial, _, err := render.RenderBrick(br, cam, opt.TF, opt.Render, opt.ImageW, opt.ImageH)
		if err != nil {
			return err
		}
		reg, piece, err := composite.BinarySwap(c, partial, boxes, cam.Eye, 0)
		if err != nil {
			return err
		}
		full, err := composite.FinalGather(c, reg, piece, opt.ImageW, opt.ImageH, 0, 0)
		if c.Rank() == 0 {
			want = full
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}

	got := runFrames(t, 1, opt)[0].Image
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatalf("pixel float %d: pipeline %v != grid-less reference %v", i, got.Pix[i], want.Pix[i])
		}
	}
}

// slowStore adds a fixed delay to every whole-step fetch.
type slowStore struct {
	volio.Store
	delay time.Duration
}

func (s slowStore) Fetch(t int) (*vol.Volume, error) {
	time.Sleep(s.delay)
	return s.Store.Fetch(t)
}

// A group that finishes its step ahead of the step before it lets that
// one reach the sink first — but only for about as long as its own step
// took: a group further behind than that is overtaken, not waited for.
func TestFramesDeliveredInStepOrder(t *testing.T) {
	testutil.CheckGoroutines(t)
	const fetch = 100 * time.Millisecond
	// Group 0 fetches step 0 first (group 1 is held back a moment), so
	// group 1's step 1 is ready one fetch after step 0's data is; a
	// straggler in group 0 then makes step 0 late by lag - 2*fetch.
	run := func(lag time.Duration) []int {
		opt := baseOptions(4, 2)
		opt.FaultFn = func(gid, rank, step int) error {
			switch {
			case gid == 1:
				time.Sleep(fetch / 10)
			case rank == 1:
				time.Sleep(lag)
			}
			return nil
		}
		var order []int
		if _, err := Run(slowStore{testStore(2), fetch}, opt, func(f *Frame) error {
			order = append(order, f.Step)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return order
	}
	if got := run(fetch * 5 / 2); len(got) != 2 || got[0] != 0 {
		t.Errorf("step 0 half a step late: sink order %v, want [0 1]", got)
	}
	if got := run(fetch * 6); len(got) != 2 || got[0] != 1 {
		t.Errorf("step 0 four steps late: sink order %v, want [1 0]", got)
	}
}
