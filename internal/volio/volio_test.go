package volio

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/vol"
)

func writeTestDataset(t *testing.T, steps int) (string, datagen.Generator) {
	t.Helper()
	g := datagen.NewJetScaled(0.15, steps)
	path := filepath.Join(t.TempDir(), "jet.tvv")
	if err := WriteDataset(path, g); err != nil {
		t.Fatal(err)
	}
	return path, g
}

func TestWriteReadRoundTrip(t *testing.T) {
	path, g := writeTestDataset(t, 4)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	hdr := r.Header()
	if hdr.Dims != g.Dims() || hdr.Steps != 4 {
		t.Fatalf("header %+v", hdr)
	}
	for s := 0; s < 4; s++ {
		want, err := g.Step(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadStep(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("step %d voxel %d: %v != %v", s, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// A step larger than ReadStepInto's decode chunk, and not a multiple of
// it, must come back voxel for voxel from the right file offset.
func TestReadStepSpansChunks(t *testing.T) {
	d := vol.Dims{NX: 41, NY: 37, NZ: 29}
	if d.Bytes() <= 2*readChunk || d.Bytes()%readChunk == 0 {
		t.Fatalf("step of %d bytes does not straddle %d-byte chunks", d.Bytes(), readChunk)
	}
	path := filepath.Join(t.TempDir(), "big.tvv")
	w, err := Create(path, Header{Dims: d, Steps: 2, Min: 0, Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*vol.Volume, 2)
	for s := range want {
		want[s] = vol.MustNew(d)
		want[s].Fill(func(x, y, z int) float32 { return float32((x+41*(y+37*z))*2+s) / float32(4*d.Count()) })
		if err := w.WriteStep(want[s]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for s := 1; s >= 0; s-- {
		got, err := r.ReadStep(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want[s].Data {
			if got.Data[i] != want[s].Data[i] {
				t.Fatalf("step %d voxel %d: %v != %v", s, i, got.Data[i], want[s].Data[i])
			}
		}
	}
}

func TestHeaderRangeCoversSteps(t *testing.T) {
	path, _ := writeTestDataset(t, 4)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	hdr := r.Header()
	v, err := r.ReadStep(0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Min != hdr.Min || v.Max != hdr.Max {
		t.Fatalf("ReadStep range [%v,%v] != header [%v,%v]", v.Min, v.Max, hdr.Min, hdr.Max)
	}
}

func TestReadStepErrors(t *testing.T) {
	path, _ := writeTestDataset(t, 3)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReadStep(-1); err == nil {
		t.Fatal("want range error")
	}
	if _, err := r.ReadStep(3); err == nil {
		t.Fatal("want range error")
	}
	bad := vol.MustNew(vol.Dims{NX: 2, NY: 2, NZ: 2})
	if err := r.ReadStepInto(0, bad); err == nil {
		t.Fatal("want dims mismatch error")
	}
}

func TestReadRegionMatchesFull(t *testing.T) {
	path, _ := writeTestDataset(t, 2)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	full, err := r.ReadStep(1)
	if err != nil {
		t.Fatal(err)
	}
	d := r.Header().Dims
	box := vol.Box{X0: 1, Y0: 2, Z0: 3, X1: d.NX - 1, Y1: d.NY - 2, Z1: d.NZ - 3}
	sub, err := r.ReadRegion(1, box)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Dims != box.Dims() {
		t.Fatalf("region dims %v != %v", sub.Dims, box.Dims())
	}
	for z := box.Z0; z < box.Z1; z++ {
		for y := box.Y0; y < box.Y1; y++ {
			for x := box.X0; x < box.X1; x++ {
				if got, want := sub.At(x-box.X0, y-box.Y0, z-box.Z0), full.At(x, y, z); got != want {
					t.Fatalf("region mismatch at (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
}

func TestReadRegionErrors(t *testing.T) {
	path, _ := writeTestDataset(t, 2)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReadRegion(5, vol.Box{X1: 1, Y1: 1, Z1: 1}); err == nil {
		t.Fatal("want step range error")
	}
	d := r.Header().Dims
	if _, err := r.ReadRegion(0, vol.Box{X0: d.NX, X1: d.NX + 2, Y1: 1, Z1: 1}); err == nil {
		t.Fatal("want empty region error")
	}
}

func TestOpenRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "bad")
	if err := os.WriteFile(p, []byte("not a dataset"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(p); err == nil {
		t.Fatal("want error for garbage file")
	}
	if _, err := Open(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("want error for missing file")
	}
}

func TestCreateValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(filepath.Join(dir, "x"), Header{Dims: vol.Dims{}, Steps: 1}); err == nil {
		t.Fatal("want invalid dims error")
	}
	if _, err := Create(filepath.Join(dir, "x"), Header{Dims: vol.Dims{NX: 2, NY: 2, NZ: 2}, Steps: 0}); err == nil {
		t.Fatal("want invalid steps error")
	}
}

func TestWriterEnforcesContract(t *testing.T) {
	dir := t.TempDir()
	hdr := Header{Dims: vol.Dims{NX: 2, NY: 2, NZ: 2}, Steps: 2}
	w, err := Create(filepath.Join(dir, "x"), hdr)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteStep(vol.MustNew(vol.Dims{NX: 3, NY: 2, NZ: 2})); err == nil {
		t.Fatal("want dims mismatch error")
	}
	v := vol.MustNew(hdr.Dims)
	if err := w.WriteStep(v); err != nil {
		t.Fatal(err)
	}
	// Closing with a missing step must fail.
	if err := w.Close(); err == nil {
		t.Fatal("want missing-steps error")
	}
	w2, err := Create(filepath.Join(dir, "y"), Header{Dims: hdr.Dims, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.WriteStep(v); err != nil {
		t.Fatal(err)
	}
	if err := w2.WriteStep(v); err == nil {
		t.Fatal("want too-many-steps error")
	}
}

func TestGenStore(t *testing.T) {
	g := datagen.NewVortexScaled(0.1, 6)
	s := NewGenStore(g)
	if s.Dims() != g.Dims() || s.Steps() != 6 {
		t.Fatal("GenStore metadata mismatch")
	}
	a, err := s.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Fetch(5)
	if err != nil {
		t.Fatal(err)
	}
	// Global range identical on every fetch.
	if a.Min != b.Min || a.Max != b.Max {
		t.Fatalf("global range differs: [%v,%v] vs [%v,%v]", a.Min, a.Max, b.Min, b.Max)
	}
	// Values inside the advertised range.
	for _, x := range a.Data {
		if x < a.Min-1e-5 || x > a.Max+1e-5 {
			// Range is probed from a sample of steps, so a slight
			// overshoot is possible; require it to be small.
			if math.Abs(float64(x-a.Max)) > 0.25*float64(a.Max-a.Min) {
				t.Fatalf("value %v far outside probed range [%v,%v]", x, a.Min, a.Max)
			}
		}
	}
	if _, err := s.Fetch(6); err == nil {
		t.Fatal("want step range error")
	}
}

func TestFileStoreImplementsStore(t *testing.T) {
	path, g := writeTestDataset(t, 2)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var s Store = FileStore{R: r}
	if s.Dims() != g.Dims() || s.Steps() != 2 {
		t.Fatal("FileStore metadata mismatch")
	}
	if _, err := s.Fetch(1); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReadStep(b *testing.B) {
	g := datagen.NewJetScaled(0.3, 2)
	path := filepath.Join(b.TempDir(), "bench.tvv")
	if err := WriteDataset(path, g); err != nil {
		b.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	v := vol.MustNew(r.Header().Dims)
	b.SetBytes(r.Header().StepBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.ReadStepInto(i%2, v); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStridedStore(t *testing.T) {
	g := datagen.NewJetScaled(0.1, 10)
	base := NewGenStore(g)
	s := Strided(base, 3)
	if s.Steps() != 4 { // ceil(10/3)
		t.Fatalf("strided steps = %d", s.Steps())
	}
	if s.Dims() != base.Dims() {
		t.Fatal("dims changed")
	}
	// Step 2 of the view is step 6 of the base.
	got, err := s.Fetch(2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Fetch(6)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("strided fetch mismatch")
	}
	if _, err := s.Fetch(4); err == nil {
		t.Fatal("out-of-range strided fetch accepted")
	}
	// k <= 1 returns the base store unchanged.
	if Strided(base, 1) != Store(base) {
		t.Fatal("stride 1 must be identity")
	}
}

func TestStridedRegionReads(t *testing.T) {
	path, _ := writeTestDataset(t, 6)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var base Store = FileStore{R: r}
	s := Strided(base, 2).(RegionStore)
	d := r.Header().Dims
	box := vol.Box{X1: d.NX / 2, Y1: d.NY / 2, Z1: d.NZ / 2}
	got, err := s.FetchRegion(1, box) // = base step 2
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.ReadRegion(2, box)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("strided region read mismatch")
	}
	if _, err := s.FetchRegion(9, box); err == nil {
		t.Fatal("out-of-range strided region accepted")
	}
	// Base without region support errors cleanly.
	s2 := Strided(opaqueStore{base}, 2).(RegionStore)
	if _, err := s2.FetchRegion(0, box); err == nil {
		t.Fatal("regionless base accepted")
	}
}

// opaqueStore hides region reads.
type opaqueStore struct{ s Store }

func (o opaqueStore) Dims() vol.Dims                   { return o.s.Dims() }
func (o opaqueStore) Steps() int                       { return o.s.Steps() }
func (o opaqueStore) Fetch(t int) (*vol.Volume, error) { return o.s.Fetch(t) }
