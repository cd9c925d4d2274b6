package datagen

import (
	"math"
	"testing"

	"repro/internal/vol"
)

func TestPaperDims(t *testing.T) {
	if d := NewJet().Dims(); d != (vol.Dims{NX: 129, NY: 129, NZ: 104}) {
		t.Fatalf("jet dims %v", d)
	}
	if NewJet().Steps() != 150 {
		t.Fatal("jet steps")
	}
	if d := NewVortex().Dims(); d != (vol.Dims{NX: 128, NY: 128, NZ: 128}) {
		t.Fatalf("vortex dims %v", d)
	}
	if NewVortex().Steps() != 100 {
		t.Fatal("vortex steps")
	}
	if d := NewMixing().Dims(); d != (vol.Dims{NX: 640, NY: 256, NZ: 256}) {
		t.Fatalf("mixing dims %v", d)
	}
	if NewMixing().Steps() != 265 {
		t.Fatal("mixing steps")
	}
}

func gens(t *testing.T) []Generator {
	t.Helper()
	return []Generator{
		NewJetScaled(0.25, 5),
		NewVortexScaled(0.25, 5),
		NewMixingScaled(0.1, 5),
	}
}

func TestStepRange(t *testing.T) {
	for _, g := range gens(t) {
		if _, err := g.Step(-1); err == nil {
			t.Errorf("%s: want error for step -1", g.Name())
		}
		if _, err := g.Step(g.Steps()); err == nil {
			t.Errorf("%s: want error for step == Steps()", g.Name())
		}
	}
}

func TestStepDeterministic(t *testing.T) {
	for _, g := range gens(t) {
		a, err := g.Step(2)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		b, err := g.Step(2)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Errorf("%s: step 2 not deterministic", g.Name())
		}
	}
}

func TestStepsDiffer(t *testing.T) {
	for _, g := range gens(t) {
		a, _ := g.Step(0)
		b, _ := g.Step(4)
		if a.Equal(b) {
			t.Errorf("%s: steps 0 and 4 identical — no time evolution", g.Name())
		}
	}
}

func TestFieldsFiniteNonNegative(t *testing.T) {
	for _, g := range gens(t) {
		v, err := g.Step(1)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range v.Data {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				t.Fatalf("%s: non-finite value at %d", g.Name(), i)
			}
			if x < 0 {
				t.Fatalf("%s: negative magnitude %v at %d", g.Name(), x, i)
			}
		}
		if v.Max <= v.Min {
			t.Fatalf("%s: degenerate range [%v,%v]", g.Name(), v.Min, v.Max)
		}
	}
}

// The paper's compression evaluation relies on the jet being sparse and
// the vortex dense: verify the occupancy contrast (fraction of voxels
// above 35% of the field max).
func TestSparsityContrast(t *testing.T) {
	occupancy := func(g Generator) float64 {
		v, err := g.Step(2)
		if err != nil {
			t.Fatal(err)
		}
		thr := v.Min + 0.35*(v.Max-v.Min)
		n := 0
		for _, x := range v.Data {
			if x > thr {
				n++
			}
		}
		return float64(n) / float64(len(v.Data))
	}
	jet := occupancy(NewJetScaled(0.4, 5))
	vortex := occupancy(NewVortexScaled(0.4, 5))
	if jet >= vortex {
		t.Fatalf("jet occupancy %.3f should be well below vortex %.3f", jet, vortex)
	}
	if vortex < 0.15 {
		t.Fatalf("vortex occupancy %.3f too sparse for a dense dataset", vortex)
	}
	if jet > 0.25 {
		t.Fatalf("jet occupancy %.3f too dense for a sparse plume", jet)
	}
}

// Consecutive steps must be temporally coherent (small relative change)
// — the property that makes the datasets animations rather than noise.
func TestTemporalCoherence(t *testing.T) {
	// Use generators with enough steps that one step is a small
	// fraction of the run, as in the real datasets.
	coherent := []Generator{
		NewJetScaled(0.25, 50),
		NewVortexScaled(0.25, 50),
		NewMixingScaled(0.1, 50),
	}
	for _, g := range coherent {
		a, _ := g.Step(20)
		b, _ := g.Step(21)
		var diff, norm float64
		for i := range a.Data {
			d := float64(a.Data[i] - b.Data[i])
			diff += d * d
			norm += float64(a.Data[i]) * float64(a.Data[i])
		}
		rel := math.Sqrt(diff / (norm + 1e-12))
		if rel > 0.8 {
			t.Errorf("%s: relative step-to-step change %.2f — not coherent", g.Name(), rel)
		}
		if rel == 0 {
			t.Errorf("%s: steps identical", g.Name())
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"jet", "vortex", "mixing"} {
		g, err := ByName(name, 0.1, 3)
		if err != nil {
			t.Fatal(err)
		}
		if g.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, g.Name())
		}
		if g.Steps() != 3 {
			t.Fatalf("steps = %d", g.Steps())
		}
	}
	if _, err := ByName("nope", 1, 0); err == nil {
		t.Fatal("want unknown dataset error")
	}
	if _, err := ByName("jet", 0, 0); err == nil {
		t.Fatal("want scale error")
	}
	if _, err := ByName("jet", 1.5, 0); err == nil {
		t.Fatal("want scale error")
	}
	// Default step counts at scale 1.
	g, err := ByName("vortex", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Steps() != 100 {
		t.Fatalf("default vortex steps = %d", g.Steps())
	}
}

// rms returns the root-mean-square of a field, a cheap content
// fingerprint.
func rms(v *vol.Volume) float64 {
	var s float64
	for _, x := range v.Data {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s / float64(len(v.Data)))
}

func TestMixingShockProgression(t *testing.T) {
	g := NewMixingScaled(0.08, 20)
	// Mean velocity magnitude must grow as the shock sweeps in.
	early, _ := g.Step(1)
	late, _ := g.Step(18)
	if rms(late) <= rms(early) {
		t.Fatalf("shock progression missing: RMS %v -> %v", rms(early), rms(late))
	}
}

func TestMixingVelocityMatchesScalar(t *testing.T) {
	g := NewMixingScaled(0.05, 5)
	v, err := g.Step(3)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Dims()
	for _, p := range [][3]int{{0, 0, 0}, {d.NX / 2, d.NY / 2, d.NZ / 2}, {d.NX - 1, d.NY - 1, d.NZ - 1}} {
		vx, vy, vz := g.VelocityAt(3, p[0], p[1], p[2])
		want := float32(math.Sqrt(vx*vx + vy*vy + vz*vz))
		got := v.At(p[0], p[1], p[2])
		if math.Abs(float64(got-want)) > 1e-5 {
			t.Fatalf("at %v: scalar %v != |v| %v", p, got, want)
		}
	}
}

func TestSplitMixDeterministic(t *testing.T) {
	a, b := newSplitMix(42), newSplitMix(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("splitmix not deterministic")
		}
	}
	c := newSplitMix(43)
	if newSplitMix(42).next() == c.next() {
		t.Fatal("different seeds give same stream")
	}
	// floats in [0,1)
	r := newSplitMix(7)
	for i := 0; i < 1000; i++ {
		f := r.float()
		if f < 0 || f >= 1 {
			t.Fatalf("float out of range: %v", f)
		}
	}
}

func BenchmarkJetStep(b *testing.B) {
	g := NewJetScaled(0.5, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Step(i % g.Steps()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVortexStep(b *testing.B) {
	g := NewVortexScaled(0.5, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Step(i % g.Steps()); err != nil {
			b.Fatal(err)
		}
	}
}
