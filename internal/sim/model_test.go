package sim

import (
	"math"
	"testing"
)

// The closed-form model must agree with the event simulation within a
// modest tolerance across the experiment space — this is the
// validation the paper's reference [15] performs between its model
// and measurements.
func TestAnalyticMatchesRun(t *testing.T) {
	w := paperWorkload(128)
	for _, p := range []int{16, 32, 64} {
		for l := 1; l <= p; l *= 2 {
			cfg := Config{Machine: RWCP(), Work: w, P: p, L: l}
			sim, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			model, err := Analytic(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rel := math.Abs(sim.Overall.Seconds()-model.Overall.Seconds()) / sim.Overall.Seconds()
			if rel > 0.15 {
				t.Errorf("P=%d L=%d: model %.1fs vs sim %.1fs (%.0f%% off)",
					p, l, model.Overall.Seconds(), sim.Overall.Seconds(), rel*100)
			}
		}
	}
}

// The model must rank partition choices like the simulation does at
// the optimum (both pick an interior L).
func TestAnalyticOptimumInterior(t *testing.T) {
	w := paperWorkload(128)
	const p = 32
	best, bestL := math.Inf(1), 0
	for l := 1; l <= p; l *= 2 {
		r, err := Analytic(Config{Machine: RWCP(), Work: w, P: p, L: l})
		if err != nil {
			t.Fatal(err)
		}
		if s := r.Overall.Seconds(); s < best {
			best, bestL = s, l
		}
	}
	if bestL == 1 || bestL == p {
		t.Fatalf("analytic optimum at boundary L=%d", bestL)
	}
}

func TestAnalyticValidation(t *testing.T) {
	if _, err := Analytic(Config{Machine: RWCP(), Work: paperWorkload(4), P: 7, L: 2}); err == nil {
		t.Fatal("invalid config accepted")
	}
}
