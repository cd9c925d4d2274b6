package soak

import (
	"testing"
	"time"

	"repro/internal/testutil"
)

// TestSoakShortSchedule runs the whole soak on a compressed schedule
// (seed 1: 25 baseline and 40 flood frames 20 ms apart, a 150 ms
// partition) and fails on any tripped invariant, frame age included.
// Admission must refuse part of the flood, the governed bytes must
// peak within twice the budget, and no goroutine may outlive the run.
func TestSoakShortSchedule(t *testing.T) {
	testutil.CheckGoroutines(t)
	res, err := Run(Config{
		Seed:           1,
		BaselineFrames: 25,
		FloodFrames:    40,
		FrameInterval:  20 * time.Millisecond,
		StallDuration:  150 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatalf("soak harness failed to stand up: %v", err)
	}
	for _, inv := range res.Invariants {
		if !inv.OK {
			t.Errorf("invariant %s tripped: %s", inv.Name, inv.Detail)
		}
	}
	// The gate's numbers are asserted here as well, so loosening an
	// invariant inside Run cannot loosen this test.
	if res.Rejected == 0 {
		t.Error("flood was fully admitted; admission control never engaged")
	}
	if res.PeakUsedBytes > 2*res.BudgetBytes {
		t.Errorf("governed bytes peaked at %d, over twice the %d-byte budget", res.PeakUsedBytes, res.BudgetBytes)
	}
	if res.LeakedGoroutines != 0 {
		t.Errorf("%d goroutines leaked", res.LeakedGoroutines)
	}
	if res.Kills == 0 {
		t.Error("the scripted kill severed nothing")
	}
	t.Logf("admitted %d rejected %d shed %d peak %dB recovery %.0fms transitions %v",
		res.Admitted, res.Rejected, res.Shed, res.PeakUsedBytes, res.RecoveryMS, res.Transitions)
}

// TestSoakReproducibleAdmission: the same seed must produce the same
// flood arrival schedule — spot-checked by the admission split being
// deterministic enough to engage both counters every run.
func TestSoakConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.BudgetBytes <= 0 || cfg.MaxClients <= 0 || cfg.FloodFactor <= 0 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
	if cfg.RecoverySLO <= 0 || cfg.FrameInterval <= 0 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
}
