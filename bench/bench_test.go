package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSpecMatchesBenchmarkJSON keeps the committed BENCHMARK.json and
// the tables in spec.go one thing, and checks the file against the
// limits its contract sets.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	var want bytes.Buffer
	if err := writeSpec(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(want.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &b); err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("BENCHMARK.json differs from `go run ./bench -spec`; regenerate it")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloadSpecs) < 2 || len(workloadSpecs) > 8 {
		t.Errorf("%d workloads", len(workloadSpecs))
	}
	for _, w := range workloadSpecs {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters or spans lines", w.Name, len(w.Why))
		}
		if _, ok := workloadCtors[w.Name]; !ok {
			t.Errorf("workload %s has no constructor", w.Name)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end, %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if s := specByName(endToEnd, "setup_s"); s.Unit != "s" || s.Better != "lower" {
		t.Errorf("setup_s must be in s, lower is better")
	}
}

// TestQuick runs every workload end to end and traced on tiny inputs
// and checks the shape of what comes out: every metric BENCHMARK.json
// names is there and finite, the span tree nests, the budget adds up,
// and a result compared with itself is all ok. It asserts nothing
// about speed: `go test ./...` runs it next to other packages.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads for about a second each")
	}
	// Traced runs install the process-wide codec observer, so only
	// the end-to-end runs go in parallel.
	e2e := make([]*runResult, len(workloadSpecs))
	t.Run("end_to_end", func(t *testing.T) {
		for i, w := range workloadSpecs {
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				res, err := runWorkload(runConfig{workload: w.Name, seed: int64(3 + i), seconds: 0.8, quick: true})
				if err != nil {
					t.Fatal(err)
				}
				e2e[i] = res
				checkMetrics(t, res, endToEnd, true)
			})
		}
	})
	if t.Failed() {
		return
	}
	for _, w := range workloadSpecs {
		t.Run("traced/"+w.Name, func(t *testing.T) {
			tracePath := filepath.Join(t.TempDir(), "trace.json")
			res, err := runWorkload(runConfig{workload: w.Name, seed: 5, seconds: 0.9, quick: true, trace: true, traceOut: tracePath})
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayer, false)
			if err := checkTree(res.tree); err != nil {
				t.Error(err)
			}
			// The budget rows must add up to the mean frame latency,
			// recomputed here from the frame roots.
			var latency float64
			roots := 0
			for _, s := range res.tree {
				if s.Name == "frame" && s.Viewer == primaryViewer {
					latency += ms(s.End - s.Start)
					roots++
				}
			}
			if roots == 0 {
				t.Fatal("no frame root in the span tree")
			}
			var sum float64
			for name, m := range res.Metrics {
				if strings.HasPrefix(name, "budget.") {
					sum += m.Value
				}
			}
			if mean := latency / float64(roots); math.Abs(sum-mean) > 1e-6*mean {
				t.Errorf("budget rows sum to %.6f ms, mean frame latency is %.6f ms", sum, mean)
			}
			if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
				t.Errorf("trace file: %v", err)
			}
		})
	}

	// A result set compared with itself: every row ok, no regression.
	path := filepath.Join(t.TempDir(), "set.json")
	if err := writeResultSet(path, e2e); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	regressed, err := compareFiles(&table, path, path)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Count(table.String(), " ok\n")
	if want := len(workloadSpecs) * (len(endToEnd) + 1); regressed || rows != want {
		t.Errorf("self-compare: regressed=%v, %d ok rows of %d\n%s", regressed, rows, want, table.String())
	}
}

func checkMetrics(t *testing.T, res *runResult, specs []metricSpec, bounded bool) {
	t.Helper()
	if res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics, spec has %d", res.Workload, len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := res.Metrics[s.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", res.Workload, s.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", res.Workload, s.Name, m.Value)
		case m.Unit != s.Unit || m.Better != s.Better || (bounded && m.Bound != s.Bound):
			t.Errorf("%s: metric %s carries %q/%q/%v, spec says %q/%q/%v", res.Workload, s.Name, m.Unit, m.Better, m.Bound, s.Unit, s.Better, s.Bound)
		case bounded && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", res.Workload, s.Name, m.Value)
		}
	}
}
