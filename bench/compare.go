package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles judges result set B against result set A (same
// benchmark code, same settings): for every workload and end-to-end
// metric it applies the metric's direction and bound to the medians
// and prints ok, regressed, or — where the runs of either set spread
// wider than the bound — unresolved, unless every run of B reads
// better than every run of A. It reports true when any metric
// regressed or any workload's failed share rose.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "%-14s %-26s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worse", "spread", "bound", "verdict")
	for _, wl := range workloadSpecs {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, spec := range endToEnd {
			va, vb := values(ra, spec.Name), values(rb, spec.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if spec.Better == "higher" {
				worse = -worse
			}
			spread := spreadShare(va)
			if s := spreadShare(vb); s > spread {
				spread = s
			}
			verdict := "ok"
			switch {
			case spread > spec.Bound:
				if !allBetter(va, vb, spec.Better) {
					verdict = "unresolved"
				}
			case worse > spec.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(w, "%-14s %-26s %12.4f %12.4f %+7.1f%% %7.1f%% %6.1f%%  %s\n",
				wl.Name, spec.Name, ma, mb, worse*100, spread*100, spec.Bound*100, verdict)
		}
		fa, fb := failedShare(ra), failedShare(rb)
		verdict := "ok"
		if fb > fa {
			verdict = "regressed"
			regressed = true
		}
		fmt.Fprintf(w, "%-14s %-26s %12.6f %12.6f %33s\n", wl.Name, "failed share", fa, fb, verdict)
	}
	return regressed, nil
}

// loadRuns returns a file's end-to-end runs by workload.
func loadRuns(path string) (map[string][]*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string][]*runResult{}
	for _, r := range set.Runs {
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, nil
}

func values(runs []*runResult, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if (better == "higher" && y <= x) || (better == "lower" && y >= x) {
				return false
			}
		}
	}
	return true
}

func failedShare(runs []*runResult) float64 {
	var failed, attempted float64
	for _, r := range runs {
		failed += float64(r.Failed)
		attempted += float64(r.Attempted)
	}
	return ratio(failed, attempted)
}
