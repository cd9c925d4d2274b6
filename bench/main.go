// Command bench is the glass-to-glass benchmark: it drives the real
// system (core.StartSession, transport.Daemon, stream.Broker,
// display.Viewer, wan shaping over loopback TCP) on four workloads,
// reports the paper's metrics end to end plus a per-layer budget
// measured from outside, and checks the displayed pixels. README.md
// has the workloads, the metric glossary and how to run, compare and
// open a trace.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: render_lan, wan_vortex, broker_fanout, replay_pieces (empty: all, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for camera start azimuth, replay order and pixel-check sample")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, nothing traced; 1: per-layer metrics from a traced window plus probes")
	flag.BoolVar(&cfg.quick, "quick", false, "tiny volumes and images, for the package test")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1: write the span tree here as Chrome trace events")
	out := flag.String("out", "", "write the run's (or, without -workload, all runs') results here as JSON")
	repeat := flag.Int("repeat", 1, "without -workload: end-to-end runs per workload, on seeds seed, seed+1, ...")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
	spec := flag.Bool("spec", false, "print BENCHMARK.json")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	switch {
	case *spec:
		err = writeSpec(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case cfg.workload == "":
		err = runAll(cfg, *repeat, *out)
	default:
		err = runOne(cfg, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

// resultSet is an -out file: one stamp, any number of runs.
type resultSet struct {
	Stamp stamp        `json:"stamp"`
	Runs  []*runResult `json:"runs"`
}

func writeResultSet(path string, runs []*runResult) error {
	data, err := json.MarshalIndent(resultSet{Stamp: newStamp(), Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runOne runs one workload in this process, prints every metric by
// name, and ends stdout with the one-line JSON object the driver
// reads. A closed-loop workload that loses a frame, or any failed
// pixel check, makes the exit code non-zero.
func runOne(cfg runConfig, out string) error {
	res, err := runWorkload(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	printRun(res)
	if out != "" {
		if err := writeResultSet(out, []*runResult{res}); err != nil {
			return err
		}
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]wire{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = wire{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

func printRun(res *runResult) {
	specs, kind := endToEnd, "end to end"
	if res.Trace {
		specs, kind = perLayer, "per layer (traced)"
	}
	fmt.Printf("== %s  seed %d  window %.0f s  %s\n", res.Workload, res.Seed, res.Seconds, kind)
	for _, s := range specs {
		m := res.Metrics[s.Name]
		row := fmt.Sprintf("%-40s %14.4f %-6s %-6s", s.Name, m.Value, s.Unit, s.Better)
		if !res.Trace {
			row += fmt.Sprintf(" bound %4.1f%%", s.Bound*100)
		}
		if m.N > 0 {
			row += fmt.Sprintf("  n=%d", m.N)
		}
		fmt.Println(row)
	}
	var parts []string
	for _, v := range []string{primaryViewer, lanViewer} {
		if c, ok := res.Viewers[v]; ok {
			parts = append(parts, fmt.Sprintf("%s %d/%d, %d pixel-checked, min %.1f dB", v, c.Failed, c.Attempted, c.Checked, c.PSNRMin))
		}
	}
	fmt.Printf("failed/attempted: %d/%d (%s)", res.Failed, res.Attempted, strings.Join(parts, "; "))
	if res.Invalid != "" {
		fmt.Printf("  INVALID: %s", res.Invalid)
	}
	fmt.Println()
}

// runAll runs every workload, each run in a fresh child process (this
// binary re-executed) so rusage, peak RSS and GC state are per run:
// `repeat` end-to-end runs and one traced run per workload.
func runAll(cfg runConfig, repeat int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".", ".bench_work_")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var runs []*runResult
	failed := false
	child := func(workload string, seed int64, trace int) error {
		path := filepath.Join(tmp, "run.json")
		args := []string{
			"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds),
			"-trace", fmt.Sprint(trace), "-out", path,
		}
		if cfg.quick {
			args = append(args, "-quick")
		}
		if trace == 1 && cfg.traceOut != "" {
			ext := filepath.Ext(cfg.traceOut)
			args = append(args, "-trace-out", strings.TrimSuffix(cfg.traceOut, ext)+"."+workload+ext)
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		// The child's table goes to our stdout; its last line (the
		// driver's JSON) is of no use here.
		stdout, err := cmd.Output()
		if i := strings.LastIndex(strings.TrimRight(string(stdout), "\n"), "\n"); i >= 0 {
			os.Stdout.Write(stdout[:i+1])
		}
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			return err
		}
		var set resultSet
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return fmt.Errorf("%s produced no result: %v", workload, err)
		}
		os.Remove(path)
		if err := json.Unmarshal(data, &set); err != nil {
			return err
		}
		runs = append(runs, set.Runs...)
		failed = failed || err != nil
		return nil
	}
	for _, w := range workloadSpecs {
		for r := 0; r < repeat; r++ {
			if err := child(w.Name, cfg.seed+int64(r), 0); err != nil {
				return err
			}
		}
		if err := child(w.Name, cfg.seed, 1); err != nil {
			return err
		}
	}
	if out != "" {
		if err := writeResultSet(out, runs); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("at least one run reported failed operations")
	}
	return nil
}

// gitSHA reads the checkout's HEAD without running git (the driver's
// checkout is not a repository; the stamp then says so).
func gitSHA() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if sha, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == name {
			return f[0]
		}
	}
	return "unknown"
}
