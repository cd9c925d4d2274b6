// Batchpipeline: batch-mode rendering of a time series with processor
// grouping, the experiment behind the paper's Figures 6 and 7 — run
// for real on goroutine-backed nodes. For each valid partition count L
// of an 8-node machine it renders the full sequence and reports the
// three performance metrics of §3: start-up latency, overall execution
// time, and inter-frame delay.
//
//	go run ./examples/batchpipeline
package main

import (
	"fmt"
	"log"

	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/tf"
	"repro/internal/volio"
)

func main() {
	const (
		p     = 8
		steps = 16
		size  = 128
	)
	fmt.Printf("batch rendering %d steps of the jet dataset on %d nodes, %dx%d\n\n",
		steps, p, size, size)

	table := metrics.NewTable("L", "G", "startup(s)", "overall(s)", "interframe(s)")
	// Every L whose group size P/L is a power of two, as binary-swap
	// needs.
	for _, l := range []int{1, 2, 4, 8} {
		store := volio.NewGenStore(datagen.NewJetScaled(0.35, steps))
		m, err := pipeline.Run(store, pipeline.Options{
			P: p, L: l,
			ImageW: size, ImageH: size,
			TF: tf.Jet(),
		}, nil)
		if err != nil {
			log.Fatal(err)
		}
		table.Row(
			fmt.Sprint(l), fmt.Sprint(p/l),
			fmt.Sprintf("%.3f", m.StartupLatency.Seconds()),
			fmt.Sprintf("%.3f", m.Overall.Seconds()),
			fmt.Sprintf("%.3f", m.InterFrameDelay.Seconds()),
		)
	}
	fmt.Print(table.String())
	fmt.Println("\nNote: on a single-CPU host all L behave alike in wall-clock terms;")
	fmt.Println("cmd/paperbench -exp fig6 runs the calibrated cluster-scale version.")
}
