// Command paperbench regenerates the paper's tables and figures.
//
//	paperbench                     # run every experiment at paper scale
//	paperbench -exp table1         # one experiment
//	paperbench -quick              # reduced sizes/links for a fast pass
//	paperbench -json results.json  # also write machine-readable results
//	paperbench -exp pipeline -trace out.json
//	                               # traced pipeline run; open out.json
//	                               # in a Perfetto/chrome://tracing viewer
//
// Experiments: table1, table2, fig6, fig7, fig8, fig9, fig10, fig11,
// datasets, hybrid, trace, pipeline, adaptive, codec, faults, relay,
// status, overload, all. Performance is measured by `go run ./bench`
// (see bench/README.md), not here.
//
//	paperbench -exp status -trace merged.json -json BENCH_status.json
//	                               # loopback relay tree with one
//	                               # impaired link; the provenance
//	                               # collector must attribute it
//	paperbench -exp codec -json BENCH_codec.json
//	                               # compression-ladder evaluation:
//	                               # ratio / throughput / error bound
//	                               # per rung, jls-vs-lzo/bzip
//	                               # contrasts, progressive preview
//	                               # cost on the Japan link; CI gates
//	                               # on the acceptance booleans
//	paperbench -exp overload -json BENCH_overload.json
//	                               # chaos soak: client flood + faults
//	                               # under a small memory budget; CI
//	                               # gates on overload.passed
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (table1,table2,fig6,fig7,fig8,fig9,fig10,fig11,datasets,hybrid,trace,pipeline,adaptive,codec,faults,relay,status,overload,all)")
	quick := flag.Bool("quick", false, "reduced sizes and accelerated links")
	jsonPath := flag.String("json", "", "write results as JSON (experiment id -> values) to this file")
	tracePath := flag.String("trace", "", "write Chrome trace-event JSON from tracing experiments to this file")
	flag.Parse()

	ctx := experiments.New(os.Stdout, *quick)
	ctx.TracePath = *tracePath
	runners := map[string]func() (any, error){
		"table1":   wrap(ctx.Table1),
		"table2":   wrap(ctx.Table2),
		"fig6":     wrap(ctx.Fig6),
		"fig7":     wrap(ctx.Fig7),
		"fig8":     wrap(ctx.Fig8),
		"fig9":     wrap(ctx.Fig9),
		"fig10":    wrap(ctx.Fig10),
		"fig11":    wrap(ctx.Fig11),
		"datasets": wrap(ctx.Datasets),
		"hybrid":   wrap(ctx.Hybrid),
		"trace":    wrap(ctx.Trace),
		"pipeline": wrap(ctx.Pipeline),
		"adaptive": wrap(ctx.Adaptive),
		"codec":    wrap(ctx.Codec),
		"faults":   wrap(ctx.Faults),
		"relay":    wrap(ctx.Relay),
		"status":   wrap(ctx.Status),
		"overload": wrap(ctx.Overload),
	}
	order := []string{"table1", "fig6", "fig7", "fig8", "table2", "fig9", "fig10", "fig11", "datasets", "hybrid", "trace", "pipeline", "adaptive", "codec", "faults", "relay", "status", "overload"}

	var todo []string
	switch *exp {
	case "all":
		todo = order
	default:
		if _, ok := runners[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "paperbench: unknown experiment %q (have %s, all)\n",
				*exp, strings.Join(order, ", "))
			os.Exit(2)
		}
		todo = []string{*exp}
	}
	results := map[string]any{}
	for _, name := range todo {
		res, err := runners[name]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		results[name] = res
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: encode results: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

// wrap adapts the typed experiment runners to a uniform signature that
// preserves the result for -json output.
func wrap[T any](f func() (T, error)) func() (any, error) {
	return func() (any, error) {
		res, err := f()
		if err != nil {
			return nil, err
		}
		return res, nil
	}
}
