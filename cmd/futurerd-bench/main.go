// Command futurerd-bench regenerates the paper's evaluation tables
// (Figures 6, 7 and 8 of "Efficient Race Detection with Futures",
// PPoPP'19) on this implementation.
//
// Usage:
//
//	futurerd-bench [-table fig6|fig7|fig8|vc|sample|replay|all] [-iters n]
//	               [-size test|quick|bench] [-validate] [-json]
//	               [-consumers n] [-traces dir]
//
// By default times are printed as aligned tables, in seconds, with
// overheads relative to the baseline configuration. With -json
// the same measurements are emitted as one machine-readable JSON
// document (per-config timings plus run counters, including the shadow
// fast-path stats), suitable for tracking a perf trajectory across
// commits:
//
//	futurerd-bench -table fig6 -json > BENCH_fig6.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"futurerd/internal/bench"
	"futurerd/internal/workloads"
)

func main() {
	table := flag.String("table", "all", "which table to run: fig6, fig7, fig8, vc, sample, replay, all")
	iters := flag.Int("iters", 3, "timed repetitions per configuration (minimum is reported)")
	size := flag.String("size", "bench", "input scale: test, quick, bench")
	validate := flag.Bool("validate", false, "re-validate outputs against sequential references")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	consumers := flag.Int("consumers", 0, "detection pipeline for the detecting configs: 0 inline, n>=1 scheduled pool of n consumers")
	traces := flag.String("traces", "traces", "directory of the committed trace corpus (replay table)")
	flag.Parse()

	var sz workloads.SizeClass
	switch *size {
	case "test":
		sz = workloads.SizeTest
	case "quick":
		sz = workloads.SizeQuick
	case "bench":
		sz = workloads.SizeBench
	default:
		fmt.Fprintf(os.Stderr, "unknown -size %q\n", *size)
		os.Exit(2)
	}
	opts := bench.Options{
		Iters: *iters, Size: sz, Validate: *validate, Consumers: *consumers,
	}

	type gen struct {
		name string
		run  func(bench.Options) (*bench.Table, []bench.Measurement, error)
	}
	gens := []gen{
		{"fig6", bench.Fig6}, {"fig7", bench.Fig7}, {"fig8", bench.Fig8},
		{"vc", bench.FigVC}, {"sample", bench.FigSample},
		{"replay", func(o bench.Options) (*bench.Table, []bench.Measurement, error) {
			return bench.FigReplay(o, *traces)
		}},
	}
	out := bench.JSONReport{Size: *size, Iters: opts.Iters, Consumers: opts.Consumers}
	ran := false
	for _, g := range gens {
		if *table != "all" && *table != g.name {
			continue
		}
		ran = true
		t, ms, err := g.run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", g.name, err)
			os.Exit(1)
		}
		if *asJSON {
			out.Measurements = append(out.Measurements, ms...)
		} else {
			t.Render(os.Stdout)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown -table %q (want fig6, fig7, fig8, vc, sample, replay or all)\n", *table)
		os.Exit(2)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "encode: %v\n", err)
			os.Exit(1)
		}
	}
}
