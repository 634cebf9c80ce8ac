package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// traceRoot is where the traced pass writes spans.json, cpu.pprof and
// block.pprof, one directory per workload, relative to the directory the
// command runs in (the repository root).
const traceRoot = ".bench_build/futurerd-perf-trace"

// metricSpec names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units; spec_test.go holds the
// two together.
type metricSpec struct{ name, unit string }

// endToEnd is what the untraced pass reports: what a user of the detector
// sees.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"slowdown", "x"},
	{"c2_slowdown", "x"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what the traced pass reports, per package of the detector.
// doc.go maps each to the end-to-end metric and workload it should move.
var perLayer = []metricSpec{
	{"ladder.baseline_s", "s"},
	{"ladder.reach_s", "s"},
	{"ladder.instr_s", "s"},
	{"ladder.full_s", "s"},
	{"ladder.full_c2_s", "s"},
	{"core.maint_s", "s"},
	{"detect.hooks_s", "s"},
	{"shadow.check_s", "s"},
	{"detect.c2_speedup", "x"},
	{"cpu.detect_s", "s"},
	{"cpu.event_s", "s"},
	{"cpu.core_s", "s"},
	{"cpu.shadow_s", "s"},
	{"cpu.trace_s", "s"},
	{"cpu.program_s", "s"},
	{"cpu.runtime_s", "s"},
	{"detect.wait_s", "s"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"detect.strands", "count"},
	{"detect.constructs", "count"},
	{"event.batches", "count"},
	{"event.indep_ratio", "ratio"},
	{"event.footprint_pages", "count"},
	{"core.queries", "count"},
	{"core.finds", "count"},
	{"core.unions", "count"},
	{"core.rclose_words", "count"},
	{"core.attached_sets", "count"},
	{"shadow.accesses", "count"},
	{"shadow.skip_ratio", "ratio"},
	{"shadow.epoch_hits", "count"},
	{"shadow.memo_hits", "count"},
	{"shadow.reader_appends", "count"},
	{"shadow.spill_entries", "count"},
	{"shadow.footprint_mb", "MB"},
	{"detect.stolen_chunks", "count"},
	{"detect.overlapped_windows", "count"},
	{"trace.record_s", "s"},
	{"trace.decode_s", "s"},
	{"trace.bytes", "bytes"},
	{"trace.events", "count"},
	{"tracing_overhead", "ratio"},
}

// value is one measured metric and the number of samples behind it.
type value struct {
	v float64
	n int
}

// result is what one pass reports.
type result struct {
	attempted, failed int
	metrics           map[string]value
}

func main() {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	workload := flag.String("workload", "", "workload to measure: "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long the timed rounds run")
	traced := flag.Int("trace", 0, "0 runs the end-to-end pass, 1 the traced per-layer pass")
	flag.Parse()
	w, ok := lookup(*workload)
	if !ok || flag.NArg() > 0 || *seconds < 1 || *traced < 0 || *traced > 1 {
		flag.Usage()
		os.Exit(2)
	}
	o := options{
		seed:      *seed,
		budget:    time.Duration(*seconds) * time.Second,
		minSample: 100 * time.Millisecond,
		chunk:     20 * time.Millisecond,
	}
	fmt.Printf("futurerd-perf workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d %s\n",
		w.name, o.seed, *seconds, *traced, runtime.GOMAXPROCS(0), runtime.Version())

	var (
		res   *result
		err   error
		specs = endToEnd
	)
	if *traced == 1 {
		specs = perLayer
		res, err = tracedPass(w, o, filepath.Join(traceRoot, w.name), os.Stdout)
	} else {
		res, err = endToEndPass(w, o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "futurerd-perf:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, specs); err != nil {
		fmt.Fprintln(os.Stderr, "futurerd-perf:", err)
		os.Exit(1)
	}
	if res.failed > 0 {
		os.Exit(1)
	}
}

// print writes one line per metric, then the result as one JSON object on
// the last line.
func (r *result) print(w io.Writer, specs []metricSpec) error {
	type jsonValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]jsonValue{}}
	fmt.Fprintf(w, "checks: %d attempted, %d failed (fail_frac %g)\n", r.attempted, r.failed, float64(r.failed)/float64(r.attempted))
	for _, s := range specs {
		v, ok := r.metrics[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		fmt.Fprintf(w, "%-26s %16.6f %-5s n=%d\n", s.name, v.v, s.unit, v.n)
		out.Metrics[s.name] = jsonValue{v.v, s.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
