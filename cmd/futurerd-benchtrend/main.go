// Command futurerd-benchtrend compares two `futurerd-bench -json`
// documents — a committed baseline and a freshly measured run — and fails
// when any deterministic figure differs.
//
// Wall-clock timings vary with the machine, so a timing-based gate on
// shared CI runners is noise. Everything else a row carries is exactly
// reproducible for a given input size and code version, on the inline
// pipeline and the async consumer alike: every leaf of the run's Stats
// (shadow traffic and fast-path hits, reachability work, races reported,
// deduplicated and truncated, trace-replay cuts). The gate reads both
// documents as plain JSON, not through Go's Measurement type, so a key
// that the code stopped emitting still shows. It flattens each row to
// figure/bench/config.stats.Path.To.Leaf and requires the two sets of
// rows and leaves to be equal:
//
//	DRIFT  a leaf whose value differs
//	GONE   a row or leaf only the baseline has
//	ADDED  a row or leaf only the current run has
//
// Each is a failure. Intentional changes regenerate the baseline in the
// same commit:
//
//	go run ./cmd/futurerd-bench -json -size test -iters 1 > BENCH_baseline.json
//
// Usage:
//
//	futurerd-benchtrend -baseline BENCH_baseline.json -current BENCH_detect.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// decode reads one document and returns its leaves by path. A row's own
// path maps to "" so that a row with no stats (a baseline timing) still
// counts as present.
func decode(r io.Reader) (map[string]string, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		return nil, err
	}
	rows, ok := doc["measurements"].([]any)
	if !ok {
		return nil, fmt.Errorf("no measurements list")
	}
	delete(doc, "measurements")
	// consumers picks the pipeline, and the pipelines are
	// counter-identical by contract, so one baseline gates both.
	delete(doc, "consumers")
	leaves := map[string]string{}
	flatten(leaves, "", doc)
	for _, r := range rows {
		m, ok := r.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("measurement %v is not an object", r)
		}
		row := fmt.Sprintf("%v/%v/%v", m["figure"], m["bench"], m["config"])
		if _, dup := leaves[row]; dup {
			return nil, fmt.Errorf("row %s appears twice", row)
		}
		leaves[row] = ""
		delete(m, "figure")
		delete(m, "bench")
		delete(m, "config")
		// Wall time, and its ratio to the baseline's, depend on the machine.
		delete(m, "seconds")
		delete(m, "overhead_vs_baseline")
		flatten(leaves, row, m)
	}
	return leaves, nil
}

// flatten stores every leaf under v, keyed by its dotted path.
func flatten(leaves map[string]string, path string, v any) {
	m, ok := v.(map[string]any)
	if !ok {
		leaves[path] = fmt.Sprint(v)
		return
	}
	for k, c := range m {
		if path != "" {
			k = path + "." + k
		}
		flatten(leaves, k, c)
	}
}

// compare prints one line per row or leaf on which base and cur differ
// and returns how many there were.
func compare(w io.Writer, base, cur map[string]string) int {
	var lines []string
	for k, want := range base {
		got, ok := cur[k]
		switch {
		case !ok:
			lines = append(lines, fmt.Sprintf("GONE   %s (baseline %q)", k, want))
		case got != want:
			lines = append(lines, fmt.Sprintf("DRIFT  %s = %s, baseline %s", k, got, want))
		}
	}
	for k, got := range cur {
		if _, ok := base[k]; !ok {
			lines = append(lines, fmt.Sprintf("ADDED  %s (current %q)", k, got))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintf(w, "benchtrend: %d leaves checked, %d failures\n", len(base), len(lines))
	return len(lines)
}

func main() {
	basePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline document")
	curPath := flag.String("current", "BENCH_detect.json", "freshly measured document")
	flag.Parse()

	var docs [2]map[string]string
	for i, path := range []string{*basePath, *curPath} {
		f, err := os.Open(path)
		if err == nil {
			docs[i], err = decode(f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			os.Exit(1)
		}
	}
	if compare(os.Stdout, docs[0], docs[1]) > 0 {
		os.Exit(1)
	}
}
