// Command futurerd-benchtrend compares two `futurerd-bench -json`
// documents — a committed baseline and a freshly measured run — and fails
// when the detector's deterministic execution counters drift.
//
// Wall-clock timings vary with the machine, so a timing-based gate on
// shared CI runners is noise. The run counters are different: for a given
// input size, code version and (serial) configuration, the number of
// shadow accesses, ownership skips, memo hits, epoch transfers and
// inflations, reachability queries and races is exactly reproducible. Any unexplained change is a behavioral
// regression — a fast path silently disabled, a protocol change leaking
// extra queries, a race appearing — even when the timings look fine.
// The overlapping scheduler's outcome counters (event.overlapped,
// event.stolen) are the one exception: they are gated at zero for
// serial documents but skipped when the documents were measured with a
// consumer pool, where goroutine timing decides their values.
// The two documents must also agree on the algorithm set: a table family
// (fig6, fig7, vc, ...) present on one side only is a named hard failure,
// not a silent row skip — adding a back-end without regenerating the
// baseline would otherwise pass the gate with the new rows unchecked.
// Intentional changes regenerate the baseline in the same commit:
//
//	go run ./cmd/futurerd-bench -json -size test -iters 1 > BENCH_baseline.json
//
// Usage:
//
//	futurerd-benchtrend -baseline BENCH_baseline.json -current BENCH_detect.json
//	                    [-max-overhead-ratio r]
//
// With -max-overhead-ratio > 0 the tool additionally fails when a
// configuration's overhead-vs-baseline grew by more than the given factor
// (e.g. 1.5) — useful on quiet machines, off by default for CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"futurerd/internal/bench"
)

func load(path string) (*bench.JSONReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r bench.JSONReport
	if err := json.NewDecoder(f).Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// counterRow flattens the deterministic counters of one measurement.
func counterRow(m *bench.Measurement) map[string]uint64 {
	if m.Stats == nil {
		return nil
	}
	s := m.Stats
	return map[string]uint64{
		"spawns":             s.Spawns,
		"creates":            s.Creates,
		"gets":               s.Gets,
		"syncs":              s.Syncs,
		"strands":            uint64(s.Strands),
		"functions":          uint64(s.Functions),
		"races":              s.RaceCount,
		"reach.queries":      s.Reach.Queries,
		"reach.finds":        s.Reach.Finds,
		"reach.unions":       s.Reach.Unions,
		"reach.attached":     s.Reach.AttachedSets,
		"reach.rarcs":        s.Reach.RArcs,
		"reach.clockcmps":    s.Reach.ClockCompares,
		"reach.clockinfl":    s.Reach.ClockInflations,
		"reach.clockbytes":   s.Reach.ClockBytes,
		"reach.clockwidth":   s.Reach.ClockWidth,
		"shadow.reads":       s.Shadow.Reads,
		"shadow.writes":      s.Shadow.Writes,
		"shadow.appends":     s.Shadow.ReaderAppends,
		"shadow.flushes":     s.Shadow.ReaderFlushes,
		"shadow.pages":       s.Shadow.TouchedPages,
		"shadow.owned":       s.Shadow.OwnedSkips,
		"shadow.readshared":  s.Shadow.ReadSharedSkips,
		"shadow.memo":        s.Shadow.MemoHits,
		"shadow.epochhits":   s.Shadow.EpochHits,
		"shadow.inflations":  s.Shadow.EpochInflations,
		"shadow.deflations":  s.Shadow.EpochDeflations,
		"shadow.spill":       s.Shadow.SpillEntries,
		"shadow.sampled":     s.Shadow.SampledAccesses,
		"shadow.budgetskips": s.Shadow.SkippedByBudget,
		"event.batches":      s.Event.Batches,
		"event.independent":  s.Event.IndependentBatches,
		"event.serialized":   s.Event.SerializedBatches,
		"event.fpspans":      s.Event.FootprintSpans,
		"event.fppages":      s.Event.FootprintPages,
		"event.collapsed":    s.Event.CollapsedFootprints,
		"event.overlapped":   s.Event.OverlappedWindows,
		"event.stolen":       s.Event.StolenChunks,
	}
}

// timingDependent lists counter rows that are scheduling outcomes rather
// than functions of the input: deterministically zero for inline runs —
// where the gate holds them at zero — but dependent on goroutine timing
// once the overlapping scheduler runs, even with one consumer, so for
// consumer-pool documents (Consumers >= 1) they are skipped instead of
// gated.
var timingDependent = map[string]bool{
	"event.overlapped": true,
	"event.stolen":     true,
}

func key(m *bench.Measurement) string {
	return m.Figure + "/" + m.Bench + "/" + m.Config
}

// figureSetDiff compares the algorithm/table families (Measurement.Figure)
// present in the two documents and describes the asymmetric difference,
// naming each missing family and the side that lacks it. Empty when the
// sets agree.
func figureSetDiff(base, cur *bench.JSONReport) string {
	figs := func(r *bench.JSONReport) map[string]bool {
		set := make(map[string]bool)
		for i := range r.Measurements {
			set[r.Measurements[i].Figure] = true
		}
		return set
	}
	bf, cf := figs(base), figs(cur)
	var missBase, missCur []string
	for f := range cf {
		if !bf[f] {
			missBase = append(missBase, f)
		}
	}
	for f := range bf {
		if !cf[f] {
			missCur = append(missCur, f)
		}
	}
	sort.Strings(missBase)
	sort.Strings(missCur)
	var parts []string
	if len(missBase) > 0 {
		parts = append(parts, fmt.Sprintf("baseline lacks %v", missBase))
	}
	if len(missCur) > 0 {
		parts = append(parts, fmt.Sprintf("current run lacks %v", missCur))
	}
	return strings.Join(parts, "; ")
}

func main() {
	basePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline document")
	curPath := flag.String("current", "BENCH_detect.json", "freshly measured document")
	maxRatio := flag.Float64("max-overhead-ratio", 0, "fail if overhead grew by more than this factor (0 disables)")
	flag.Parse()

	base, err := load(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cur, err := load(*curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if base.Size != cur.Size || base.Consumers != cur.Consumers {
		fmt.Fprintf(os.Stderr,
			"configuration mismatch: baseline size=%s consumers=%d, current size=%s consumers=%d\n",
			base.Size, base.Consumers, cur.Size, cur.Consumers)
		os.Exit(1)
	}

	baseBy := make(map[string]*bench.Measurement, len(base.Measurements))
	for i := range base.Measurements {
		baseBy[key(&base.Measurements[i])] = &base.Measurements[i]
	}

	// The two documents must agree on the algorithm/table set (the Figure
	// field names the algorithm family: fig6 = multibags, fig7 =
	// multibags+, vc = vector clocks, ...). A family present on one side
	// only would otherwise degrade to a silent row skip (baseline-only) or
	// an informational NEW flood (current-only), and the gate would pass
	// while covering nothing of the new back-end — so it is a named, hard
	// failure pointing at the regeneration command instead.
	if miss := figureSetDiff(base, cur); miss != "" {
		fmt.Fprintf(os.Stderr, "algorithm set mismatch: %s\n"+
			"regenerate the baseline in the same commit:\n"+
			"  go run ./cmd/futurerd-bench -json -size %s -iters 1 > %s\n",
			miss, cur.Size, *basePath)
		os.Exit(1)
	}

	fails, news, checked := 0, 0, 0
	for i := range cur.Measurements {
		cm := &cur.Measurements[i]
		bm, ok := baseBy[key(cm)]
		if !ok {
			news++
			fmt.Printf("NEW    %s (no baseline entry)\n", key(cm))
			continue
		}
		cc, bc := counterRow(cm), counterRow(bm)
		if cc == nil || bc == nil {
			continue // baseline configs carry no stats
		}
		checked++
		for name, want := range bc {
			if cur.Consumers >= 1 && timingDependent[name] {
				continue
			}
			if got := cc[name]; got != want {
				fails++
				fmt.Printf("DRIFT  %s: %s = %d, baseline %d (%+d)\n",
					key(cm), name, got, want, int64(got)-int64(want))
			}
		}
		if *maxRatio > 0 && bm.Overhead > 0 && cm.Overhead > bm.Overhead**maxRatio {
			fails++
			fmt.Printf("SLOW   %s: overhead %.2fx, baseline %.2fx (> %.2f× growth)\n",
				key(cm), cm.Overhead, bm.Overhead, *maxRatio)
		}
	}
	fmt.Printf("benchtrend: %d configurations checked, %d new, %d failures\n", checked, news, fails)
	if fails > 0 {
		os.Exit(1)
	}
}
