// Command futurerd-benchtrend compares two `futurerd-bench -json`
// documents — a committed baseline and a freshly measured run — and fails
// when the detector's deterministic execution counters drift.
//
// Wall-clock timings vary with the machine, so a timing-based gate on
// shared CI runners is noise. The run counters are different: for a given
// input size, code version and (serial) configuration, the number of
// shadow accesses, page-set cache hits, ownership skips, memo hits,
// reader-list inflations, reachability queries, races, the words of
// MultiBags+'s R closure and its three sync cases is exactly
// reproducible, on the inline pipeline and the async consumer alike. Any
// unexplained change is a behavioral regression — a fast path silently
// disabled (R's fold memo, say, which only the closure words show), a
// protocol change leaking extra queries, a race appearing — even when the
// timings look fine.
// The two documents must also agree on the algorithm set: a table family
// (fig6, fig7, replay, ...) present on one side only is a named hard failure,
// not a silent row skip — adding a back-end without regenerating the
// baseline would otherwise pass the gate with the new rows unchecked.
// Intentional changes regenerate the baseline in the same commit:
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
		"spawns":            s.Spawns,
		"creates":           s.Creates,
		"gets":              s.Gets,
		"syncs":             s.Syncs,
		"strands":           uint64(s.Strands),
		"functions":         uint64(s.Functions),
		"races":             s.RaceCount,
		"reach.queries":     s.Reach.Queries,
		"reach.finds":       s.Reach.Finds,
		"reach.unions":      s.Reach.Unions,
		"reach.attached":    s.Reach.AttachedSets,
		"reach.rarcs":       s.Reach.RArcs,
		"reach.rclosewords": s.Reach.RCloseWords,
		"reach.syncneither": s.Reach.SyncNeither,
		"reach.syncboth":    s.Reach.SyncBoth,
		"reach.syncmixed":   s.Reach.SyncMixed,
		"shadow.reads":      s.Shadow.Reads,
		"shadow.writes":     s.Shadow.Writes,
		"shadow.appends":    s.Shadow.ReaderAppends,
		"shadow.flushes":    s.Shadow.ReaderFlushes,
		"shadow.pages":      s.Shadow.TouchedPages,
		"shadow.pagehits":   s.Shadow.PageCacheHits,
		"shadow.owned":      s.Shadow.OwnedSkips,
		"shadow.readshared": s.Shadow.ReadSharedSkips,
		"shadow.memo":       s.Shadow.MemoHits,
		"shadow.inflations": s.Shadow.EpochInflations,
		"shadow.deflations": s.Shadow.EpochDeflations,
		"shadow.spill":      s.Shadow.SpillEntries,
		"event.batches":     s.Event.Batches,
	}
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
	// multibags+, replay = trace replay, ...). A family present on one side
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
			if got := cc[name]; got != want {
				fails++
				fmt.Printf("DRIFT  %s: %s = %d, baseline %d (%+d)\n",
					key(cm), name, got, want, int64(got)-int64(want))
			}
		}
	}
	fmt.Printf("benchtrend: %d configurations checked, %d new, %d failures\n", checked, news, fails)
	if fails > 0 {
		os.Exit(1)
	}
}
