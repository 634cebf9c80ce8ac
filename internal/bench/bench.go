// Package bench is the evaluation harness: it regenerates the paper's
// Figures 6, 7 and 8 (§6) on this implementation. For each benchmark it
// times the four configurations of the paper —
//
//	baseline        — sequential execution, no detection;
//	reachability    — parallel-construct hooks and reachability
//	                  maintenance only;
//	instrumentation — memory hooks fire and decode shadow addresses but
//	                  the access history is neither kept nor queried;
//	full            — complete race detection
//
// — and prints the same rows the paper reports, with overheads relative
// to the baseline and geometric means. Absolute numbers differ from the
// paper's Cilk Plus / Xeon testbed; the shapes are what this harness is
// for.
package bench

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"futurerd"
	"futurerd/internal/shadow"
	"futurerd/internal/trace"
	"futurerd/internal/workloads"
)

// JSONReport is the machine-readable document cmd/futurerd-bench -json
// emits and cmd/futurerd-benchtrend consumes: one entry per (figure,
// bench, configuration) cell. Timings are machine-dependent; the Stats
// counters are deterministic for a given input size and code version,
// which is what the trend check keys on.
type JSONReport struct {
	Size         string        `json:"size"`
	Iters        int           `json:"iters"`
	Consumers    int           `json:"consumers,omitempty"`
	Measurements []Measurement `json:"measurements"`
}

// Measurement is one machine-readable timing cell: a (figure, bench,
// configuration) triple with its wall time, overhead and run counters.
// cmd/futurerd-bench -json emits these so a perf trajectory can be kept
// across commits (BENCH_*.json artifacts).
type Measurement struct {
	Figure  string  `json:"figure"`
	Bench   string  `json:"bench"`
	Config  string  `json:"config"`
	Seconds float64 `json:"seconds"`
	// Overhead is the ratio against the same bench's baseline config;
	// zero for the baseline itself and for configs without a baseline.
	Overhead float64 `json:"overhead_vs_baseline,omitempty"`
	// Stats carries the run's counters (reachability traffic, shadow
	// fast-path hits); nil for baseline runs, which detect nothing.
	Stats *futurerd.Stats `json:"stats,omitempty"`
}

// Options configures a harness run.
type Options struct {
	// Iters is the number of timed repetitions; the minimum is reported
	// (robust to scheduling noise on small machines). Default 3.
	Iters int
	// Size selects the input scale; the zero value is workloads.SizeTest.
	// cmd/futurerd-bench passes workloads.SizeBench.
	Size workloads.SizeClass
	// Validate re-checks every run's output against the sequential
	// reference (slower; default off for timing runs).
	Validate bool
	// Consumers sets Config.Consumers for the detecting configurations:
	// 0 checks batches inline, n >= 1 on the async consumer.
	Consumers int
}

func (o *Options) defaults() {
	if o.Iters <= 0 {
		o.Iters = 3
	}
}

// Table is a rendered result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "%s\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			pad := widths[i] - len(c)
			if i == 0 {
				fmt.Fprintf(w, "  %s%s", c, strings.Repeat(" ", pad))
			} else {
				fmt.Fprintf(w, "  %s%s", strings.Repeat(" ", pad), c)
			}
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintln(w)
}

// timeRun times one execution of ins under the given mode and memory
// level, returning the wall time and the report (nil for baseline).
func timeRun(opts Options, ins workloads.Instance, mode futurerd.Mode, mem futurerd.MemLevel) (time.Duration, *futurerd.Report) {
	start := time.Now()
	if mode == futurerd.ModeNone {
		futurerd.RunSeq(ins.Run)
		return time.Since(start), nil
	}
	rep := futurerd.Detect(futurerd.Config{
		Mode: mode, Mem: mem, Consumers: opts.Consumers,
	}, ins.Run)
	return time.Since(start), rep
}

// measure returns the minimum wall time over opts.Iters runs.
func measure(opts Options, ins workloads.Instance, mode futurerd.Mode, mem futurerd.MemLevel) (time.Duration, *futurerd.Report) {
	best := time.Duration(math.MaxInt64)
	var rep *futurerd.Report
	for i := 0; i < opts.Iters; i++ {
		d, r := timeRun(opts, ins, mode, mem)
		if d < best {
			best, rep = d, r
		}
	}
	return best, rep
}

func secs(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

func ratio(d, base time.Duration) string {
	if base <= 0 {
		return "-"
	}
	return fmt.Sprintf("(%.2fx)", float64(d)/float64(base))
}

// geomean returns the geometric mean of xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// configGrid runs the paper's four configurations for one instance
// factory and returns the four minimum times plus the full-config report
// (whose shadow counters the tables and JSON output surface).
func configGrid(opts Options, mk func() workloads.Instance, mode futurerd.Mode) (base, reach, instr, full time.Duration, fullRep *futurerd.Report, err error) {
	check := func(ins workloads.Instance, rep *futurerd.Report) error {
		if rep != nil && rep.Err != nil {
			return fmt.Errorf("%s: %v", ins.Name(), rep.Err)
		}
		if rep != nil && rep.Racy() {
			return fmt.Errorf("%s: unexpected races: %v", ins.Name(), rep.Races[0])
		}
		if opts.Validate {
			return ins.Validate()
		}
		return nil
	}
	ins := mk()
	base, _ = measure(opts, ins, futurerd.ModeNone, futurerd.MemOff)
	if err = checkValidate(opts, ins); err != nil {
		return
	}
	reach, rep := measure(opts, ins, mode, futurerd.MemOff)
	if err = check(ins, rep); err != nil {
		return
	}
	instr, rep = measure(opts, ins, mode, futurerd.MemInstr)
	if err = check(ins, rep); err != nil {
		return
	}
	full, fullRep = measure(opts, ins, mode, futurerd.MemFull)
	err = check(ins, fullRep)
	return
}

func checkValidate(opts Options, ins workloads.Instance) error {
	if !opts.Validate {
		return nil
	}
	return ins.Validate()
}

// skipPct renders the fraction of full-config accesses resolved by one of
// the shadow fast paths — pick selects the counter. An access is
// counted by at most one skip counter, so each column is ≤ 100% and the
// two columns sum to the total fast-path rate (memo hits are a per-query
// metric and live in the JSON stats).
func skipPct(rep *futurerd.Report, pick func(s futurerd.Stats) uint64) string {
	if rep == nil {
		return "-"
	}
	sh := rep.Stats.Shadow
	total := sh.Reads + sh.Writes
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(pick(rep.Stats))/float64(total))
}

func ownedPct(rep *futurerd.Report) string {
	return skipPct(rep, func(s futurerd.Stats) uint64 { return s.Shadow.OwnedSkips })
}

func readSharedPct(rep *futurerd.Report) string {
	return skipPct(rep, func(s futurerd.Stats) uint64 { return s.Shadow.ReadSharedSkips })
}

// footprint renders the resident shadow-memory footprint of the full
// run: every touched shadow page holds a word record per application
// word, plus one spill entry per reader held beyond the inline slot on
// inflated words.
func footprint(rep *futurerd.Report) string {
	if rep == nil {
		return "-"
	}
	sh := rep.Stats.Shadow
	b := sh.TouchedPages*(1<<shadow.PageBits)*shadow.WordBytes +
		sh.SpillEntries*4 // spill entries are bare 4-byte strand ids
	return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
}

// figure runs one of the paper's overhead tables (Figure 6 for structured
// variants under MultiBags, Figure 7 for general variants under
// MultiBags+).
func figure(opts Options, name, title string, mode futurerd.Mode, pick func(workloads.Benchmark) func() workloads.Instance) (*Table, []Measurement, error) {
	opts.defaults()
	t := &Table{
		Title:  title,
		Header: []string{"bench", "baseline", "reach", "", "instr", "", "full", "", "owned", "rdshare", "shadow"},
	}
	var ms []Measurement
	var reachR, instrR, fullR []float64
	for _, b := range workloads.All(opts.Size) {
		mk := pick(b)
		if mk == nil {
			mk = b.Structured // dedup has a single implementation
		}
		base, reach, instr, full, fullRep, err := configGrid(opts, mk, mode)
		if err != nil {
			return nil, nil, err
		}
		t.Rows = append(t.Rows, []string{
			b.Name, secs(base),
			secs(reach), ratio(reach, base),
			secs(instr), ratio(instr, base),
			secs(full), ratio(full, base),
			ownedPct(fullRep), readSharedPct(fullRep), footprint(fullRep),
		})
		ms = append(ms,
			Measurement{Figure: name, Bench: b.Name, Config: "baseline", Seconds: base.Seconds()},
			Measurement{Figure: name, Bench: b.Name, Config: "reachability",
				Seconds: reach.Seconds(), Overhead: float64(reach) / float64(base)},
			Measurement{Figure: name, Bench: b.Name, Config: "instrumentation",
				Seconds: instr.Seconds(), Overhead: float64(instr) / float64(base)},
			Measurement{Figure: name, Bench: b.Name, Config: "full",
				Seconds: full.Seconds(), Overhead: float64(full) / float64(base),
				Stats: &fullRep.Stats})
		// The paper's geomean excludes dedup (its compression stage is
		// uninstrumented); we follow suit.
		if b.Name != "dedup" {
			reachR = append(reachR, float64(reach)/float64(base))
			instrR = append(instrR, float64(instr)/float64(base))
			fullR = append(fullR, float64(full)/float64(base))
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"geomean overhead (excl. dedup): reach %.2fx, instr %.2fx, full %.2fx",
		geomean(reachR), geomean(instrR), geomean(fullR)))
	t.Notes = append(t.Notes,
		"times are seconds (min of iterations); (x) columns are overhead vs baseline;",
		"owned/rdshare = full-config accesses resolved by the shadow owned-word and",
		"read-shared fast paths (disjoint; each access counts at most once);",
		"shadow = resident shadow footprint (touched pages at 8 B/word + spill entries)")
	return t, ms, nil
}

// Fig6 reproduces Figure 6: structured-future variants race detected with
// MultiBags, four configurations each.
func Fig6(opts Options) (*Table, []Measurement, error) {
	return figure(opts, "fig6",
		"Figure 6: structured futures + MultiBags (cf. paper Fig. 6)",
		futurerd.ModeMultiBags,
		func(b workloads.Benchmark) func() workloads.Instance { return b.Structured })
}

// Fig7 reproduces Figure 7: general-future variants race detected with
// MultiBags+.
func Fig7(opts Options) (*Table, []Measurement, error) {
	return figure(opts, "fig7",
		"Figure 7: general futures + MultiBags+ (cf. paper Fig. 7)",
		futurerd.ModeMultiBagsPlus,
		func(b workloads.Benchmark) func() workloads.Instance { return b.General })
}

// FigReplay measures trace-replay throughput over the committed trace
// corpus (one trace per paper workload, recorded at test size): each
// trace is decoded and driven through full MultiBags+ detection with
// opts.Consumers. Wall time is machine-dependent; the replay's execution
// counters are deterministic for a given corpus and code version, which
// is what the benchtrend gate keys on — a drift means the decoder or the
// detection pipeline changed behavior.
func FigReplay(opts Options, dir string) (*Table, []Measurement, error) {
	opts.defaults()
	t := &Table{
		Title:  "Replay: committed trace corpus through full MultiBags+ detection",
		Header: []string{"bench", "bytes", "events", "words", "seconds", "Mwords/s"},
	}
	var ms []Measurement
	for _, b := range workloads.All(workloads.SizeTest) {
		path := filepath.Join(dir, b.Name+".trace")
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf(
				"replay corpus: %w (regenerate with: go run ./cmd/futurerd-trace record -bench %s -size test -o %s)",
				err, b.Name, path)
		}
		st, err := trace.Stat(bytes.NewReader(raw))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		cfg := futurerd.Config{
			Mode: futurerd.ModeMultiBagsPlus, Mem: futurerd.MemFull,
			Consumers: opts.Consumers,
		}
		best := time.Duration(math.MaxInt64)
		var rep *futurerd.Report
		for i := 0; i < opts.Iters; i++ {
			start := time.Now()
			r, err := futurerd.ReplayTraceBytes(raw, cfg)
			d := time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", path, err)
			}
			if r.Err != nil {
				return nil, nil, fmt.Errorf("%s: %w", path, r.Err)
			}
			if r.Racy() {
				return nil, nil, fmt.Errorf("%s: unexpected races: %v", path, r.Races[0])
			}
			if d < best {
				best, rep = d, r
			}
		}
		words := rep.Stats.Shadow.Reads + rep.Stats.Shadow.Writes
		t.Rows = append(t.Rows, []string{
			b.Name,
			fmt.Sprintf("%d", len(raw)),
			fmt.Sprintf("%d", st.Events),
			fmt.Sprintf("%d", words),
			secs(best),
			fmt.Sprintf("%.2f", float64(words)/1e6/best.Seconds()),
		})
		ms = append(ms, Measurement{
			Figure: "replay", Bench: b.Name, Config: "replay",
			Seconds: best.Seconds(), Stats: &rep.Stats,
		})
	}
	t.Notes = append(t.Notes,
		"corpus: traces/<bench>.trace, format v3, test size, structured variants;",
		"counters are deterministic per corpus+code version and gated by futurerd-benchtrend")
	return t, ms, nil
}

// Fig8 reproduces Figure 8: reachability-only overhead of MultiBags vs
// MultiBags+ on structured programs while the base case shrinks (the
// future count k grows), showing MultiBags+'s k² term and R memory bite
// for lcs and mm but not sw.
func Fig8(opts Options) (*Table, []Measurement, error) {
	opts.defaults()
	type row struct {
		name string
		mk   func() workloads.Instance
	}
	lcsN, swN, mmN := 1024, 160, 128
	if opts.Size == workloads.SizeTest || opts.Size == workloads.SizeQuick {
		lcsN, swN, mmN = 256, 64, 64
	}
	rows := []row{
		{"lcs (B=64)", func() workloads.Instance {
			return workloads.NewLCS(lcsN, 64, workloads.StructuredFutures, 1)
		}},
		{"lcs (B=32)", func() workloads.Instance {
			return workloads.NewLCS(lcsN, 32, workloads.StructuredFutures, 1)
		}},
		{"lcs (B=16)", func() workloads.Instance {
			return workloads.NewLCS(lcsN, 16, workloads.StructuredFutures, 1)
		}},
		{"lcs (B=8)", func() workloads.Instance {
			return workloads.NewLCS(lcsN, 8, workloads.StructuredFutures, 1)
		}},
		{"sw  (B=8)", func() workloads.Instance {
			return workloads.NewSW(swN, 8, workloads.StructuredFutures, 2)
		}},
		{"mm  (B=8)", func() workloads.Instance {
			return workloads.NewMM(mmN, 8, workloads.StructuredFutures, 3)
		}},
	}
	t := &Table{
		Title:  "Figure 8: reachability-only, MultiBags vs MultiBags+ on structured programs (cf. paper Fig. 8)",
		Header: []string{"bench", "baseline", "multibags", "", "multibags+", "", "k (gets)", "R nodes"},
	}
	var ms []Measurement
	for _, r := range rows {
		ins := r.mk()
		base, _ := measure(opts, ins, futurerd.ModeNone, futurerd.MemOff)
		mb, rep := measure(opts, ins, futurerd.ModeMultiBags, futurerd.MemOff)
		if rep != nil && rep.Err != nil {
			return nil, nil, fmt.Errorf("%s: %v", ins.Name(), rep.Err)
		}
		mbp, repP := measure(opts, ins, futurerd.ModeMultiBagsPlus, futurerd.MemOff)
		if repP != nil && repP.Err != nil {
			return nil, nil, fmt.Errorf("%s: %v", ins.Name(), repP.Err)
		}
		t.Rows = append(t.Rows, []string{
			r.name, secs(base),
			secs(mb), ratio(mb, base),
			secs(mbp), ratio(mbp, base),
			fmt.Sprintf("%d", repP.Stats.Gets),
			fmt.Sprintf("%d", repP.Stats.Reach.AttachedSets),
		})
		ms = append(ms,
			Measurement{Figure: "fig8", Bench: r.name, Config: "baseline", Seconds: base.Seconds()},
			Measurement{Figure: "fig8", Bench: r.name, Config: "multibags",
				Seconds: mb.Seconds(), Overhead: float64(mb) / float64(base), Stats: &rep.Stats},
			Measurement{Figure: "fig8", Bench: r.name, Config: "multibags+",
				Seconds: mbp.Seconds(), Overhead: float64(mbp) / float64(base), Stats: &repP.Stats})
	}
	t.Notes = append(t.Notes,
		"smaller base case => more futures => the k^2 term and R's transitive closure grow;",
		"lcs blows up, sw is insulated by its Theta(n^3) work, matching the paper's Figure 8")
	return t, ms, nil
}
