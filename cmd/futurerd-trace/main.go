// Command futurerd-trace works with detection runs and their event
// traces, in four subcommands:
//
//	futurerd-trace run    -bench lcs [-variant structured|general]
//	                      [-mode multibags|multibags+|spbags|oracle]
//	                      [-size test|quick|bench] [-mem off|instr|full]
//	                      [-consumers n] [-dot]
//	futurerd-trace record -bench lcs [-variant ...] [-size ...] -o trace.bin
//	futurerd-trace replay -i trace.bin [-mode ...] [-mem ...]
//	                      [-consumers n] [-recover]
//	futurerd-trace stat   -i trace.bin
//
// run executes one benchmark under a chosen detection algorithm and
// prints the execution's structural statistics: strands, function
// instances, parallel constructs, reachability data-structure traffic
// and access-history traffic. With -dot it additionally emits the full
// computation dag in Graphviz format (oracle mode only).
//
// record executes a benchmark once without detection and writes its
// event trace (format v3). replay re-detects a recorded trace — any
// algorithm, either pipeline — and prints the same statistics as run;
// -consumers n (n >= 1) checks on the async consumer. A corrupt
// trace fails with a one-line diagnosis and a non-zero exit; -recover
// instead replays the longest well-formed prefix and reports where and
// why the stream was cut. stat summarizes a trace: size, event counts,
// bytes per event, the inflated size and each encoding class's events.
//
// Invoking futurerd-trace with flags and no subcommand behaves as run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"futurerd"
	"futurerd/internal/trace"
	"futurerd/internal/workloads"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func parseSize(fs *flag.FlagSet) *string {
	return fs.String("size", "quick", "input scale: test, quick, bench")
}

func sizeClass(s string) workloads.SizeClass {
	sz, ok := map[string]workloads.SizeClass{
		"test": workloads.SizeTest, "quick": workloads.SizeQuick, "bench": workloads.SizeBench,
	}[s]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -size %q\n", s)
		os.Exit(2)
	}
	return sz
}

func parseMode(s string) futurerd.Mode {
	switch s {
	case "multibags":
		return futurerd.ModeMultiBags
	case "multibags+":
		return futurerd.ModeMultiBagsPlus
	case "spbags":
		return futurerd.ModeSPBags
	case "oracle":
		return futurerd.ModeOracle
	}
	fmt.Fprintf(os.Stderr, "unknown -mode %q\n", s)
	os.Exit(2)
	return 0
}

func parseMem(s string) futurerd.MemLevel {
	switch s {
	case "off":
		return futurerd.MemOff
	case "instr":
		return futurerd.MemInstr
	case "full":
		return futurerd.MemFull
	}
	fmt.Fprintf(os.Stderr, "unknown -mem %q\n", s)
	os.Exit(2)
	return 0
}

// lookup resolves a benchmark/variant/size triple to an instance factory.
func lookup(bench, variant string, sz workloads.SizeClass) func() workloads.Instance {
	b, err := workloads.Lookup(bench, sz)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	mk := b.Structured
	if variant == "general" {
		if b.General == nil {
			fmt.Fprintf(os.Stderr, "%s has no general variant\n", b.Name)
			os.Exit(2)
		}
		mk = b.General
	}
	return mk
}

// benchUsage is the -bench flag's help, listing every known benchmark.
func benchUsage() string {
	var names []string
	for _, b := range workloads.All(workloads.SizeTest) {
		names = append(names, b.Name)
	}
	return "benchmark: " + strings.Join(names, ", ")
}

func printReport(rep *futurerd.Report, ml futurerd.MemLevel) {
	s := rep.Stats
	fmt.Printf("algorithm       %s (%s)\n", rep.Algorithm, ml)
	fmt.Printf("strands         %d\n", s.Strands)
	fmt.Printf("functions       %d\n", s.Functions)
	fmt.Printf("spawns          %d\n", s.Spawns)
	fmt.Printf("creates         %d\n", s.Creates)
	fmt.Printf("gets            %d\n", s.Gets)
	fmt.Printf("syncs           %d\n", s.Syncs)
	fmt.Printf("races           %d distinct addrs, %d reported\n", len(rep.Races), s.RaceCount)
	if s.TruncatedRaces > 0 {
		fmt.Printf("races truncated %d distinct addrs dropped (MaxRaces cap)\n", s.TruncatedRaces)
	}
	if s.DroppedPairs > 0 {
		fmt.Printf("pairs deduped   %d further racing strand pairs at reported addrs\n", s.DroppedPairs)
	}
	if s.TruncatedViolations > 0 {
		fmt.Printf("viol truncated  %d violations dropped (cap %d)\n",
			s.TruncatedViolations, futurerd.MaxViolations)
	}
	fmt.Printf("reach queries   %d\n", s.Reach.Queries)
	fmt.Printf("uf finds        %d\n", s.Reach.Finds)
	fmt.Printf("uf unions       %d\n", s.Reach.Unions)
	if s.Reach.AttachedSets > 0 {
		fmt.Printf("attached sets   %d\n", s.Reach.AttachedSets)
		fmt.Printf("R arcs          %d\n", s.Reach.RArcs)
		fmt.Printf("R closure       %d words (%.1f KiB: shared 512-bit chunks + row index)\n",
			s.Reach.RCloseWords, float64(s.Reach.RCloseWords)/128)
		fmt.Printf("sync cases      neither=%d both=%d mixed=%d\n",
			s.Reach.SyncNeither, s.Reach.SyncBoth, s.Reach.SyncMixed)
	}
	if ml != futurerd.MemOff {
		fmt.Printf("shadow reads    %d\n", s.Shadow.Reads)
		fmt.Printf("shadow writes   %d\n", s.Shadow.Writes)
		fmt.Printf("reader appends  %d\n", s.Shadow.ReaderAppends)
		fmt.Printf("reader flushes  %d\n", s.Shadow.ReaderFlushes)
		fmt.Printf("shadow pages    %d\n", s.Shadow.TouchedPages)
		fmt.Printf("page-cache hits %d\n", s.Shadow.PageCacheHits)
		fmt.Printf("owned skips     %d\n", s.Shadow.OwnedSkips)
		fmt.Printf("rd-shared skips %d\n", s.Shadow.ReadSharedSkips)
		fmt.Printf("memo hits       %d\n", s.Shadow.MemoHits)
		// The filter tiers in the order an access meets them.
		fmt.Printf("filter funnel   accesses %d > owned %d > rd-shared %d > memo %d > queries %d\n",
			s.Shadow.Reads+s.Shadow.Writes, s.Shadow.OwnedSkips, s.Shadow.ReadSharedSkips,
			s.Shadow.MemoHits, s.Reach.Queries)
		fmt.Printf("batches         %d sealed\n", s.Event.Batches)
	}
	for _, r := range rep.Races {
		fmt.Printf("  %s\n", r)
	}
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	benchName := fs.String("bench", "lcs", benchUsage())
	variant := fs.String("variant", "structured", "workload variant: structured, general")
	mode := fs.String("mode", "multibags+", "algorithm: multibags, multibags+, spbags, oracle")
	size := parseSize(fs)
	mem := fs.String("mem", "full", "memory level: off, instr, full")
	consumers := fs.Int("consumers", 0, "detection pipeline: 0 inline, >=1 async")
	dot := fs.Bool("dot", false, "dump the computation dag as Graphviz (oracle mode)")
	fs.Parse(args)

	mk := lookup(*benchName, *variant, sizeClass(*size))
	m, ml := parseMode(*mode), parseMem(*mem)
	w := mk()
	rep := futurerd.Detect(futurerd.Config{Mode: m, Mem: ml, Consumers: *consumers}, w.Run)
	if rep.Err != nil {
		fail(fmt.Errorf("engine error: %w", rep.Err))
	}
	if err := w.Validate(); err != nil {
		fail(fmt.Errorf("validation failed: %w", err))
	}
	fmt.Printf("workload        %s\n", w.Name())
	printReport(rep, ml)
	if *dot {
		if m != futurerd.ModeOracle {
			fmt.Fprintln(os.Stderr, "-dot requires -mode oracle")
			os.Exit(2)
		}
		dag, err := futurerd.DetectDAG(mk().Run)
		if err != nil {
			fail(err)
		}
		fmt.Println(dag)
	}
}

func cmdRecord(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	benchName := fs.String("bench", "lcs", benchUsage())
	variant := fs.String("variant", "structured", "workload variant: structured, general")
	size := parseSize(fs)
	out := fs.String("o", "", "output trace file (required)")
	fs.Parse(args)
	if *out == "" {
		fmt.Fprintln(os.Stderr, "record: -o is required")
		os.Exit(2)
	}
	mk := lookup(*benchName, *variant, sizeClass(*size))
	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	w := mk()
	if err := futurerd.RecordTrace(f, w.Run); err != nil {
		fail(fmt.Errorf("record failed: %w", err))
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	st, _ := os.Stat(*out)
	fmt.Printf("recorded %s (%s) to %s (%d bytes)\n", w.Name(), *variant, *out, st.Size())
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (required)")
	mode := fs.String("mode", "multibags+", "algorithm: multibags, multibags+, spbags, oracle")
	mem := fs.String("mem", "full", "memory level: off, instr, full")
	consumers := fs.Int("consumers", 0, "detection pipeline: 0 inline, >=1 async")
	recover := fs.Bool("recover", false,
		"replay the longest well-formed prefix of a damaged trace instead of failing")
	fs.Parse(args)
	if *in == "" {
		fmt.Fprintln(os.Stderr, "replay: -i is required")
		os.Exit(2)
	}
	m, ml := parseMode(*mode), parseMem(*mem)
	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	cfg := futurerd.Config{Mode: m, Mem: ml, Consumers: *consumers}
	var rep *futurerd.Report
	if *recover {
		rep, err = futurerd.ReplayTraceRecover(f, cfg, futurerd.TraceLimits{})
	} else {
		rep, err = futurerd.ReplayTrace(f, cfg)
	}
	if err != nil {
		// One line, one diagnosis, non-zero exit: a corrupt trace must be
		// unmistakable to scripts and CI.
		fail(fmt.Errorf("corrupt trace %s: %w (re-run with -recover to replay the intact prefix)", *in, err))
	}
	if rep.Err != nil {
		fail(fmt.Errorf("engine error: %w", rep.Err))
	}
	fmt.Printf("workload        trace %s\n", *in)
	if ts := rep.Stats.Trace; ts.Truncated {
		fmt.Printf("trace cut       after %d events: %s\n", ts.TruncatedAtEvent, ts.Reason)
	}
	printReport(rep, ml)
}

func cmdStat(args []string) {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (required)")
	fs.Parse(args)
	if *in == "" {
		fmt.Fprintln(os.Stderr, "stat: -i is required")
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	st, err := trace.Stat(f)
	if err != nil {
		fail(err)
	}
	fmt.Printf("bytes           %d\n", st.Bytes)
	fmt.Printf("events          %d\n", st.Events)
	fmt.Printf("  spawns        %d\n", st.Spawns)
	fmt.Printf("  creates       %d\n", st.Creates)
	fmt.Printf("  gets          %d\n", st.Gets)
	fmt.Printf("  syncs         %d\n", st.Syncs)
	fmt.Printf("  task ends     %d\n", st.TaskEnds)
	fmt.Printf("  labels        %d\n", st.Labels)
	fmt.Printf("  accesses      %d (%d words)\n", st.Accesses, st.Words)
	fmt.Printf("bytes/event     %.2f\n", st.BytesPerEvent())
	fmt.Printf("inflated        %d (%.2f bytes/event)\n", st.Inflated, float64(st.Inflated)/float64(max(st.Events, 1)))
	fmt.Printf("  small         %d\n", st.Small)
	fmt.Printf("  medium        %d\n", st.Medium)
	fmt.Printf("  cached        %d\n", st.Cached)
	fmt.Printf("  escape        %d\n", st.Escape)
	fmt.Printf("  structural    %d\n", st.Structural)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: futurerd-trace [run|record|replay|stat] [flags]")
	fmt.Fprintln(os.Stderr, "  run     detect a benchmark directly and print statistics (default)")
	fmt.Fprintln(os.Stderr, "  record  write a benchmark's event trace")
	fmt.Fprintln(os.Stderr, "  replay  re-detect a recorded trace (-consumers 1 for the async consumer)")
	fmt.Fprintln(os.Stderr, "  stat    summarize a trace: size, events, bytes/event")
	fmt.Fprintln(os.Stderr, "run 'futurerd-trace <subcommand> -h' for the subcommand's flags")
}

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "run":
		cmdRun(args)
	case "record":
		cmdRecord(args)
	case "replay":
		cmdReplay(args)
	case "stat":
		cmdStat(args)
	case "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n", cmd)
		usage()
		os.Exit(2)
	}
}
