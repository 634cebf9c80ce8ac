package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"syscall"
	"time"

	"futurerd"
)

// gate counts the pass's correctness checks: every run, the reference full
// run and the armed instance are one attempt each.
type gate struct {
	attempted, failed int
	log               io.Writer
}

// maxLoggedFailures bounds the failure lines printed: an armed measured
// instance fails every run.
const maxLoggedFailures = 10

func (g *gate) record(what string, err error) {
	g.attempted++
	if err == nil {
		return
	}
	g.failed++
	if g.failed <= maxLoggedFailures {
		fmt.Fprintf(g.log, "FAIL %s: %v\n", what, err)
	}
}

// usage is what the process spent, charged to the run it was read around.
type usage struct {
	alloc    float64 // bytes allocated on the heap
	gcCycles float64 // completed GC cycles
	gcCPU    float64 // GC CPU seconds (runtime/metrics estimate)
	gcBg     float64 // of gcCPU, the dedicated and idle mark workers'
	cpu      float64 // process user+system CPU seconds
}

var usageMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/gc/mark/dedicated:cpu-seconds"},
	{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"},
}

func readUsage() usage {
	metrics.Read(usageMetrics)
	num := func(i int) float64 {
		v := usageMetrics[i].Value
		if v.Kind() == metrics.KindUint64 {
			return float64(v.Uint64())
		}
		return v.Float64()
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{num(0), num(1), num(2), num(3) + num(4), cpu.Seconds()}
}

func (u usage) sub(v usage) usage {
	return usage{u.alloc - v.alloc, u.gcCycles - v.gcCycles, u.gcCPU - v.gcCPU, u.gcBg - v.gcBg, u.cpu - v.cpu}
}

func (u usage) add(v usage) usage {
	return usage{u.alloc + v.alloc, u.gcCycles + v.gcCycles, u.gcCPU + v.gcCPU, u.gcBg + v.gcBg, u.cpu + v.cpu}
}

func (u usage) div(n int) usage {
	f := float64(n)
	return usage{u.alloc / f, u.gcCycles / f, u.gcCPU / f, u.gcBg / f, u.cpu / f}
}

// sample is one timed measurement of a configuration, as means per run
// over back-to-back runs.
type sample struct {
	secs float64 // wall seconds per run
	runs int
	use  usage   // per run
	peak float64 // peak resident set, MB
	last *futurerd.Report
	base float64 // bracketed samples: baseline seconds per run around it
}

// sample measures c once. First, untimed, resetPeakRSS collects the
// previous configuration's garbage (up to 140 MB per full run) and returns
// the freed heap to the OS, so every sample starts from the same heap:
// after runtime.GC alone, a run following a large configuration reuses its
// retained pages and runs up to a quarter faster than one following the
// baseline. Runs then repeat back to back until their summed wall time
// reaches least, so with 20 ms a 0.6 ms baseline is timed as the mean of
// about thirty runs. Each run is checked, untimed.
func (s *subject) sample(c config, g *gate, least time.Duration) (sample, error) {
	var (
		sm    sample
		busy  time.Duration
		spent usage
	)
	if err := resetPeakRSS(); err != nil {
		return sm, err
	}
	parent := s.begin("sample", c.name, 0)
	blocking := s.tr != nil && c.consumers > 1
	for sm.runs == 0 || busy < least {
		if blocking {
			runtime.SetBlockProfileRate(1)
		}
		before := readUsage()
		start := time.Now()
		rep := s.exec(c, parent)
		busy += time.Since(start)
		spent = spent.add(readUsage().sub(before))
		if blocking {
			runtime.SetBlockProfileRate(0)
		}
		sm.runs++
		sm.last = rep
		g.record(s.w.name+" "+c.name+" run", s.check(c, rep, !(s.w.replay && c.detect), parent))
	}
	s.end(parent)
	sm.secs = busy.Seconds() / float64(sm.runs)
	sm.use = spent.div(sm.runs)
	var err error
	sm.peak, err = peakRSS()
	return sm, err
}

// warmUp runs one untimed sample of each configuration, so caches fill
// and lazy set-up finishes before timing. Its runs are checked.
func (s *subject) warmUp(cfgs []config, g *gate) error {
	for _, c := range cfgs {
		if _, err := s.sample(c, g, s.o.minSample); err != nil {
			return err
		}
	}
	return nil
}

// rounds runs timed rounds of cfgs until budget is spent, at least one.
// The loop is closed: each run starts when the previous one returns. The
// configuration order reverses every round, so no configuration always
// follows the same neighbour. each, if not nil, runs at the end of every
// round.
func (s *subject) rounds(cfgs []config, g *gate, budget time.Duration, each func()) (map[string][]sample, error) {
	out := make(map[string][]sample, len(cfgs))
	order := slices.Clone(cfgs)
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < budget; round++ {
		for _, c := range order {
			sm, err := s.sample(c, g, s.o.minSample)
			if err != nil {
				return nil, err
			}
			out[c.name] = append(out[c.name], sm)
		}
		if each != nil {
			each()
		}
		slices.Reverse(order)
	}
	return out, nil
}

// bracketed times single-run samples of the detection configurations cfgs,
// in turn, until budget is spent, at least one of each. A baseline chunk
// of at least o.chunk runs before the first sample and after every one,
// and each sample's base is the mean of the chunks on either side of it.
// The loop is closed, and every detection sample follows a baseline chunk,
// so all of them start from the same state.
func (s *subject) bracketed(cfgs []config, g *gate, budget time.Duration) (map[string][]sample, error) {
	out := make(map[string][]sample, len(cfgs))
	prev, err := s.sample(cfgBaseline, g, s.o.chunk)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; i < len(cfgs) || time.Since(start) < budget; i++ {
		c := cfgs[i%len(cfgs)]
		sm, err := s.sample(c, g, 0)
		if err != nil {
			return nil, err
		}
		next, err := s.sample(cfgBaseline, g, s.o.chunk)
		if err != nil {
			return nil, err
		}
		sm.base = (prev.secs + next.secs) / 2
		out[c.name] = append(out[c.name], sm)
		prev = next
	}
	return out, nil
}

// endToEndPass measures what a user of the detector sees, with tracing
// off: set-up, then full detection with the synchronous and the
// two-consumer pipeline, each run bracketed by uninstrumented baseline
// runs. The times are reported as the paper reports them, as slowdowns
// over the baseline. Machine speed on a shared host changes within a
// second and slows the baseline and detection unequally; a run's ratio to
// the baseline timed just before and after it cancels most of that. On
// pagerank at n=4096, between 6 s windows of one session, the median of
// these ratios spread 5%, and the ratio of medians of 100 ms samples taken
// in rounds, as the traced pass takes them, 12%.
func endToEndPass(w workload, o options, log io.Writer) (*result, error) {
	g := &gate{log: log}
	s, setupS, err := setup(w, o, nil, g)
	if err != nil {
		return nil, err
	}
	if err := s.warmUp([]config{cfgBaseline, cfgFull, cfgFullC2}, g); err != nil {
		return nil, err
	}
	smp, err := s.bracketed([]config{cfgFull, cfgFullC2}, g, o.budget)
	if err != nil {
		return nil, err
	}
	full, c2 := smp["full"], smp["full_c2"]
	slowdown := func(s sample) float64 { return s.secs / s.base }
	fmt.Fprintf(log, "medians per run: baseline %.6f s, full %.6f s, full_c2 %.6f s\n",
		median(field(full, func(s sample) float64 { return s.base })), median(secs(full)), median(secs(c2)))
	return &result{g.attempted, g.failed, map[string]value{
		"setup_s":     setupS,
		"slowdown":    {median(field(full, slowdown)), len(full)},
		"c2_slowdown": {median(field(c2, slowdown)), len(c2)},
		"alloc_mb":    {median(field(full, func(s sample) float64 { return s.use.alloc / (1 << 20) })), len(full)},
		"peak_rss_mb": {median(field(full, func(s sample) float64 { return s.peak })), len(full)},
	}}, nil
}

func secs(ss []sample) []float64 { return field(ss, func(s sample) float64 { return s.secs }) }

func field(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// meanPerRun is the mean of f over every run of the samples.
func meanPerRun(ss []sample, f func(usage) float64) float64 {
	var sum float64
	for _, s := range ss {
		sum += f(s.use) * float64(s.runs)
	}
	return sum / float64(runs(ss))
}

func runs(ss []sample) int {
	n := 0
	for _, s := range ss {
		n += s.runs
	}
	return n
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// resetPeakRSS collects garbage, returns the freed heap to the OS and
// resets the kernel's high-water mark of the resident set (VmHWM) to the
// current size. It collects twice: sync.Pool objects survive one
// collection, and after a single one a sample that followed a two-consumer
// run started with about 5 MB more resident than one that followed the
// baseline, which split pagerank-mb's peak_rss_mb into two clusters.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS reads VmHWM, in MB: the peak since the last resetPeakRSS.
func peakRSS() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte(" kB"))), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
