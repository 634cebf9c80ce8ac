package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"futurerd"
	"futurerd/internal/shadow"
	"futurerd/internal/trace"
)

// span is one call into a layer's public function, as the traced pass
// records it. Spans stay in memory until the pass writes spans.json.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Run     int    `json:"run"`    // shared by the calls of one run
	Name    string `json:"name"`
	Config  string `json:"config"`
	StartNS int64  `json:"start_ns"` // since the pass started
	EndNS   int64  `json:"end_ns"`
}

type tracer struct {
	start time.Time
	spans []span
}

func (s *subject) begin(name, config string, parent int) int {
	if s.tr == nil {
		return 0
	}
	id := len(s.tr.spans) + 1
	s.tr.spans = append(s.tr.spans, span{
		ID: id, Parent: parent, Run: s.runs, Name: name, Config: config,
		StartNS: time.Since(s.tr.start).Nanoseconds(),
	})
	return id
}

func (s *subject) end(id int) {
	if s.tr != nil {
		s.tr.spans[id-1].EndNS = time.Since(s.tr.start).Nanoseconds()
	}
}

// call runs f, one call into a layer. In the traced phase the call is a
// span under parent and runs under the {workload, config} profiler labels,
// which the consumer goroutines Detect starts inherit.
func (s *subject) call(name, config string, parent int, f func()) {
	if s.tr == nil {
		f()
		return
	}
	id := s.begin(name, config, parent)
	pprof.Do(context.Background(), pprof.Labels("workload", s.w.name, "config", config),
		func(context.Context) { f() })
	s.end(id)
}

// traceStep is one timing of the trace layer on the measured instance.
type traceStep struct {
	record, decode float64 // seconds
	bytes, events  int64
}

// timeTrace records the instance into a v2 trace and decodes it with
// trace.Stat. It is checked like a run: both calls succeed and the
// recording run's output validates.
func (s *subject) timeTrace(g *gate) traceStep {
	runtime.GC()
	s.runs++
	parent := s.begin("trace-step", "trace", 0)
	var (
		st   traceStep
		raw  []byte
		info *trace.StatInfo
		err  error
	)
	start := time.Now()
	s.call("futurerd.RecordTraceBytes", "trace", parent, func() { raw, err = futurerd.RecordTraceBytes(s.ins.Run) })
	st.record = time.Since(start).Seconds()
	if err == nil {
		err = s.validate("trace", parent)
	}
	if err == nil {
		start = time.Now()
		s.call("trace.Stat", "trace", parent, func() { info, err = trace.Stat(bytes.NewReader(raw)) })
		st.decode = time.Since(start).Seconds()
	}
	if err == nil {
		st.bytes, st.events = info.Bytes, info.Events
	}
	s.end(parent)
	g.record(s.w.name+" trace step", err)
	return st
}

// tracedShare is the part of the budget the traced phase gets; the rest
// measures untraced full runs, the base of tracing_overhead.
const tracedShare = 0.75

// tracedPass measures the detector layer by layer. An untraced phase times
// full detection alone; the traced phase then runs all five configurations
// plus the trace layer under spans, profiler labels and the CPU profiler,
// with the block profiler on during two-consumer runs. It writes
// spans.json, cpu.pprof and block.pprof to dir.
func tracedPass(w workload, o options, dir string, log io.Writer) (*result, error) {
	g := &gate{log: log}
	tr := &tracer{start: time.Now()}
	s, _, err := setup(w, o, tr, g)
	if err != nil {
		return nil, err
	}

	s.tr = nil
	ladder := []config{cfgBaseline, cfgReach, cfgInstr, cfgFull, cfgFullC2}
	if err := s.warmUp(ladder, g); err != nil {
		return nil, err
	}
	tracedBudget := time.Duration(float64(o.budget) * tracedShare)
	plain, err := s.rounds([]config{cfgFull}, g, o.budget-tracedBudget, nil)
	if err != nil {
		return nil, err
	}

	s.tr = tr
	var cpuProf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuProf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	var steps []traceStep
	smp, err := s.rounds(ladder, g, tracedBudget, func() { steps = append(steps, s.timeTrace(g)) })
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	var blockProf bytes.Buffer
	if err := pprof.Lookup("block").WriteTo(&blockProf, 0); err != nil {
		return nil, fmt.Errorf("write block profile: %w", err)
	}
	if err := writeArtifacts(dir, w.name, tr.spans, cpuProf.Bytes(), blockProf.Bytes()); err != nil {
		return nil, err
	}
	cpu, err := parseProfile(cpuProf.Bytes(), "cpu")
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	block, err := parseProfile(blockProf.Bytes(), "delay")
	if err != nil {
		return nil, fmt.Errorf("block profile: %w", err)
	}

	m := map[string]value{}
	med := func(cfg string) float64 { return median(secs(smp[cfg])) }
	nFull, nC2 := len(smp["full"]), len(smp["full_c2"])
	base, reach, instr, full, c2 := med("baseline"), med("reach"), med("instr"), med("full"), med("full_c2")
	m["ladder.baseline_s"] = value{base, len(smp["baseline"])}
	m["ladder.reach_s"] = value{reach, len(smp["reach"])}
	m["ladder.instr_s"] = value{instr, len(smp["instr"])}
	m["ladder.full_s"] = value{full, nFull}
	m["ladder.full_c2_s"] = value{c2, nC2}
	m["core.maint_s"] = value{reach - base, len(smp["reach"])}
	m["detect.hooks_s"] = value{instr - reach, len(smp["instr"])}
	m["shadow.check_s"] = value{full - instr, nFull}
	m["detect.c2_speedup"] = value{full / c2, nC2}
	m["tracing_overhead"] = value{full/median(secs(plain["full"])) - 1, nFull}

	// Self time per full run. Background GC mark workers run unlabeled,
	// so their CPU, which runtime/metrics charges to each run, is added to
	// the runtime layer.
	fullRuns := runs(smp["full"])
	self := cpu.byLayer("config")
	perRun := func(ns int64, n int) float64 { return float64(ns) / 1e9 / float64(n) }
	var selfSum float64
	for _, layer := range layers {
		v := perRun(self["full"][layer], fullRuns)
		if layer == "runtime" {
			v += meanPerRun(smp["full"], func(u usage) float64 { return u.gcBg })
		}
		selfSum += v
		m["cpu."+layer+"_s"] = value{v, fullRuns}
	}
	if !w.replay {
		// A direct run never enters the trace package; the trace layer's
		// self time is taken from the trace steps instead.
		m["cpu.trace_s"] = value{perRun(self["trace"]["trace"], len(steps)), len(steps)}
	}
	cpuPerRun := meanPerRun(smp["full"], func(u usage) float64 { return u.cpu })
	fmt.Fprintf(log, "cpu check: self times sum to %.4f s per full run, getrusage reads %.4f s (%+.1f%%)\n",
		selfSum, cpuPerRun, 100*(selfSum/cpuPerRun-1))

	waitNS := block.total(func(stack []string) bool {
		return slices.ContainsFunc(stack, func(fn string) bool { return pkgOf(fn) == "futurerd/internal/detect" })
	})
	m["detect.wait_s"] = value{perRun(waitNS, runs(smp["full_c2"])), nC2}
	m["runtime.gc_cpu_s"] = value{median(field(smp["full"], func(s sample) float64 { return s.use.gcCPU })), nFull}
	m["runtime.gc_cycles"] = value{median(field(smp["full"], func(s sample) float64 { return s.use.gcCycles })), nFull}

	counters(m, s.ref)
	stolen := field(smp["full_c2"], func(s sample) float64 { return float64(s.last.Stats.Event.StolenChunks) })
	overlapped := field(smp["full_c2"], func(s sample) float64 { return float64(s.last.Stats.Event.OverlappedWindows) })
	m["detect.stolen_chunks"] = value{median(stolen), nC2}
	m["detect.overlapped_windows"] = value{median(overlapped), nC2}

	var rec, dec []float64
	for _, st := range steps {
		rec, dec = append(rec, st.record), append(dec, st.decode)
	}
	m["trace.record_s"] = value{median(rec), len(steps)}
	m["trace.decode_s"] = value{median(dec), len(steps)}
	m["trace.bytes"] = value{float64(steps[0].bytes), len(steps)}
	m["trace.events"] = value{float64(steps[0].events), len(steps)}
	return &result{g.attempted, g.failed, m}, nil
}

// counters reports the reference full run's deterministic counters.
func counters(m map[string]value, st futurerd.Stats) {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	sh, ev, re := st.Shadow, st.Event, st.Reach
	accesses := sh.Reads + sh.Writes
	footprint := sh.TouchedPages*(1<<shadow.PageBits)*shadow.WordBytes + sh.SpillEntries*4 // spill entries are 4-byte strand ids
	for name, v := range map[string]float64{
		"detect.strands":        float64(st.Strands),
		"detect.constructs":     float64(st.Spawns + st.Creates + st.Gets + st.Syncs),
		"event.batches":         float64(ev.Batches),
		"event.indep_ratio":     ratio(ev.IndependentBatches, ev.Batches),
		"event.footprint_pages": float64(ev.FootprintPages),
		"core.queries":          float64(re.Queries),
		"core.finds":            float64(re.Finds),
		"core.unions":           float64(re.Unions),
		"core.rclose_words":     float64(re.RCloseWords),
		"core.attached_sets":    float64(re.AttachedSets),
		"shadow.accesses":       float64(accesses),
		"shadow.skip_ratio":     ratio(sh.OwnedSkips+sh.ReadSharedSkips, accesses),
		"shadow.epoch_hits":     float64(sh.EpochHits),
		"shadow.memo_hits":      float64(sh.MemoHits),
		"shadow.reader_appends": float64(sh.ReaderAppends),
		"shadow.spill_entries":  float64(sh.SpillEntries),
		"shadow.footprint_mb":   float64(footprint) / (1 << 20),
	} {
		m[name] = value{v, 1}
	}
}

// writeArtifacts writes the traced pass's spans and profiles to dir.
func writeArtifacts(dir, workload string, spans []span, cpu, block []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans}, "", " ")
	if err != nil {
		return err
	}
	for name, data := range map[string][]byte{"spans.json": doc, "cpu.pprof": cpu, "block.pprof": block} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
