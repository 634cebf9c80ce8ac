package main

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"futurerd"
	"futurerd/internal/workloads"
)

// workload is one benchmark input: a workloads constructor at a fixed
// size, the detection algorithm it runs under, and whether it is detected
// directly or offline, from a trace recorded during setup. doc.go records
// why each was chosen.
type workload struct {
	name   string
	ctor   string // the constructor's name, for setup spans
	mode   futurerd.Mode
	replay bool
	// build constructs the instance from seed. tiny selects the size the
	// spec test runs; armed turns on the instance's injected race.
	build func(seed uint64, tiny, armed bool) workloads.Instance
}

var allWorkloads = []workload{
	{
		name: "pagerank-mb", ctor: "workloads.NewPageRank", mode: futurerd.ModeMultiBags,
		build: func(seed uint64, tiny, armed bool) workloads.Instance {
			n, b := 1024, 64
			if tiny {
				n, b = 256, 64
			}
			p := workloads.NewPageRank(n, b, 8, 6, workloads.StructuredFutures, seed)
			p.InjectRace = armed
			return p
		},
	},
	{
		name: "lcs-mbplus", ctor: "workloads.NewLCS", mode: futurerd.ModeMultiBagsPlus,
		build: func(seed uint64, tiny, armed bool) workloads.Instance {
			n := 768
			if tiny {
				n = 64
			}
			l := workloads.NewLCS(n, 8, workloads.GeneralFutures, seed)
			l.InjectRace = armed
			return l
		},
	},
	{
		name: "bst-mb", ctor: "workloads.NewBST", mode: futurerd.ModeMultiBags,
		build: func(seed uint64, tiny, armed bool) workloads.Instance {
			n1, n2, depth := 80000, 40000, 11
			if tiny {
				n1, n2, depth = 400, 200, 4
			}
			b := workloads.NewBST(n1, n2, workloads.StructuredFutures, seed)
			b.FutDepth = depth
			b.InjectRace = armed
			return b
		},
	},
	{
		name: "mm-replay", ctor: "workloads.NewMM", mode: futurerd.ModeMultiBagsPlus, replay: true,
		build: func(seed uint64, tiny, armed bool) workloads.Instance {
			n := 128
			if tiny {
				n = 32
			}
			m := workloads.NewMM(n, 16, workloads.GeneralFutures, seed)
			m.InjectRace = armed
			return m
		},
	},
}

func lookup(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one of the paper's cumulative configurations (§6), plus full
// detection with a two-consumer pipeline.
type config struct {
	name      string
	detect    bool // false: the uninstrumented baseline
	mem       futurerd.MemLevel
	consumers int
}

var (
	cfgBaseline = config{name: "baseline"}
	cfgReach    = config{name: "reach", detect: true, mem: futurerd.MemOff}
	cfgInstr    = config{name: "instr", detect: true, mem: futurerd.MemInstr}
	cfgFull     = config{name: "full", detect: true, mem: futurerd.MemFull}
	cfgFullC2   = config{name: "full_c2", detect: true, mem: futurerd.MemFull, consumers: 2}
)

// options fixes how a pass measures. The command sets seed and the time
// budget; tiny and armed exist for the spec test.
type options struct {
	seed      uint64
	budget    time.Duration // how long the timed rounds run
	minSample time.Duration // shortest timed sample; faster runs repeat
	chunk     time.Duration // shortest baseline chunk between end-to-end samples
	tiny      bool          // test-size inputs
	armed     bool          // inject the race into the measured instance
}

// setups is how many times setup is repeated; setup_s is their median.
// The count is fixed, not timed, because every construction draws
// instrumented addresses from a process-wide allocator: the measured
// instance's addresses, and so its page-level counters, depend on it.
const setups = 9

// subject is one workload being measured: the instance every
// configuration runs, its trace (replay workloads), and the counters
// every full run must repeat.
type subject struct {
	w     workload
	o     options
	ins   workloads.Instance
	trace []byte
	ref   futurerd.Stats // deterministic counters of the reference full run
	tr    *tracer        // nil outside the traced phase
	runs  int            // run ids for spans
}

// exec runs the instance once under c and returns the report, nil for the
// baseline. The baseline always runs the program directly, also for a
// replay workload: slowdowns are over the program's own run time, so a
// faster trace decoder lowers them.
func (s *subject) exec(c config, parent int) *futurerd.Report {
	s.runs++
	if !c.detect {
		s.call("futurerd.RunSeq", c.name, parent, func() { futurerd.RunSeq(s.ins.Run) })
		return nil
	}
	cfg := futurerd.Config{Mode: s.w.mode, Mem: c.mem, Consumers: c.consumers}
	var rep *futurerd.Report
	if s.w.replay {
		s.call("futurerd.ReplayTraceBytes", c.name, parent, func() {
			var err error
			if rep, err = futurerd.ReplayTraceBytes(s.trace, cfg); err != nil {
				rep = &futurerd.Report{Err: err}
			}
		})
	} else {
		s.call("futurerd.Detect", c.name, parent, func() { rep = futurerd.Detect(cfg, s.ins.Run) })
	}
	return rep
}

// check is the correctness gate for one run of a race-free instance: no
// error, no race, a valid output if the run executed the program, and, for
// full detection, the reference run's deterministic counters.
func (s *subject) check(c config, rep *futurerd.Report, ranProgram bool, parent int) error {
	if rep != nil {
		if rep.Err != nil {
			return rep.Err
		}
		if rep.Racy() {
			return fmt.Errorf("race reported on a race-free input: %v", rep.Races[0])
		}
		if c.mem == futurerd.MemFull && c.detect {
			if got := deterministic(rep.Stats); !reflect.DeepEqual(got, s.ref) {
				return fmt.Errorf("counters differ from the reference full run:\n got  %+v\n want %+v", got, s.ref)
			}
		}
	}
	if !ranProgram {
		return nil
	}
	return s.validate(c.name, parent)
}

func (s *subject) validate(config string, parent int) error {
	var err error
	s.call("Validate", config, parent, func() { err = s.ins.Validate() })
	return err
}

// deterministic returns st without the counters that depend on scheduling
// or on the consumer pool's page-cache locality.
func deterministic(st futurerd.Stats) futurerd.Stats {
	st.Shadow.ParRanges, st.Shadow.ParChunks, st.Shadow.PageCacheHits = 0, 0, 0
	st.Event.StolenChunks, st.Event.OverlappedWindows = 0, 0
	return st
}

// setup builds the measured instance setups times (recording its trace
// for a replay workload) and returns the median build time. Then, untimed,
// it runs the reference full detection whose counters every later full run
// must repeat, and the armed instance, which must race. Both count as
// attempted runs.
func setup(w workload, o options, tr *tracer, g *gate) (*subject, value, error) {
	s := &subject{w: w, o: o, tr: tr}
	times := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		runtime.GC()
		start := time.Now()
		root := s.begin("setup", "setup", 0)
		err := s.build(o.armed, "setup", root)
		s.end(root)
		if err != nil {
			return nil, value{}, fmt.Errorf("%s: record: %w", w.name, err)
		}
		times = append(times, time.Since(start).Seconds())
	}

	// The reference is always a direct run, so for a replay workload
	// every full replay is checked against direct detection of the same
	// instance.
	var ref *futurerd.Report
	s.call("futurerd.Detect", "setup", 0, func() {
		ref = futurerd.Detect(futurerd.Config{Mode: w.mode, Mem: futurerd.MemFull}, s.ins.Run)
	})
	s.ref = deterministic(ref.Stats)
	g.record("reference full run", s.check(cfgFull, ref, true, 0))

	g.record("armed instance", s.armedRaces())
	return s, value{median(times), len(times)}, nil
}

// build constructs the instance and, for a replay workload, records its
// trace.
func (s *subject) build(armed bool, config string, parent int) error {
	s.call(s.w.ctor, config, parent, func() { s.ins = s.w.build(s.o.seed, s.o.tiny, armed) })
	if !s.w.replay {
		return nil
	}
	var err error
	s.call("futurerd.RecordTraceBytes", config, parent, func() { s.trace, err = futurerd.RecordTraceBytes(s.ins.Run) })
	return err
}

// armedRaces runs the workload's race-injected twin under full detection,
// through the path the measured runs take; it must report a race.
func (s *subject) armedRaces() error {
	twin := &subject{w: s.w, o: s.o, tr: s.tr, runs: s.runs}
	if err := twin.build(true, "armed", 0); err != nil {
		return err
	}
	rep := twin.exec(config{name: "armed", detect: true, mem: futurerd.MemFull}, 0)
	s.runs = twin.runs
	if rep.Err != nil {
		return rep.Err
	}
	if !rep.Racy() {
		return errors.New("the injected race was not reported")
	}
	return nil
}
