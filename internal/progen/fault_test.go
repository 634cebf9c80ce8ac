package progen

import (
	"errors"
	"testing"
	"time"

	"futurerd/internal/detect"
	"futurerd/internal/faultinject"
)

// The differential fault matrix: every injected fault class, driven
// through generated programs under both pipelines, must leave the
// run fail-closed — either the report is identical to the serial
// reference (the fault never fired, or was absorbed without touching
// detection state), or Report.Err is one structured PipelineError — and
// in both cases every pipeline goroutine is joined (the leak check
// covers the whole test).

// faultStall is how long an injected stall sleeps; faultTimeout is the
// watchdog arm. The stall must comfortably exceed the timeout so a stall
// is detected, while staying short enough that the matrix finishes.
const (
	faultStall   = 200 * time.Millisecond
	faultTimeout = 40 * time.Millisecond
)

// faultOne runs one (fault, mode, consumers) cell against the
// serial no-fault reference for the same program.
func faultOne(t *testing.T, seed uint64, pt faultinject.Point, mode detect.Mode, consumers int) {
	t.Helper()
	// Pair each algorithm with the dialect it is sound for, as the
	// equivalence fuzzers do.
	opts := Options{Dialect: General, MaxStmts: 60, PageSpread: true}
	switch mode {
	case detect.ModeSPBags:
		opts.Dialect = PureSP
	case detect.ModeMultiBags:
		opts.Dialect = Structured
	}
	p := Generate(seed, opts)
	serial := detect.NewEngine(detect.Config{
		Mode: mode, Mem: detect.MemFull, MaxRaces: 1 << 20,
	}).Run(p.Run)
	if serial.Err != nil {
		t.Fatalf("seed %d: serial reference failed: %v\n%s", seed, serial.Err, p)
	}

	plan := faultinject.Single(pt, 2)
	plan.Stall = faultStall
	rep := detect.NewTunedEngine(detect.Config{
		Mode: mode, Mem: detect.MemFull, MaxRaces: 1 << 20,
		Consumers:    consumers,
		StallTimeout: faultTimeout,
	}, detect.Tuning{Faults: plan}).Run(p.Run)

	if rep.Err != nil {
		var pe *detect.PipelineError
		if !errors.As(rep.Err, &pe) {
			t.Fatalf("seed %d [%v c=%d]: error is not a PipelineError: %v\n%s",
				seed, pt, consumers, rep.Err, p)
		}
		if pe.Stage == "" {
			t.Fatalf("seed %d [%v]: PipelineError without a stage: %v", seed, pt, pe)
		}
		return
	}
	// No failure surfaced: the fault never fired, or fired without
	// touching detection state (a stall the watchdog did not catch).
	// Verdicts must be the serial ones.
	if len(serial.Races) != len(rep.Races) || serial.Stats.RaceCount != rep.Stats.RaceCount {
		t.Fatalf("seed %d [%v c=%d]: %d races (%d obs) vs serial %d (%d)\n%s",
			seed, pt, consumers, len(rep.Races), rep.Stats.RaceCount,
			len(serial.Races), serial.Stats.RaceCount, p)
	}
	for i := range serial.Races {
		if serial.Races[i] != rep.Races[i] {
			t.Fatalf("seed %d [%v c=%d]: race %d differs: %v vs %v\n%s",
				seed, pt, consumers, i, serial.Races[i], rep.Races[i], p)
		}
	}
	ss, rs := serial.Stats.Shadow, rep.Stats.Shadow
	if ss.Reads != rs.Reads || ss.Writes != rs.Writes ||
		ss.OwnedSkips != rs.OwnedSkips || ss.ReadSharedSkips != rs.ReadSharedSkips ||
		ss.ReaderAppends != rs.ReaderAppends || ss.ReaderFlushes != rs.ReaderFlushes {
		t.Fatalf("seed %d [%v c=%d]: shadow counters diverge\nserial %+v\ngot    %+v\n%s",
			seed, pt, consumers, ss, rs, p)
	}
}

func TestFaultMatrixFailsClosed(t *testing.T) {
	faultinject.GoroutineLeakCheck(t)
	modes := []detect.Mode{detect.ModeSPBags, detect.ModeMultiBags, detect.ModeMultiBagsPlus}
	for _, pt := range faultinject.Points() {
		for _, mode := range modes {
			for _, consumers := range []int{0, 1} {
				faultOne(t, 11, pt, mode, consumers)
			}
		}
	}
}

// TestWatchdogDiagnosesStall pins the watchdog specifically: a consumer
// stalled far past Config.StallTimeout must fail the run with the
// watchdog's structured error, stage and progress filled in, rather than
// blocking Run for the stall's duration times the batch count.
func TestWatchdogDiagnosesStall(t *testing.T) {
	faultinject.GoroutineLeakCheck(t)
	p := Generate(7, Options{Dialect: General, MaxStmts: 60, PageSpread: true})
	plan := faultinject.Single(faultinject.ConsumerStall, 1)
	plan.Stall = faultStall
	rep := detect.NewTunedEngine(detect.Config{
		Mode: detect.ModeMultiBagsPlus, Mem: detect.MemFull,
		Consumers:    1,
		StallTimeout: faultTimeout,
	}, detect.Tuning{Faults: plan}).Run(p.Run)
	if rep.Err == nil {
		t.Fatal("stalled run reported no error")
	}
	var pe *detect.PipelineError
	if !errors.As(rep.Err, &pe) {
		t.Fatalf("error is not a PipelineError: %v", rep.Err)
	}
	if pe.Stage != "watchdog" || !errors.Is(pe, detect.ErrStalled) {
		t.Fatalf("want a watchdog ErrStalled failure, got stage %q: %v", pe.Stage, pe)
	}
	if pe.Progress.Sealed == 0 || pe.Progress.Sealed == pe.Progress.Checked {
		t.Fatalf("watchdog progress does not describe outstanding work: %+v", pe.Progress)
	}
}

// FuzzFailClosed drives the fail-closed invariant from arbitrary seeds:
// the seed picks the program, the fault plan (point and occurrence via
// faultinject.NewPlan), and the pipeline shape. Any outcome other than
// serial-identical verdicts or one structured PipelineError — a hang, a
// raw panic, a leaked goroutine — fails.
func FuzzFailClosed(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(11))
	f.Add(uint64(42))
	f.Add(uint64(1 << 33))
	f.Fuzz(func(t *testing.T, seed uint64) {
		faultinject.GoroutineLeakCheck(t)
		consumers := int(seed >> 16 % 2) // 0 inline, 1 async
		plan := faultinject.NewPlan(seed)
		plan.Stall = faultStall
		p := Generate(seed, Options{Dialect: General, MaxStmts: 60, PageSpread: true})
		serial := detect.NewEngine(detect.Config{
			Mode: detect.ModeMultiBagsPlus, Mem: detect.MemFull, MaxRaces: 1 << 20,
		}).Run(p.Run)
		if serial.Err != nil {
			t.Fatalf("seed %d: serial reference failed: %v", seed, serial.Err)
		}
		rep := detect.NewTunedEngine(detect.Config{
			Mode: detect.ModeMultiBagsPlus, Mem: detect.MemFull, MaxRaces: 1 << 20,
			Consumers:    consumers,
			StallTimeout: faultTimeout,
		}, detect.Tuning{Faults: plan}).Run(p.Run)
		if rep.Err != nil {
			var pe *detect.PipelineError
			if !errors.As(rep.Err, &pe) {
				t.Fatalf("seed %d: error is not a PipelineError: %v", seed, rep.Err)
			}
			return
		}
		if len(serial.Races) != len(rep.Races) || serial.Stats.RaceCount != rep.Stats.RaceCount {
			t.Fatalf("seed %d: %d races (%d obs) vs serial %d (%d)",
				seed, len(rep.Races), rep.Stats.RaceCount,
				len(serial.Races), serial.Stats.RaceCount)
		}
		for i := range serial.Races {
			if serial.Races[i] != rep.Races[i] {
				t.Fatalf("seed %d: race %d differs: %v vs %v",
					seed, i, serial.Races[i], rep.Races[i])
			}
		}
	})
}
