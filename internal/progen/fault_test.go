package progen

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"futurerd/internal/detect"
	"futurerd/internal/faultinject"
)

// The differential fault matrix: every injected fault class, driven
// through generated programs under both pipelines, must leave the run
// fail-closed. A panicking fault point (ConsumerPanic, PageFail) ends the
// run with one structured PipelineError caused by the injected panic, or,
// if it never fired, leaves the report identical to the serial reference.
// A stall is not a failure: the run waits for the slow consumer and its
// report equals the serial one, with Err nil. In every case every
// pipeline goroutine is joined (the leak check covers the whole test).

// faultStall is how long an injected stall sleeps: long enough for the
// engine to run far ahead of the stalled consumer on these programs.
const faultStall = 50 * time.Millisecond

// checkFaultRun asserts the fail-closed invariant for one faulted run rep
// against the serial no-fault reference and reports whether the run
// failed. The only failure allowed is a PipelineError caused by an
// injected panic, so a stall plan must leave Err nil.
func checkFaultRun(t *testing.T, what string, serial, rep *detect.Report) (failed bool) {
	t.Helper()
	if rep.Err != nil {
		var pe *detect.PipelineError
		var fp faultinject.Panic
		if !errors.As(rep.Err, &pe) || !errors.As(rep.Err, &fp) || pe.Stage == "" {
			t.Fatalf("%s: want nil or one PipelineError caused by an injected panic, got %v",
				what, rep.Err)
		}
		return true
	}
	// No failure surfaced: the fault was a stall or never fired. Verdicts
	// and counters must be the serial ones.
	if len(serial.Races) != len(rep.Races) || serial.Stats.RaceCount != rep.Stats.RaceCount {
		t.Fatalf("%s: %d races (%d obs) vs serial %d (%d)", what,
			len(rep.Races), rep.Stats.RaceCount, len(serial.Races), serial.Stats.RaceCount)
	}
	for i := range serial.Races {
		if serial.Races[i] != rep.Races[i] {
			t.Fatalf("%s: race %d differs: %v vs %v", what, i, serial.Races[i], rep.Races[i])
		}
	}
	if serial.Stats.Shadow != rep.Stats.Shadow {
		t.Fatalf("%s: shadow counters diverge\nserial %+v\ngot    %+v",
			what, serial.Stats.Shadow, rep.Stats.Shadow)
	}
	return false
}

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
		Consumers: consumers,
	}, detect.Tuning{Faults: plan}).Run(p.Run)
	what := fmt.Sprintf("seed %d [%v %v c=%d]", seed, pt, mode, consumers)
	// A panicking point at occurrence 2 fires on every cell's program; a
	// stall only delays the run.
	if failed := checkFaultRun(t, what, serial, rep); failed != (pt != faultinject.ConsumerStall) {
		t.Fatalf("%s: failed = %v\n%s", what, failed, p)
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

// FuzzFailClosed drives the fail-closed invariant from arbitrary seeds:
// the seed picks the program, the fault plan (point and occurrence via
// faultinject.NewPlan), and the pipeline shape. Any outcome other than
// serial-identical verdicts and counters or one PipelineError caused by
// the injected panic — a hang, a raw panic, a failed stall, a leaked
// goroutine — fails.
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
			Consumers: consumers,
		}, detect.Tuning{Faults: plan}).Run(p.Run)
		checkFaultRun(t, fmt.Sprintf("seed %d [c=%d]", seed, consumers), serial, rep)
	})
}
