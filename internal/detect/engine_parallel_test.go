package detect

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestConfigMatrixNoPanic is the mem × mode regression for the
// instrumentation-only crash: every combination must either run cleanly
// or reject with a clean Report.Err — never panic. ModeNone+MemFull is
// the rejected combination (full detection has no algorithm to query);
// ModeNone+MemInstr must run and keep its instrumentation counters.
func TestConfigMatrixNoPanic(t *testing.T) {
	prog := func(t *Task) {
		t.Spawn(func(c *Task) { c.Write(7); c.WriteRange(100, 50) })
		t.Sync()
		t.Read(7)
		t.ReadRange(100, 50)
	}
	modes := []Mode{ModeNone, ModeSPBags, ModeMultiBags, ModeMultiBagsPlus, ModeOracle}
	mems := []MemLevel{MemOff, MemInstr, MemFull}
	for _, mode := range modes {
		for _, mem := range mems {
			t.Run(fmt.Sprintf("%v_%v", mode, mem), func(t *testing.T) {
				rep := NewEngine(Config{Mode: mode, Mem: mem}).Run(prog)
				if mode == ModeNone && mem == MemFull {
					if !errors.Is(rep.Err, errMemFullNeedsMode) {
						t.Fatalf("ModeNone+MemFull: Err = %v, want clean rejection", rep.Err)
					}
					return
				}
				if rep.Err != nil {
					t.Fatalf("unexpected error: %v", rep.Err)
				}
				if rep.Racy() {
					t.Fatalf("clean program raced: %v", rep.Races)
				}
			})
		}
	}
}

// TestInstrumentationOnlyBaseline pins the ModeNone+MemInstr behavior the
// bench harness relies on: hooks fire and decode, nothing else.
func TestInstrumentationOnlyBaseline(t *testing.T) {
	rep := NewEngine(Config{Mode: ModeNone, Mem: MemInstr}).Run(func(t *Task) {
		t.WriteRange(1, 100)
		t.ReadRange(1, 100)
	})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Stats.Shadow.TouchedPages != 0 {
		t.Fatal("instrumentation-only run materialized shadow pages")
	}
}

// TestPostRaceNoCascade is the regression for the quadratic re-reporting
// bug: a racing write must install itself, so later accesses by the same
// strand resolve on the ownership fast path instead of re-racing against
// the stale writer.
func TestPostRaceNoCascade(t *testing.T) {
	const passes = 5
	rep := NewEngine(Config{Mode: ModeMultiBags, Mem: MemFull}).Run(func(t *Task) {
		h := t.CreateFut(func(ft *Task) any { ft.Write(42); return nil })
		for i := 0; i < passes; i++ {
			t.Write(42) // parallel with the future's write: races once
		}
		t.GetFut(h)
	})
	if got := rep.Stats.RaceCount; got != 1 {
		t.Fatalf("RaceCount = %d, want 1 (post-race cascade re-reported)", got)
	}
}

// TestPostRaceNoCascadeRange is the bulk-range version: a racy seqscan
// repeated p times must report each word once, not p times (quadratic in
// the number of passes before the fix).
func TestPostRaceNoCascadeRange(t *testing.T) {
	const n = 200
	const passes = 4
	rep := NewEngine(Config{Mode: ModeMultiBags, Mem: MemFull, MaxRaces: 2 * n}).
		Run(func(t *Task) {
			h := t.CreateFut(func(ft *Task) any { ft.WriteRange(1, n); return nil })
			for p := 0; p < passes; p++ {
				t.WriteRange(1, n)
			}
			t.GetFut(h)
		})
	if got := rep.Stats.RaceCount; got != n {
		t.Fatalf("RaceCount = %d, want %d (one per word, independent of passes)", got, n)
	}
	if len(rep.Races) != n {
		t.Fatalf("len(Races) = %d, want %d", len(rep.Races), n)
	}
}

// TestTruncationCounters checks that capped races and violations are
// counted instead of silently dropped, and that distinct racing pairs
// hidden by the per-address dedupe are surfaced.
func TestTruncationCounters(t *testing.T) {
	const n = 30
	rep := NewEngine(Config{Mode: ModeMultiBags, Mem: MemFull, MaxRaces: 10}).
		Run(func(t *Task) {
			h := t.CreateFut(func(ft *Task) any { ft.WriteRange(1, n); return nil })
			t.ReadRange(1, n) // races on every word; 10 recorded, 20 truncated
			t.GetFut(h)
		})
	if len(rep.Races) != 10 {
		t.Fatalf("len(Races) = %d, want 10", len(rep.Races))
	}
	if got := rep.Stats.TruncatedRaces; got != n-10 {
		t.Fatalf("TruncatedRaces = %d, want %d", got, n-10)
	}

	// Distinct pair at an already-reported address: two parallel readers,
	// then a writer racing with the first reader; a second writer races
	// with the installed first writer — different pair, same address.
	rep = NewEngine(Config{Mode: ModeMultiBags, Mem: MemFull}).Run(func(t *Task) {
		a := t.CreateFut(func(ft *Task) any { ft.Write(5); return nil })
		t.GetFut(a) // joined before b exists: the two writes are ordered
		b := t.CreateFut(func(ft *Task) any { ft.Write(5); return nil })
		t.GetFut(b)
		t.Write(5) // ordered after both: no race
	})
	if rep.Stats.DroppedPairs != 0 || rep.Racy() {
		t.Fatalf("ordered writes produced drops/races: %+v", rep.Stats)
	}
	rep = NewEngine(Config{Mode: ModeMultiBags, Mem: MemFull}).Run(func(t *Task) {
		a := t.CreateFut(func(ft *Task) any { ft.Write(5); return nil })
		t.Write(5) // races with a's write (pair 1) and installs itself
		b := t.CreateFut(func(ft *Task) any { ft.Write(5); return nil })
		t.Write(5) // b is unjoined: races with b's write (pair 2, same address)
		t.GetFut(a)
		t.GetFut(b)
	})
	if got := rep.Stats.DroppedPairs; got != 1 {
		t.Fatalf("DroppedPairs = %d, want 1 (distinct pair at a deduped address)", got)
	}
	if got := rep.Stats.RaceCount; got != 2 {
		t.Fatalf("RaceCount = %d, want 2", got)
	}
}

// parallelProg builds a program with bulk cross-strand traffic: racy and
// race-free ranges big enough to fan out with a small worker chunk.
func parallelProg(n int) func(*Task) {
	return func(t *Task) {
		h := t.CreateFut(func(ft *Task) any {
			ft.WriteRange(1, n)
			return nil
		})
		t.ReadRange(1, n) // parallel with the future: races everywhere
		t.GetFut(h)
		t.ReadRange(1, n) // ordered after the get: race free
		t.Spawn(func(c *Task) { c.WriteRange(uint64(n+1), n) })
		t.WriteRange(uint64(n+1), n) // parallel with the child: races
		t.Sync()
		t.WriteRange(uint64(n+1), n) // owned rewrite after join
	}
}

// TestConsumersSelectPipeline pins what each Consumers setting runs:
// 0 checks inline on the engine's checker, and 1 or more on the
// scheduled consumer pool, whose consumers own their checkers — or
// inline when the pool is not eligible (oracle and Verify runs). Every
// pipeline must report the inline run's races.
func TestConsumersSelectPipeline(t *testing.T) {
	const n = 2000
	for _, tc := range []struct {
		cfg       Config
		consumers int
	}{
		{Config{Mode: ModeMultiBags, Mem: MemFull}, 0},
		{Config{Mode: ModeMultiBags, Mem: MemFull, Consumers: -1}, 0},
		{Config{Mode: ModeMultiBags, Mem: MemFull, Consumers: 1}, 1},
		{Config{Mode: ModeOracle, Mem: MemFull, Consumers: 1}, 0},
		{Config{Mode: ModeMultiBags, Mem: MemFull, Consumers: 4}, 4},
		{Config{Mode: ModeOracle, Mem: MemFull, Consumers: 8}, 0},
		{Config{Mode: ModeMultiBagsPlus, Mem: MemFull, Consumers: 8, Verify: true}, 0},
		{Config{Mode: ModeNone, Mem: MemInstr, Consumers: 1}, 1},
	} {
		tc.cfg.MaxRaces = 3 * n
		serial := tc.cfg
		serial.Consumers = 0
		want := NewEngine(serial).Run(parallelProg(n))
		e := NewEngine(tc.cfg)
		if e.consumers != tc.consumers {
			t.Fatalf("%+v: consumers = %d, want %d", tc.cfg, e.consumers, tc.consumers)
		}
		if async := e.be != nil; async != (tc.consumers > 0) {
			t.Fatalf("%+v: asynchronous back-end = %v, want %v", tc.cfg, async, tc.consumers > 0)
		}
		if own := e.chk != nil; own != (tc.consumers == 0) {
			t.Fatalf("%+v: engine-owned checker = %v, want %v", tc.cfg, own, tc.consumers == 0)
		}
		rep := e.Run(parallelProg(n))
		if rep.Err != nil || want.Err != nil {
			t.Fatalf("%+v: errs %v / %v", tc.cfg, rep.Err, want.Err)
		}
		if len(rep.Races) != len(want.Races) || rep.Stats.RaceCount != want.Stats.RaceCount {
			t.Fatalf("%+v: %d/%d races, inline run %d/%d", tc.cfg,
				len(rep.Races), rep.Stats.RaceCount, len(want.Races), want.Stats.RaceCount)
		}
		for i := range want.Races {
			if want.Races[i] != rep.Races[i] {
				t.Fatalf("%+v: race %d differs: inline %v, got %v", tc.cfg, i, want.Races[i], rep.Races[i])
			}
		}
	}
}

// TestPoolReleasedOnUserPanic: a panic in user code must not leak the
// detection back-end's goroutines — the scheduler and its consumer pool,
// at one consumer or four (Run defers the back-end stop before re-panicking).
func TestPoolReleasedOnUserPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		for _, consumers := range []int{1, 4} {
			func() {
				defer func() { _ = recover() }()
				NewEngine(Config{Mode: ModeMultiBags, Mem: MemFull, Consumers: consumers}).
					Run(func(t *Task) {
						t.WriteRange(1, 1<<15) // engage the back-end first
						t.Spawn(func(c *Task) { c.WriteRange(1<<20, 100) })
						panic("user bug")
					})
			}()
		}
	}
	// Goroutines exit asynchronously after the channel close; give them
	// a moment before comparing.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines grew from %d to %d: back-end leaked on panic", before, g)
	}
}
