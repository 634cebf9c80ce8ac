package detect

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"futurerd/internal/event"
)

// These tests pin the non-blocking construct pipeline: the reachability
// relation is versioned, sealed batches carry the version they were
// recorded under, and parallel constructs proceed while batch checks are
// still in flight — bounded by the construct-ahead window, with reports
// that stay verdict-, order- and counter-identical to a serial run.

// TestConstructProceedsWithBatchInFlight is the acceptance proof that
// constructs no longer block on back-end drain: the first sealed batch is
// held in flight on the consumer goroutine until the engine goroutine has
// executed a spawn, a sync, and a future create/get past it. Under the
// old drain-at-construct pipeline this deadlocks (the construct waits for
// the held batch, the hold waits for the construct) and the watchdog
// fails the test.
func TestConstructProceedsWithBatchInFlight(t *testing.T) {
	e := NewEngine(Config{Mode: ModeMultiBags, Mem: MemFull, Consumers: 1})
	constructsDone := make(chan struct{})
	var heldInFlight atomic.Bool
	var sawTimeout atomic.Bool
	first := true
	e.be.testHook = func(*event.Batch) {
		if !first {
			return
		}
		first = false
		heldInFlight.Store(true)
		select {
		case <-constructsDone:
			// The engine ran several constructs while this batch was still
			// unchecked: the pipeline is non-blocking.
		case <-time.After(10 * time.Second):
			sawTimeout.Store(true)
		}
	}
	rep := e.Run(func(tk *Task) {
		tk.WriteRange(1, 300) // batch 1: held in flight by the hook
		tk.Spawn(func(c *Task) {
			c.WriteRange(1000, 50)
		})
		tk.Sync()
		h := tk.CreateFut(func(ft *Task) any { ft.WriteRange(2000, 50); return nil })
		tk.GetFut(h)
		close(constructsDone) // reached only if no construct waited for batch 1
	})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if sawTimeout.Load() {
		t.Fatal("a construct blocked on back-end drain with a batch in flight")
	}
	if !heldInFlight.Load() {
		t.Fatal("test never held a batch in flight (no batch reached the back-end)")
	}
	if rep.Racy() {
		t.Fatalf("clean program reported races: %v", rep.Races)
	}
}

// TestConstructAheadWindowBounded drives a construct-dense, access-sparse
// program (mostly empty batches, so only the engine's nudge keeps the
// mutation log drainable) through tiny construct-ahead windows: the run
// must terminate and match the serial report exactly. A window of 1
// degenerates to lock-step application; the default window runs far
// ahead.
func TestConstructAheadWindowBounded(t *testing.T) {
	prog := func(tk *Task) {
		tk.Write(1)
		for i := 0; i < 400; i++ {
			tk.Spawn(func(c *Task) {
				if i%16 == 0 {
					c.Write(uint64(10 + i)) // occasional real batch
				}
			})
			tk.Sync()
		}
		tk.Read(1)
	}
	serial := NewEngine(Config{Mode: ModeMultiBagsPlus, Mem: MemFull}).Run(prog)
	if serial.Err != nil {
		t.Fatal(serial.Err)
	}
	for _, window := range []int{1, 2, 8, 0 /* default */} {
		done := make(chan *Report, 1)
		go func() {
			done <- NewTunedEngine(Config{
				Mode: ModeMultiBagsPlus, Mem: MemFull, Consumers: 1,
			}, Tuning{ConstructAhead: window}).Run(prog)
		}()
		var rep *Report
		select {
		case rep = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("window=%d: pipeline deadlocked", window)
		}
		if rep.Err != nil {
			t.Fatalf("window=%d: %v", window, rep.Err)
		}
		if !reflect.DeepEqual(serial.Races, rep.Races) ||
			serial.Stats.RaceCount != rep.Stats.RaceCount ||
			serial.Stats.Strands != rep.Stats.Strands ||
			!reflect.DeepEqual(serial.Stats.Reach, rep.Stats.Reach) {
			t.Fatalf("window=%d diverges from serial:\nserial %+v\nasync  %+v",
				window, serial.Stats, rep.Stats)
		}
	}
}

// TestConstructAheadEquivalence is the construct-ahead equivalence check
// across all three reachability algorithms: a program mixing racy and
// ordered traffic, bulk ranges, futures and syncs must produce identical
// reports — full stats included, read-shared skips and all — whether the
// pipeline is serial, asynchronous with the default window, or
// asynchronous with a stress-tight window.
func TestConstructAheadEquivalence(t *testing.T) {
	prog := func(tk *Task) {
		tk.WriteRange(1, 400)
		h := tk.CreateFut(func(ft *Task) any {
			ft.ReadRange(1, 400) // parallel with the writer: races
			ft.WriteRange(1000, 200)
			return nil
		})
		tk.ReadRange(1000, 200) // parallel with the future: races
		tk.ReadRange(1, 400)    // own writes: owned skips
		tk.ReadRange(1, 400)
		tk.GetFut(h)
		tk.Spawn(func(c *Task) {
			c.ReadRange(1, 400) // ordered after the parent's writes: race free
			c.ReadRange(1, 400) // second pass at one generation: read-shared skips
		})
		tk.Sync()
	}
	for _, mode := range []Mode{ModeSPBags, ModeMultiBags, ModeMultiBagsPlus} {
		serial := NewEngine(Config{Mode: mode, Mem: MemFull, MaxRaces: 1 << 20}).Run(prog)
		if serial.Err != nil {
			t.Fatalf("%v: %v", mode, serial.Err)
		}
		cfg := Config{Mode: mode, Mem: MemFull, MaxRaces: 1 << 20, Consumers: 1}
		for _, ahead := range []int{0 /* default */, 2} {
			rep := NewTunedEngine(cfg, Tuning{ConstructAhead: ahead}).Run(prog)
			if rep.Err != nil {
				t.Fatalf("%v ahead=%d: %v", mode, ahead, rep.Err)
			}
			if !reflect.DeepEqual(serial.Races, rep.Races) {
				t.Fatalf("%v ahead=%d: race streams diverge", mode, ahead)
			}
			// Everything — verdicts, protocol traffic, both epoch fast
			// paths, reachability traffic — must be identical.
			ss, as := serial.Stats, rep.Stats
			if !reflect.DeepEqual(ss, as) {
				t.Fatalf("%v ahead=%d stats diverge:\nserial %+v\nasync  %+v",
					mode, ahead, ss, as)
			}
			if as.Shadow.ReadSharedSkips == 0 {
				t.Fatalf("%v: program never exercised the read-shared fast path", mode)
			}
		}
	}
}

// TestCheckStructuredQuerySeesGetVersion pins the deferred discipline
// check: CheckStructured's creator-precedes-getter query does not wait
// for the consumer — it is enqueued in stream order and answered at the
// get's version — and must still judge a structured program violation-free even when batches
// and construct mutations are in flight.
func TestCheckStructuredQuerySeesGetVersion(t *testing.T) {
	for _, consumers := range []int{0, 1} {
		rep := NewEngine(Config{
			Mode: ModeMultiBagsPlus, Mem: MemFull,
			Consumers: consumers, CheckStructured: true,
		}).Run(func(tk *Task) {
			for i := 0; i < 50; i++ {
				h := tk.CreateFut(func(ft *Task) any {
					ft.WriteRange(uint64(1+100*i), 60)
					return i
				})
				tk.ReadRange(uint64(1+100*i), 60) // parallel: races
				tk.GetFut(h)
				tk.ReadRange(uint64(1+100*i), 60) // ordered after the get
			}
		})
		if rep.Err != nil {
			t.Fatalf("consumers=%d: %v", consumers, rep.Err)
		}
		// The program is structured: single-touch, creator precedes getter.
		for _, v := range rep.Violations {
			t.Fatalf("consumers=%d: spurious violation %s: %s", consumers, v.Kind, v.Detail)
		}
	}
}
