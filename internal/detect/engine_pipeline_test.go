package detect

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"futurerd/internal/event"
)

// These tests pin the non-blocking construct pipeline: constructs hand
// their mutations to the consumer at the front of the next batch instead
// of applying them, so parallel constructs proceed while batch checks are
// still in flight — bounded only by the item channel, with reports that
// stay verdict-, order- and counter-identical to a serial run.

// TestConstructProceedsWithBatchInFlight is the acceptance proof that
// constructs no longer block on back-end drain: the first sealed batch is
// held in flight on the consumer goroutine until the engine goroutine has
// executed a spawn, a sync, and a future create/get past it. Under the
// old drain-at-construct pipeline this deadlocks (the construct waits for
// the held batch, the hold waits for the construct) until the hook's
// 10-second timeout fails the test.
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

// TestConstructStretchWithBatchInFlight: mutations travel in the item
// stream, so a long construct-only stretch needs no consumer progress.
// The first batch is held in flight while the engine runs 4×256
// access-free spawn/sync pairs (three mutations each, so a dozen
// mutation-only hand-offs, well inside the item buffer). The run must
// finish, match the inline report exactly, and have sealed more items
// than access batches. A mutation log bounded by a window of a few hundred
// mutations blocks the engine here and the hold times out.
func TestConstructStretchWithBatchInFlight(t *testing.T) {
	prog := func(stretchDone chan struct{}) func(*Task) {
		return func(tk *Task) {
			tk.WriteRange(1, 300) // batch 1: held in flight by the hook
			for i := 0; i < 4*256; i++ {
				tk.Spawn(func(*Task) {})
				tk.Sync()
			}
			if stretchDone != nil {
				close(stretchDone)
			}
			tk.ReadRange(1, 300)
		}
	}
	cfg := Config{Mode: ModeMultiBagsPlus, Mem: MemFull}
	inline := NewEngine(cfg).Run(prog(nil))
	if inline.Err != nil {
		t.Fatal(inline.Err)
	}
	cfg.Consumers = 1
	e := NewEngine(cfg)
	stretchDone := make(chan struct{})
	var sawTimeout atomic.Bool
	first := true
	e.be.testHook = func(*event.Batch) {
		if !first {
			return
		}
		first = false
		select {
		case <-stretchDone:
		case <-time.After(10 * time.Second):
			sawTimeout.Store(true)
		}
	}
	rep := e.Run(prog(stretchDone))
	if sawTimeout.Load() {
		t.Fatal("the construct stretch blocked on the batch in flight")
	}
	if !reflect.DeepEqual(inline, rep) {
		t.Fatalf("async run diverges from inline:\ninline %+v\nasync  %+v", inline, rep)
	}
	if sealed := e.be.progress().Sealed; sealed <= rep.Stats.Event.Batches {
		t.Fatalf("sealed %d items for %d access batches: no mutation-only hand-off",
			sealed, rep.Stats.Event.Batches)
	}
}

// TestConstructAheadEquivalence is the run-ahead equivalence check across
// all three reachability algorithms: a program mixing racy and ordered
// traffic, bulk ranges, futures and syncs must produce identical reports —
// full stats included, read-shared skips and all — whether the pipeline
// is serial or the engine runs ahead of the async consumer.
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
		rep := NewEngine(Config{Mode: mode, Mem: MemFull, MaxRaces: 1 << 20, Consumers: 1}).Run(prog)
		if rep.Err != nil {
			t.Fatalf("%v: %v", mode, rep.Err)
		}
		if !reflect.DeepEqual(serial.Races, rep.Races) {
			t.Fatalf("%v: race streams diverge", mode)
		}
		// Everything — verdicts, protocol traffic, the fast paths,
		// reachability traffic — must be identical.
		ss, as := serial.Stats, rep.Stats
		if !reflect.DeepEqual(ss, as) {
			t.Fatalf("%v stats diverge:\nserial %+v\nasync  %+v", mode, ss, as)
		}
		if as.Shadow.ReadSharedSkips == 0 {
			t.Fatalf("%v: program never exercised the read-shared fast path", mode)
		}
	}
}

// TestCheckStructuredQuerySeesGetVersion pins the deferred discipline
// check: CheckStructured's creator-precedes-getter query does not wait
// for the consumer — it rides the hand-off that carries every mutation
// before the get, and the consumer answers it before applying the get's
// own — and must still judge a structured program violation-free even
// when batches and construct mutations are in flight.
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
