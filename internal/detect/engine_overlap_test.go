package detect

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"futurerd/internal/event"
	"futurerd/internal/faultinject"
)

// These tests pin the overlapping-window scheduler and its work-stealing
// consumer pool: the next window's relation version publishes while the
// previous window's batches are still in flight (the strict epoch
// barrier is gone), large batches split into footprint-disjoint chunks
// that idle consumers steal, and both are observable through the
// Stats.Event.OverlappedWindows / StolenChunks counters — all without
// disturbing the serial-identical report.

// TestOverlapTwoWindowsInFlight proves two windows are simultaneously in
// flight: the pre-spawn batch is held on one consumer, the spawned
// child's batch — sealed only after the hold is confirmed, so it reaches
// the scheduler while the first flight is outstanding — must then
// publish its (newer) version over the held flight and dispatch to the
// second consumer. The hook rendezvous completes only when both
// consumers are inside checks at once.
func TestOverlapTwoWindowsInFlight(t *testing.T) {
	e := NewEngine(Config{Mode: ModeMultiBags, Mem: MemFull, Consumers: 2})
	held := make(chan struct{})    // closed once batch 1 is in a consumer's hands
	release := make(chan struct{}) // closed once batch 2 joined it
	arrived := make(chan struct{}, 4)
	var first atomic.Bool
	first.Store(true)
	var sawTimeout atomic.Bool
	e.be.testHook = func(*event.Batch) {
		if first.CompareAndSwap(true, false) {
			close(held)
			select {
			case <-release:
			case <-time.After(10 * time.Second):
				sawTimeout.Store(true)
			}
			return
		}
		arrived <- struct{}{}
	}
	go func() {
		<-arrived
		close(release)
	}()
	rep := e.Run(func(tk *Task) {
		tk.WriteRange(1, 200) // batch 1: sealed at the spawn, then held
		tk.Spawn(func(c *Task) {
			c.WriteRange(8*4096, 300) // disjoint pages: dispatchable alongside
			<-held                    // seal only after batch 1 is in flight
		})
		tk.Sync()
	})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if sawTimeout.Load() {
		t.Fatal("second window never reached a consumer while the first was held")
	}
	if rep.Racy() {
		t.Fatalf("clean program reported races: %v", rep.Races)
	}
	if got := rep.Stats.Event.OverlappedWindows; got == 0 {
		t.Fatal("OverlappedWindows = 0, want > 0 (version published over a held flight)")
	}
	if w := e.MaxDispatchedWindow(); w < 2 {
		t.Fatalf("MaxDispatchedWindow = %d, want >= 2 (two flights outstanding)", w)
	}
}

// TestOverlapSingleConsumer proves a pool of one consumer overlaps
// windows too: batch 1 is held on the only consumer while the spawned
// child's batch, sealed only after the hold is confirmed, reaches the
// scheduler. The scheduler must publish the child's newer version over
// the held flight before the hold is released.
func TestOverlapSingleConsumer(t *testing.T) {
	e := NewEngine(Config{Mode: ModeMultiBags, Mem: MemFull, Consumers: 1})
	held := make(chan struct{}) // closed once batch 1 is in the consumer's hands
	var first atomic.Bool
	first.Store(true)
	var overlappedWhileHeld atomic.Bool
	e.be.testHook = func(*event.Batch) {
		if !first.CompareAndSwap(true, false) {
			return
		}
		close(held)
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			if e.be.overlapped.Load() > 0 {
				overlappedWhileHeld.Store(true)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	rep := e.Run(func(tk *Task) {
		tk.WriteRange(1, 200) // batch 1: sealed at the spawn, then held
		tk.Spawn(func(c *Task) {
			c.WriteRange(8*4096, 300)
			<-held // seal only after batch 1 is in flight
		})
		tk.Sync()
	})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if !overlappedWhileHeld.Load() {
		t.Fatal("no version was published over the held flight")
	}
	if rep.Racy() {
		t.Fatalf("clean program reported races: %v", rep.Races)
	}
}

// TestStealChunksAcrossConsumers proves chunk-granularity stealing: one
// batch touching two distant page regions splits at the configured
// granule, and the hook barrier — two arrivals before anyone proceeds —
// only completes when the two chunks are being checked by two distinct
// consumers at once, which is exactly what StolenChunks counts.
func TestStealChunksAcrossConsumers(t *testing.T) {
	e := NewTunedEngine(Config{
		Mode: ModeMultiBags, Mem: MemFull, Consumers: 2,
	}, Tuning{StealChunkWords: 64})
	arrived := make(chan struct{}, 4)
	proceed := make(chan struct{})
	var sawTimeout atomic.Bool
	e.be.testHook = func(*event.Batch) {
		arrived <- struct{}{}
		select {
		case <-proceed:
		case <-time.After(10 * time.Second):
			sawTimeout.Store(true)
		}
	}
	go func() {
		<-arrived
		<-arrived
		close(proceed)
	}()
	rep := e.Run(func(tk *Task) {
		tk.WriteRange(1, 80)     // chunk 0
		tk.WriteRange(1<<20, 80) // chunk 1: 256 pages away, stealable tail
	})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if sawTimeout.Load() {
		t.Fatal("the batch's chunks never ran on two consumers concurrently")
	}
	if rep.Racy() {
		t.Fatalf("single-strand program reported races: %v", rep.Races)
	}
	if got := rep.Stats.Event.StolenChunks; got == 0 {
		t.Fatal("StolenChunks = 0, want > 0 (tail chunk checked by the other consumer)")
	}
}

// TestOverlapConstructDense drives the construct-dense shape the strict
// epoch scheduler fully serialized — every batch on the same page, so
// zero independent batches and no concurrent dispatch — and shows the
// overlapping scheduler still makes version progress over the held head
// flight (publish-ahead), with the report byte-identical to serial. The
// first batch is held until the whole fan-out has been submitted, so
// later versions are guaranteed to publish over an outstanding flight.
func TestOverlapConstructDense(t *testing.T) {
	mkProg := func(afterLoop func()) func(*Task) {
		return func(tk *Task) {
			tk.Write(1)
			for i := 0; i < 40; i++ {
				tk.Spawn(func(c *Task) {
					c.WriteRange(1, 40) // same page every time: never dispatchable together
				})
			}
			if afterLoop != nil {
				afterLoop()
			}
			tk.Read(1)
		}
	}
	serial := NewEngine(Config{Mode: ModeMultiBags, Mem: MemFull, MaxRaces: 1 << 20}).Run(mkProg(nil))
	if serial.Err != nil {
		t.Fatal(serial.Err)
	}
	if got := serial.Stats.Event.IndependentBatches; got != 0 {
		t.Fatalf("IndependentBatches = %d, want 0 (every batch shares the page)", got)
	}

	e := NewEngine(Config{Mode: ModeMultiBags, Mem: MemFull, MaxRaces: 1 << 20, Consumers: 2})
	release := make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	e.be.testHook = func(*event.Batch) {
		if first.CompareAndSwap(true, false) {
			select {
			case <-release:
			case <-time.After(10 * time.Second):
			}
		}
	}
	rep := e.Run(mkProg(func() { close(release) }))
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if !reflect.DeepEqual(serial.Races, rep.Races) {
		t.Fatalf("race streams diverge\nserial %v\ngot    %v", serial.Races, rep.Races)
	}
	if got := rep.Stats.Event.OverlappedWindows; got == 0 {
		t.Fatal("OverlappedWindows = 0, want > 0 on a construct-dense fan-out")
	}
}

// TestDrainRecyclesPartiallyStolenWindow is the drain-mode regression:
// a consumer panics on a stolen chunk while other flights of the window
// are split across the pool and more chunks sit undispatched. The
// scheduler must cut the unqueued chunks from their flights' accounting
// and recycle every pooled batch as the sent chunks come back — a
// poisoned engine leaks neither batches nor goroutines.
func TestDrainRecyclesPartiallyStolenWindow(t *testing.T) {
	faultinject.GoroutineLeakCheck(t)
	before := event.Live()
	e := NewTunedEngine(Config{
		Mode: ModeMultiBags, Mem: MemFull, Consumers: 2, MaxRaces: 1 << 20,
	}, Tuning{StealChunkWords: 64, Faults: faultinject.Single(faultinject.StealPanic, 1)})
	rep := e.Run(func(tk *Task) {
		for i := 0; i < 12; i++ {
			lo := uint64(1 + i*2*4096)
			hi := uint64(1<<22 + i*2*4096)
			tk.Spawn(func(c *Task) {
				c.WriteRange(lo, 80) // two distant regions: every batch splits
				c.WriteRange(hi, 80)
			})
		}
		tk.Sync()
	})
	if rep.Err == nil {
		t.Fatal("injected steal panic did not fail the run")
	}
	var fp faultinject.Panic
	if !errors.As(rep.Err, &fp) || fp.Point != faultinject.StealPanic {
		t.Fatalf("want the injected steal-panic as cause, got %v", rep.Err)
	}
	if got := event.Live(); got != before {
		t.Fatalf("drain leaked pooled batches: %d live before, %d after", before, got)
	}
}

// TestOverlapStallFailsClosed wedges the scheduler exactly as it
// publishes a version over an outstanding flight (the OverlapStall
// point) and asserts the watchdog converts the two-windows-in-flight
// stall into a structured teardown with nothing leaked.
func TestOverlapStallFailsClosed(t *testing.T) {
	faultinject.GoroutineLeakCheck(t)
	before := event.Live()
	plan := faultinject.Single(faultinject.OverlapStall, 1)
	plan.Stall = 200 * time.Millisecond
	e := NewTunedEngine(Config{
		Mode: ModeMultiBags, Mem: MemFull, Consumers: 2, MaxRaces: 1 << 20,
		StallTimeout: 40 * time.Millisecond,
	}, Tuning{Faults: plan})
	release := make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	e.be.testHook = func(*event.Batch) {
		if first.CompareAndSwap(true, false) {
			// Hold the head flight so later items publish over it; the
			// timeout fallback matters because the poisoned program may
			// abort before it reaches close(release).
			select {
			case <-release:
			case <-time.After(500 * time.Millisecond):
			}
		}
	}
	rep := e.Run(func(tk *Task) {
		tk.Write(1)
		for i := 0; i < 40; i++ {
			tk.Spawn(func(c *Task) { c.WriteRange(1, 40) })
		}
		close(release)
		tk.Read(1)
	})
	if rep.Err == nil {
		t.Fatal("a stall with two windows in flight did not fail the run")
	}
	var pe *PipelineError
	if !errors.As(rep.Err, &pe) || pe.Stage != "watchdog" || !errors.Is(pe, ErrStalled) {
		t.Fatalf("want a watchdog ErrStalled failure, got %v", rep.Err)
	}
	if got := event.Live(); got != before {
		t.Fatalf("stall teardown leaked pooled batches: %d live before, %d after", before, got)
	}
}
