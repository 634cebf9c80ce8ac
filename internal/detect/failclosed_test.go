package detect

import (
	"errors"
	"strings"
	"testing"
	"time"

	"futurerd/internal/event"
	"futurerd/internal/faultinject"
)

// TestErrorPathJoinsPipeline: a run aborted by a program error
// (ErrFutureNotReady) must still join every pipeline goroutine, for every
// pipeline shape. The leak check is the assertion.
func TestErrorPathJoinsPipeline(t *testing.T) {
	faultinject.GoroutineLeakCheck(t)
	for _, consumers := range []int{0, 1} {
		rep := NewEngine(Config{
			Mode: ModeMultiBagsPlus, Mem: MemFull,
			Consumers: consumers,
		}).Run(func(t *Task) {
			for i := 0; i < 200; i++ { // enough traffic to open batches
				t.Write(uint64(i) * 1024)
			}
			t.GetFut(&Fut{}) // never completed: aborts the run
		})
		if !errors.Is(rep.Err, ErrFutureNotReady) {
			t.Fatalf("c=%d: want ErrFutureNotReady, got %v", consumers, rep.Err)
		}
	}
}

// TestInjectedPanicBecomesPipelineError pins the recovery chain on both
// checking paths: the injected panic value must survive — wrapped, not
// swallowed — into a PipelineError carrying the stage and a progress
// snapshot, the engine must be poisoned, not wedged, and the consumer's
// drain must recycle every pooled batch it still held.
func TestInjectedPanicBecomesPipelineError(t *testing.T) {
	faultinject.GoroutineLeakCheck(t)
	for consumers, stage := range []string{"inline", "consumer"} {
		before := event.Live()
		rep := NewTunedEngine(Config{
			Mode: ModeMultiBagsPlus, Mem: MemFull, Consumers: consumers,
		}, Tuning{Faults: faultinject.Single(faultinject.ConsumerPanic, 1)}).Run(func(t *Task) {
			for i := 0; i < 64; i++ {
				t.Spawn(func(c *Task) {
					for j := 0; j < 64; j++ {
						c.Write(uint64(i*64+j) * 512)
					}
				})
			}
			t.Sync()
		})
		var pe *PipelineError
		if !errors.As(rep.Err, &pe) {
			t.Fatalf("c=%d: want a PipelineError, got %v", consumers, rep.Err)
		}
		if pe.Stage != stage {
			t.Fatalf("c=%d: stage = %q, want %s", consumers, pe.Stage, stage)
		}
		var fp faultinject.Panic
		if !errors.As(pe, &fp) || fp.Point != faultinject.ConsumerPanic {
			t.Fatalf("c=%d: injected panic lost in the cause chain: %v", consumers, pe)
		}
		if !strings.Contains(pe.Error(), stage) {
			t.Fatalf("c=%d: error text does not name the stage: %v", consumers, pe)
		}
		if got := event.Live(); got != before {
			t.Fatalf("c=%d: failed run leaked pooled batches: %d live before, %d after",
				consumers, before, got)
		}
	}
}

// TestPipelineErrorNamesBatchOnBothPipelines: the hand-off stamps each
// batch's sequence number on both pipelines, so the same injected fault
// names the same batch — a non-zero Seq and the same diagnostic — whether
// the batch was processed inline or on the consumer.
func TestPipelineErrorNamesBatchOnBothPipelines(t *testing.T) {
	faultinject.GoroutineLeakCheck(t)
	var got [2]*PipelineError
	for consumers := range got {
		rep := NewTunedEngine(Config{
			Mode: ModeMultiBags, Mem: MemFull, Consumers: consumers,
		}, Tuning{Faults: faultinject.Single(faultinject.ConsumerPanic, 3)}).Run(func(t *Task) {
			for i := 0; i < 8; i++ {
				t.Spawn(func(c *Task) { c.WriteRange(uint64(i)*512, 4) })
			}
			t.Sync()
		})
		if !errors.As(rep.Err, &got[consumers]) {
			t.Fatalf("c=%d: want a PipelineError, got %v", consumers, rep.Err)
		}
	}
	inline, async := got[0], got[1]
	if inline.Seq != 3 || inline.Seq != async.Seq || inline.Batch != async.Batch || inline.Batch == "" {
		t.Fatalf("pipelines name different batches:\ninline seq %d (%s)\nasync  seq %d (%s)",
			inline.Seq, inline.Batch, async.Seq, async.Batch)
	}
	if !strings.Contains(inline.Error(), "at batch seq 3") {
		t.Fatalf("inline error omits the batch: %v", inline)
	}
}

// TestMutationPanicFailsClosed: a panic while a batch's construct
// mutations apply fails the run closed on both pipelines. The program
// makes constructs only, with memory ignored, so the panic comes from
// the mutation hand-off alone: the run must return a PipelineError with
// no goroutine and no pooled batch left behind.
func TestMutationPanicFailsClosed(t *testing.T) {
	faultinject.GoroutineLeakCheck(t)
	for _, consumers := range []int{0, 1} {
		before := event.Live()
		rep := NewTunedEngine(Config{
			Mode: ModeMultiBags, Mem: MemOff, Consumers: consumers,
		}, Tuning{Faults: faultinject.Single(faultinject.ConsumerPanic, 1)}).Run(func(t *Task) {
			for i := 0; i < 200; i++ { // more mutations than one hand-off holds
				t.Spawn(func(*Task) {})
			}
			t.Sync()
		})
		var pe *PipelineError
		if !errors.As(rep.Err, &pe) {
			t.Fatalf("c=%d: want a PipelineError, got %v", consumers, rep.Err)
		}
		var fp faultinject.Panic
		if !errors.As(pe, &fp) || fp.Point != faultinject.ConsumerPanic {
			t.Fatalf("c=%d: injected panic lost in the cause chain: %v", consumers, pe)
		}
		if got := event.Live(); got != before {
			t.Fatalf("c=%d: failed run leaked pooled batches: %d live before, %d after",
				consumers, before, got)
		}
	}
}

// TestPoisonedEngineRefusesWork: after a pipeline failure the engine's
// construct and access hooks must return the failure instead of feeding a
// dead pipeline (or blocking on it).
func TestPoisonedEngineRefusesWork(t *testing.T) {
	faultinject.GoroutineLeakCheck(t)
	e := NewTunedEngine(Config{
		Mode: ModeMultiBagsPlus, Mem: MemFull, Consumers: 1,
	}, Tuning{Faults: faultinject.Single(faultinject.ConsumerPanic, 1)})
	done := make(chan *Report, 1)
	go func() {
		done <- e.Run(func(t *Task) {
			// Keep issuing work long after the injected panic; every call
			// must return promptly once the engine is poisoned.
			for i := 0; i < 1_000_000; i++ {
				t.Write(uint64(i) * 512)
			}
		})
	}()
	select {
	case rep := <-done:
		var pe *PipelineError
		if !errors.As(rep.Err, &pe) {
			t.Fatalf("want a PipelineError, got %v", rep.Err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("poisoned engine wedged instead of failing")
	}
}

// TestStrandOverflowFailsClosed: a run that needs a strand id past the cap
// ends in one PipelineError caused by ErrStrandOverflow, on every pipeline
// shape, with no id handed out beyond the cap and no goroutine left
// behind. The cap is lowered so the test reaches it in a few constructs.
func TestStrandOverflowFailsClosed(t *testing.T) {
	faultinject.GoroutineLeakCheck(t)
	const limit = 40
	for _, consumers := range []int{0, 1} {
		e := NewEngine(Config{
			Mode: ModeMultiBagsPlus, Mem: MemFull,
			Consumers: consumers,
		})
		e.maxStrand = limit
		rep := e.Run(func(t *Task) {
			for i := 0; i < 100; i++ {
				t.Spawn(func(c *Task) { c.Write(uint64(i) * 512) })
			}
			t.Sync()
		})
		var pe *PipelineError
		if !errors.As(rep.Err, &pe) || pe.Stage != "engine" || !errors.Is(rep.Err, ErrStrandOverflow) {
			t.Fatalf("c=%d: want an engine PipelineError caused by ErrStrandOverflow, got %v",
				consumers, rep.Err)
		}
		if rep.Stats.Strands > limit {
			t.Fatalf("c=%d: %d strands allocated past the cap of %d",
				consumers, rep.Stats.Strands, limit)
		}
	}
}

// TestProgressStringIsReadable keeps the diagnostic surface stable: the
// progress snapshot inside a PipelineError is what an operator reads first.
func TestProgressStringIsReadable(t *testing.T) {
	p := PipelineProgress{Sealed: 9, Dispatched: 7, Checked: 4}
	s := p.String()
	for _, want := range []string{"9", "7", "4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("progress string %q lost a counter (%s)", s, want)
		}
	}
}
