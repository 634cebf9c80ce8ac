// The asynchronous detection pipeline: sealed batches are checked off the
// engine goroutine while the program keeps executing.
//
// Every batch leaves the engine at Engine.handOff, which stamps its
// seal-order sequence number. With Config.Consumers == 0 there is no
// goroutine: handOff runs the per-batch body (Engine.process) in place.
// With Consumers >= 1 it queues the batch to one consumer goroutine,
// which takes the batches in seal order and runs the same body: it
// applies the construct mutations the batch carries, checks the batch on
// the run's shadow.Checker and reports the races directly. Under
// Config.CheckStructured the body also answers each get's discipline
// check from the get's own mutation, just before that mutation applies,
// so the check sees every construct before the get and none after it.
// Seal order is report order, so no reorder buffer is needed, and the one
// consumer is the only goroutine that applies or queries the
// reachability relation while the engine runs. The engine appends each
// construct's mutations to the open batch, ahead of the ops that run
// after them, and hands a batch off early once it holds maxMuts
// mutations, so a construct-only stretch still feeds the consumer. The
// bounded item channel is the one back-pressure and the one point where
// engine and consumer synchronize: it bounds pipeline memory at
// itemBuffer × (event.MaxOps ops + maxMuts × 128 B of mutations).
//
// # Fail-closed operation
//
// Both pipelines run each batch inside the engine's recover shell
// (Engine.guard): a panic — a detector bug or an injected fault — is
// converted into a structured PipelineError that poisons the engine
// (subsequent hooks abort the run with it). The consumer then drains: it
// recycles the remaining batches unchecked until the engine closes
// intake, so the engine's submit cannot block on a dead consumer. A
// stalled consumer is not a failure: Run joins it, so the stall delays
// Run, and the report carries the same verdicts and counters as a serial
// run. The fault matrix in internal/progen/fault_test.go drives every
// injected fault class through this machinery and asserts the run either
// matches serial verdicts exactly or returns one PipelineError with no
// goroutine left behind.
package detect

import (
	"fmt"
	"sync"
	"sync/atomic"

	"futurerd/internal/core"
	"futurerd/internal/event"
)

// itemBuffer is how many sealed batches the engine may queue ahead of the
// consumer before submit back-pressures it: enough for the engine to
// keep executing through a burst of small batches while the consumer
// checks a large one. A batch holds at most event.MaxOps ops and maxMuts
// mutations, so the queue also bounds pipeline memory.
const itemBuffer = 64

// pipeline is the asynchronous detection back-end: one consumer goroutine
// fed through a bounded channel.
type pipeline struct {
	e       *Engine
	items   chan *event.Batch
	stopped sync.Once
	done    chan struct{}

	// Per-stage heartbeats (seal-order batch counts): hbSealed holds the
	// sequence number of the last batch the engine submitted,
	// hbDispatched counts batches the consumer took, hbChecked batches
	// fully processed (checked or discarded on the drain path). hbSealed
	// == hbChecked means the pipeline is quiescent.
	hbSealed     atomic.Uint64
	hbDispatched atomic.Uint64
	hbChecked    atomic.Uint64

	// testHook, when non-nil, runs on the consumer before each batch with
	// ops is checked; pipeline tests use it to hold batches in flight.
	testHook func(*event.Batch)
}

func newPipeline(e *Engine) *pipeline {
	p := &pipeline{
		e:     e,
		items: make(chan *event.Batch, itemBuffer),
		done:  make(chan struct{}),
	}
	go p.consume()
	return p
}

// progress snapshots the heartbeat counters. Safe from any goroutine.
func (p *pipeline) progress() PipelineProgress {
	return PipelineProgress{
		Sealed:     p.hbSealed.Load(),
		Dispatched: p.hbDispatched.Load(),
		Checked:    p.hbChecked.Load(),
	}
}

// submit hands one stamped batch to the pipeline. Engine goroutine only.
// The send is the pipeline's back-pressure; it cannot block on a failed
// consumer, which keeps taking batches until intake closes.
func (p *pipeline) submit(b *event.Batch) {
	p.hbSealed.Store(b.Seq)
	p.items <- b
}

// stop closes intake and joins the consumer — on the success path after
// all batches are checked, on the failure path after the drain discards
// what remains. Idempotent, nil-safe; engine goroutine only (the only
// sender on items).
func (p *pipeline) stop() {
	if p == nil {
		return
	}
	p.stopped.Do(func() {
		close(p.items)
		<-p.done
	})
}

// consume is the consumer goroutine: it processes batches in seal order
// on the run's shadow checker until the engine closes intake. After a
// failure it only recycles, so the drain leaks no pooled batch.
func (p *pipeline) consume() {
	defer close(p.done)
	e := p.e
	failed := false
	for b := range p.items {
		if !failed {
			p.hbDispatched.Add(1)
			if pe := e.guard("consumer", b, func() {
				if p.testHook != nil && len(b.Ops) > 0 {
					p.testHook(b)
				}
				e.process(b)
			}); pe != nil {
				e.poisonWith(pe)
				failed = true
			}
		}
		event.Recycle(b)
		p.hbChecked.Add(1)
	}
}

// evalDisc answers the discipline check of get g against the relation
// just before g's mutation applies. Runs on the engine goroutine on the
// inline pipeline and on the consumer otherwise.
func (e *Engine) evalDisc(g *core.GetRec) {
	if g.Touch == 2 {
		e.violate("multi-touch", fmt.Sprintf(
			"future fn %d touched more than once (second get at strand %d)",
			g.FutFn, g.Getter))
	}
	if !e.reach.Precedes(g.Creator, g.Getter) {
		e.violate("unordered-create-get", fmt.Sprintf(
			"create at strand %d does not sequentially precede get at strand %d",
			g.Creator, g.Getter))
	}
}
