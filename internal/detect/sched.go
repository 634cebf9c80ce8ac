// The asynchronous detection pipeline: sealed batches are checked off the
// engine goroutine while the program keeps executing.
//
// Every batch leaves the engine at Engine.handOff. With Config.Consumers
// == 0 there is no goroutine: handOff runs the per-item body
// (Engine.process) in place. With Consumers >= 1 it queues the item to
// one consumer goroutine, which takes the items in seal order and runs
// the same body: it applies the construct mutations the item carries,
// answers a deferred discipline check, checks the batch on the run's
// shadow.Checker and reports the races directly. Seal order is report
// order, so no reorder buffer is needed, and the one consumer is the only
// goroutine that applies or queries the reachability relation while the
// engine runs. The engine appends each construct's mutations to the open
// batch, ahead of the ops that run after them, and hands a batch off
// early once it holds maxMuts mutations, so a construct-only stretch
// still feeds the consumer. The bounded item channel is the one
// back-pressure and the one point where engine and consumer synchronize:
// it bounds pipeline memory at itemBuffer × (event.MaxOps ops + maxMuts ×
// 128 B of mutations).
//
// # Fail-closed operation
//
// Both pipelines run each item inside the engine's recover shell
// (Engine.guard): a panic — a detector bug or an injected fault — is
// converted into a structured PipelineError that poisons the engine
// (subsequent hooks abort the run with it). The consumer then drains: it
// recycles the remaining items unchecked until the engine closes intake,
// so the engine's submit cannot block on a dead consumer. A stalled
// consumer is not a failure: Run joins it, so the stall delays Run, and
// the report carries the same verdicts and counters as a serial run. The
// fault matrix in internal/progen/fault_test.go drives every injected
// fault class through this machinery and asserts the run either matches
// serial verdicts exactly or returns one PipelineError with no goroutine
// left behind.
package detect

import (
	"fmt"
	"sync"
	"sync/atomic"

	"futurerd/internal/core"
	"futurerd/internal/event"
)

// discCheck is a deferred CheckStructured discipline query: instead of
// draining the pipeline at every get, the engine hands the query off with
// the mutations before the get, and the consumer answers it from the
// relation they complete, in stream order.
type discCheck struct {
	futFn   core.FnID
	creator core.StrandID
	getter  core.StrandID
	touches int
}

// workItem is one unit of the pipeline stream: a sealed batch (possibly
// without ops — a mutation-only hand-off), optionally carrying a deferred
// discipline check.
type workItem struct {
	b    *event.Batch
	disc *discCheck
}

// itemBuffer is how many sealed items the engine may queue ahead of the
// consumer before submit back-pressures it: enough for the engine to
// keep executing through a burst of small batches while the consumer
// checks a large one. A batch holds at most event.MaxOps ops and maxMuts
// mutations, so the queue also bounds pipeline memory.
const itemBuffer = 64

// pipeline is the asynchronous detection back-end: one consumer goroutine
// fed through a bounded channel.
type pipeline struct {
	e       *Engine
	items   chan workItem
	stopped sync.Once
	done    chan struct{}
	nextSeq uint64 // engine goroutine only (stamped at submit)

	// Per-stage heartbeats (seal-order item counts): hbSealed advances
	// when the engine submits an item, hbDispatched when the consumer
	// takes it, hbChecked when it is fully processed (checked, answered,
	// or discarded on the drain path). hbSealed == hbChecked means the
	// pipeline is quiescent.
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
		items: make(chan workItem, itemBuffer),
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

// submit hands one item to the pipeline, stamping its sequence number.
// Engine goroutine only. The send is the pipeline's back-pressure; it
// cannot block on a failed consumer, which keeps taking items until
// intake closes.
func (p *pipeline) submit(it workItem) {
	p.nextSeq++
	it.b.Seq = p.nextSeq
	p.hbSealed.Store(p.nextSeq)
	p.items <- it
}

// stop closes intake and joins the consumer — on the success path after
// all items are checked, on the failure path after the drain discards
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

// consume is the consumer goroutine: it processes items in seal order
// on the run's shadow checker until the engine closes intake. After a
// failure it only recycles, so the drain leaks no pooled batch.
func (p *pipeline) consume() {
	defer close(p.done)
	e := p.e
	failed := false
	for it := range p.items {
		if !failed {
			p.hbDispatched.Add(1)
			if pe := e.guard("consumer", it.b, func() {
				if p.testHook != nil && len(it.b.Ops) > 0 {
					p.testHook(it.b)
				}
				e.process(it)
			}); pe != nil {
				e.poisonWith(pe)
				failed = true
			}
		}
		event.Recycle(it.b)
		p.hbChecked.Add(1)
	}
}

// evalDisc answers one deferred discipline check against the relation
// just before the get's mutation. Runs on the engine goroutine on the
// inline pipeline and on the consumer otherwise.
func (e *Engine) evalDisc(d *discCheck) {
	if d.touches == 2 {
		e.violate("multi-touch", fmt.Sprintf(
			"future fn %d touched more than once (second get at strand %d)",
			d.futFn, d.getter))
	}
	if !e.reach.Precedes(d.creator, d.getter) {
		e.violate("unordered-create-get", fmt.Sprintf(
			"create at strand %d does not sequentially precede get at strand %d",
			d.creator, d.getter))
	}
}
