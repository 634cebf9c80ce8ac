// The asynchronous detection pipeline: sealed batches are checked off the
// engine goroutine while the program keeps executing.
//
// Config.Consumers == 0 has no pipeline: the engine checks each batch
// inline, and so do the oracle and Verify runs, whose queries are not
// concurrent-safe. With Consumers >= 1 the pipeline is an
// overlapping-window scheduler over a pool of that many consumers (work
// stealing needs two or more). The scheduler keeps a FIFO of admitted
// items and advances two cursors over it:
//
//   - Publish, in item order: an item's relation version is applied as
//     soon as its recorded mutations tolerate everything still in
//     flight. Fold-free mutations (spawn, create — and whatever else the
//     algorithm's core.PinConcurrent mask declares pin-safe, because
//     they only introduce fresh elements) apply under live snapshot
//     pins, so the next window's version publishes while the previous
//     window's batches are still being checked; that is the overlap the
//     strict epoch barrier used to forbid, counted in
//     Stats.Event.OverlappedWindows. Folding mutations (sync join,
//     future get — the ones that can change existing query answers)
//     mark the item a barrier: it publishes only when the pipeline is
//     quiescent, exactly the old epoch boundary. A return retags its
//     own subtree, so an item carrying one waits until no in-flight or
//     published-but-undispatched batch holds a strand of the returned
//     span (single-strand spans are already filtered by the engine: a
//     batch never queries its own strand).
//   - Dispatch, strictly in item order: the oldest published batch
//     becomes a "flight" as soon as its strand differs from and (in
//     MemFull) its page footprint is disjoint with every outstanding
//     flight, and it pins the relation snapshot until its last chunk
//     completes. In-order dispatch is what keeps the old window
//     arguments sound under overlap: a flight sealed before a return
//     can never be dispatched after it.
//
// A large flight is split into footprint-disjoint chunks (event.SplitOps,
// granule Config.StealChunkWords) that are fed one by one to the shared
// work channel, so an idle consumer steals the tail of a batch another
// consumer is still checking (Stats.Event.StolenChunks); each chunk
// claims only its own page range, keeping the shadow install audit
// exact. Flights complete out of order but deliver their race events in
// dispatch order (and within a flight in chunk order = op order), so the
// report stream stays byte-identical to a serial run; verdicts, counters
// and report order are pinned by TestConsumersEquivalence across
// algorithms and consumer counts.
//
// # Fail-closed operation
//
// Every pipeline goroutine runs its per-batch work inside a recover
// shell: a panic — a detector bug, a shadow install-audit violation, or
// an injected fault — is converted into a structured PipelineError that
// poisons the engine (subsequent hooks abort the run with it) and flips
// the pipeline into drain mode: pending items are discarded, chunks not
// yet in a consumer's hands are unqueued so their flights (and pooled
// batches) are reclaimed as soon as the chunks that are come back, and
// intake drains until the engine closes it. Nothing blocks forever: the
// engine's submit path selects against the failure latch, the versioned
// mutation log is failed so Record never waits on a dead applier, and an
// optional watchdog (Config.StallTimeout) converts a silent stall into
// the same structured teardown. The fault matrix in
// internal/progen/fault_test.go drives every injected fault class through
// this machinery and asserts the run either matches serial verdicts
// exactly or returns one PipelineError with no goroutine left behind.
package detect

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"futurerd/internal/core"
	"futurerd/internal/event"
	"futurerd/internal/faultinject"
	"futurerd/internal/shadow"
)

// discCheck is a deferred CheckStructured discipline query: instead of
// draining the pipeline at every get, the engine enqueues the query and
// the back-end answers it from the versioned snapshot at (or safely
// after) the get's version, in stream order.
type discCheck struct {
	futFn   core.FnID
	creator core.StrandID
	getter  core.StrandID
	touches int
}

// workItem is one unit of the pipeline stream: a sealed batch (possibly
// empty — a version-bearing nudge), optionally carrying a deferred
// discipline check.
type workItem struct {
	b    *event.Batch
	disc *discCheck
}

// maxPending caps how many admitted items the scheduler holds before it
// stops taking intake (the items channel buffer then back-pressures the
// engine). Publish and dispatch always make progress on a quiescent
// pipeline, so the cap bounds memory without risking deadlock.
const maxPending = 64

// pipeline is the asynchronous detection back-end: the overlapping-window
// scheduler and its pool of Config.Consumers consumers.
type pipeline struct {
	e         *Engine
	consumers int
	items     chan workItem
	stopped   sync.Once
	schedDone chan struct{}
	nextSeq   uint64 // engine goroutine only (stamped at submit)

	// failCh is the pipeline's failure latch, closed exactly once by the
	// first fail(). Every blocking hand-off in the pipeline selects
	// against it so no goroutine can wait forever on a stage that died.
	failCh   chan struct{}
	failOnce sync.Once

	// Per-stage heartbeats (seal-order item counts): hbSealed advances
	// when the engine submits an item, hbDispatched when a flight's first
	// chunk reaches a consumer, hbChecked when an item is fully processed
	// (checked, answered, or discarded on the drain path). hbSealed ==
	// hbChecked means the pipeline is quiescent. The watchdog fires when
	// none of these (nor the flight gauge) moves for Config.StallTimeout
	// while work is outstanding.
	hbSealed     atomic.Uint64
	hbDispatched atomic.Uint64
	hbChecked    atomic.Uint64
	hbActive     atomic.Int64 // flights dispatched, not yet completed

	// hbMaxWindow is the peak number of concurrently-outstanding flights
	// — a diagnostic (overlap is timing-dependent), deliberately not in
	// Stats.
	hbMaxWindow atomic.Int64

	// Scheduling-outcome counters, merged into Stats.Event by report():
	// chunks checked by a consumer other than the one that took the
	// flight's first chunk, and relation versions published while earlier
	// flights were still outstanding.
	stolen     atomic.Uint64
	overlapped atomic.Uint64

	// testHook, when non-nil, runs on the checking goroutine before each
	// chunk of a non-empty batch is checked (once per batch when the
	// batch was not split); pipeline tests use it to hold batches in
	// flight and to observe concurrent dispatch.
	testHook func(*event.Batch)
}

func newPipeline(e *Engine, consumers int) *pipeline {
	p := &pipeline{
		e:         e,
		consumers: consumers,
		items:     make(chan workItem, 16),
		schedDone: make(chan struct{}),
		failCh:    make(chan struct{}),
	}
	go p.schedule()
	if d := e.cfg.StallTimeout; d > 0 {
		go p.watchdog(d)
	}
	return p
}

// progress snapshots the heartbeat counters. Safe from any goroutine.
func (p *pipeline) progress() PipelineProgress {
	return PipelineProgress{
		Sealed:       p.hbSealed.Load(),
		Dispatched:   p.hbDispatched.Load(),
		Checked:      p.hbChecked.Load(),
		ActiveWindow: int(p.hbActive.Load()),
		MaxWindow:    int(p.hbMaxWindow.Load()),
	}
}

// fail records the pipeline's first failure: the engine is poisoned (its
// next hook aborts the run with pe, and the versioned log stops blocking
// its recorder) and the failure latch is closed so every pipeline
// hand-off unblocks into drain mode. Later failures are dropped — the
// first one is the diagnosis.
func (p *pipeline) fail(pe *PipelineError) {
	p.failOnce.Do(func() {
		p.e.poisonWith(pe)
		close(p.failCh)
	})
}

// failed reports (without blocking) whether the failure latch is closed.
func (p *pipeline) failed() bool {
	select {
	case <-p.failCh:
		return true
	default:
		return false
	}
}

// submit hands one item to the pipeline, stamping its sequence number.
// Engine goroutine only. The send selects against the failure latch so a
// dead pipeline can never block the engine; the dropped item is
// irrelevant because the poisoned engine aborts at its next hook.
func (p *pipeline) submit(it workItem) {
	p.nextSeq++
	it.b.Seq = p.nextSeq
	p.hbSealed.Store(p.nextSeq)
	select {
	case p.items <- it:
	case <-p.failCh:
		event.Recycle(it.b)
	}
}

// stop closes intake and joins every pipeline goroutine — on the success
// path after all items are checked, on the failure path after the drain
// discards what remains. Idempotent, nil-safe; engine goroutine only
// (the only sender on items).
func (p *pipeline) stop() {
	if p == nil {
		return
	}
	p.stopped.Do(func() {
		close(p.items)
		<-p.schedDone
	})
}

// watchdog converts a silent pipeline stall into a structured teardown:
// it samples the heartbeat counters at a quarter of the configured
// timeout and fails the pipeline when nothing has advanced for a full
// timeout while work is outstanding (sealed > checked). It exits with
// the pipeline, or as soon as any stage has already failed.
func (p *pipeline) watchdog(timeout time.Duration) {
	tick := timeout / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	var last PipelineProgress
	var stuck time.Duration
	for {
		select {
		case <-p.schedDone:
			return
		case <-p.failCh:
			return
		case <-t.C:
		}
		cur := p.progress()
		if cur != last {
			last, stuck = cur, 0
			continue
		}
		if cur.Sealed == cur.Checked {
			stuck = 0 // quiescent: nothing outstanding to stall on
			continue
		}
		stuck += tick
		if stuck >= timeout {
			p.fail(&PipelineError{Stage: "watchdog", Progress: cur, Cause: ErrStalled})
			return
		}
	}
}

// chunkWork is one dispatched chunk of a flight: the ops [lo, hi) of
// batch b, claiming only shadow pages in [minPage, maxPage]. Unsplit
// batches travel as a single chunk covering everything.
type chunkWork struct {
	b       *event.Batch
	seq     uint64
	idx     int
	lo, hi  int
	minPage uint64
	maxPage uint64
}

// consResult is one checked chunk coming back from a consumer.
type consResult struct {
	seq      uint64
	idx      int
	consumer int
	events   []shadow.RaceEvent // copied; nil when the chunk was race-free
	err      *PipelineError     // the chunk's check panicked; events invalid
}

// consume is one consumer goroutine of the pool: it checks dispatched
// chunks on its own shadow checker and reports buffered race events back
// for in-order delivery. The batch stays owned by the scheduler (other
// chunks of it may be in other consumers' hands), so the consumer never
// recycles. A panic while checking is recovered into the result's err so
// the scheduler's accounting never loses the chunk; the consumer itself
// keeps serving until work closes, so the join is unconditional.
func (p *pipeline) consume(id int, work <-chan chunkWork, results chan<- consResult, wg *sync.WaitGroup) {
	defer wg.Done()
	e := p.e
	chk := shadow.NewChecker(e.hist, id)
	for cw := range work {
		res := consResult{seq: cw.seq, idx: cw.idx, consumer: id}
		if pe := e.guard("consumer", cw.b, func() {
			if p.testHook != nil {
				p.testHook(cw.b)
			}
			if evs := e.checkChunk(chk, cw); len(evs) > 0 {
				res.events = append([]shadow.RaceEvent(nil), evs...)
			}
		}); pe != nil {
			res.err = pe
			res.events = nil
			// The checker may have died mid-chunk with counters unfolded
			// and audit claims held; End is recover-shelled because the
			// checker's state is arbitrary at this point.
			func() {
				defer func() { recover() }()
				chk.End()
			}()
		}
		results <- res
	}
}

// flight is one dispatched batch: its chunk plan, the per-chunk results
// gathered so far, and (via the scheduler) one relation snapshot pin held
// from dispatch to completion. Flights complete out of order; delivery is
// in dispatch order, and within a flight in chunk order.
type flight struct {
	b      *event.Batch
	seq    uint64
	strand core.StrandID
	chunks []event.OpChunk
	sent   int                  // chunks handed to consumers
	want   int                  // chunk results still expected (drain mode cuts unqueued chunks)
	got    int                  // chunk results received
	done   bool                 // completed: batch recycled, pin released
	events [][]shadow.RaceEvent // per chunk index
	cons   []int                // consumer id per received chunk
	recv   []bool               // chunk result received
}

// splitBatch plans a flight's chunks: one chunk covering everything,
// unless the pool could steal (consumers > 1), the batch is at least two
// granules of work, and its op stream actually separates into disjoint
// page ranges.
func (p *pipeline) splitBatch(b *event.Batch) []event.OpChunk {
	if p.consumers > 1 {
		words := 0
		for i := range b.Ops {
			words += b.Ops[i].Words
		}
		if words >= 2*p.e.stealWords {
			if chunks := event.SplitOps(b.Ops, p.e.stealWords, shadow.PageBits); len(chunks) > 1 {
				return chunks
			}
		}
	}
	return []event.OpChunk{{Lo: 0, Hi: len(b.Ops), MinPage: 0, MaxPage: ^uint64(0)}}
}

// schedule is the scheduler goroutine: it starts the
// consumer pool, runs the publish/dispatch loop inside a recover shell,
// and joins the consumers unconditionally — draining any in-flight
// results while it waits, so a consumer's send can never deadlock the
// teardown.
func (p *pipeline) schedule() {
	defer close(p.schedDone)
	work := make(chan chunkWork)
	results := make(chan consResult, p.consumers)
	var consumers sync.WaitGroup
	for i := 0; i < p.consumers; i++ {
		consumers.Add(1)
		go p.consume(i, work, results, &consumers)
	}
	if pe := p.e.guard("scheduler", nil, func() {
		p.scheduleLoop(work, results)
	}); pe != nil {
		p.fail(pe)
	}
	close(work)
	joined := make(chan struct{})
	go func() {
		consumers.Wait()
		close(joined)
	}()
	for {
		select {
		case <-results:
		case <-joined:
			return
		}
	}
}

// scheduleLoop runs the overlapping-window scheduler: publish versions as
// early as their mutations allow, dispatch published batches as flights
// the moment they conflict with nothing outstanding, feed flight chunks
// to the stealing pool, and deliver completed flights' race events in
// dispatch order. On failure — a consumer's returned error, its own
// bail, or the external latch — it discards everything not in a
// consumer's hands, keeps accounting for what is, and drains intake until
// the engine closes it.
func (p *pipeline) scheduleLoop(work chan<- chunkWork, results <-chan consResult) {
	e := p.e
	full := e.mem == MemFull

	var (
		pending  []workItem // admitted items, seal order
		pub      int        // pending[:pub] published (version applied), awaiting dispatch
		inflight []*flight  // dispatched, not yet delivered; dispatch order
		flightOf = make(map[uint64]*flight)
		sendq    []chunkWork // chunks awaiting a consumer, dispatch order
		active   int         // flights with outstanding chunk results
		applied  uint64      // last version passed to ApplyTo
		closed   bool        // items channel closed
		failed   bool        // drain mode
	)

	deliver := func(fl *flight) {
		for idx := range fl.events {
			for _, ev := range fl.events[idx] {
				e.reportRace(ev.Addr, ev.Racer.Prev, fl.strand, ev.Racer.PrevWrite, ev.Write)
			}
		}
	}

	// complete settles a flight whose last expected chunk result arrived:
	// steal accounting, batch recycle, pin release — then the delivery
	// FIFO drains from the head so reports stay in dispatch order.
	complete := func(fl *flight) {
		fl.done = true
		if len(fl.chunks) > 1 {
			base := -1
			for idx, ok := range fl.recv {
				if !ok {
					continue
				}
				if base < 0 {
					base = fl.cons[idx]
				} else if fl.cons[idx] != base {
					p.stolen.Add(1)
				}
			}
		}
		event.Recycle(fl.b)
		fl.b = nil
		delete(flightOf, fl.seq)
		active--
		p.hbActive.Store(int64(active))
		p.hbChecked.Add(1)
		if e.vr != nil {
			e.vr.Unpin()
		}
		for len(inflight) > 0 && inflight[0].done {
			if !failed {
				deliver(inflight[0])
			}
			inflight[0] = nil
			inflight = inflight[1:]
		}
	}

	// enterFailed flips the loop into drain mode: pending items are
	// recycled, chunks not yet in a consumer's hands are unqueued and cut
	// from their flights' expected-result counts — so a flight (and its
	// pooled batch) is reclaimed as soon as the chunks that were sent
	// come back, and a partially-stolen window leaks nothing — and intake
	// drains until the engine closes it. Idempotent.
	enterFailed := func() {
		if failed {
			return
		}
		failed = true
		for i := range pending {
			event.Recycle(pending[i].b)
			p.hbChecked.Add(1)
		}
		pending, pub = nil, 0
		for _, cw := range sendq {
			flightOf[cw.seq].want--
		}
		sendq = nil
		var ripe []*flight
		for _, fl := range inflight {
			if !fl.done && fl.got == fl.want {
				ripe = append(ripe, fl)
			}
		}
		for _, fl := range ripe {
			complete(fl)
		}
	}

	handleResult := func(r consResult) {
		fl := flightOf[r.seq]
		fl.got++
		fl.recv[r.idx] = true
		fl.cons[r.idx] = r.consumer
		fl.events[r.idx] = r.events
		if r.err != nil {
			p.fail(r.err)
			enterFailed()
		}
		if !fl.done && fl.got == fl.want {
			complete(fl)
		}
	}

	admit := func(it workItem) {
		if failed {
			event.Recycle(it.b)
			p.hbChecked.Add(1)
			return
		}
		pending = append(pending, it)
	}

	// tryPublish advances the publish cursor in item order. An item
	// carrying a folding mutation (Barrier) or any non-pin-safe mutation
	// (ApplyBarrier) publishes only on a quiescent pipeline — the old
	// epoch boundary. A return span must not cover the strand of any
	// outstanding flight (its queries would see the subtree retagged
	// mid-check) nor of any published-but-undispatched batch (its check
	// would run under a too-new relation). Publishing past an outstanding
	// flight is the overlap this scheduler exists for.
	tryPublish := func() {
		for !failed && pub < len(pending) {
			b := pending[pub].b
			if (b.Barrier || b.ApplyBarrier) && (active > 0 || pub > 0) {
				return
			}
			for _, sp := range b.RetSpans {
				for _, fl := range inflight {
					if !fl.done && sp.Contains(fl.strand) {
						return
					}
				}
				for i := 0; i < pub; i++ {
					if sp.Contains(pending[i].b.Strand) {
						return
					}
				}
			}
			if active > 0 {
				e.faults.Delay(faultinject.OverlapStall)
			} else {
				e.faults.Delay(faultinject.SchedulerStall)
			}
			if p.failed() {
				// The latch closed while this goroutine slept (the
				// watchdog's stall path): the item must not be published
				// against a relation that will no longer advance.
				enterFailed()
				return
			}
			if e.vr != nil && b.Version > applied {
				if active > 0 {
					p.overlapped.Add(1)
				}
				e.vr.ApplyTo(b.Version)
				applied = b.Version
			}
			if d := pending[pub].disc; d != nil {
				e.evalDisc(d)
			}
			if len(b.Ops) == 0 {
				event.Recycle(b)
				p.hbChecked.Add(1)
				pending = append(pending[:pub], pending[pub+1:]...)
				continue
			}
			pub++
		}
	}

	// tryDispatch launches published batches as flights, strictly in item
	// order, as soon as the head conflicts with no outstanding flight:
	// distinct strands (same-strand batches share shadow words and must
	// install in order) and, in MemFull, disjoint page footprints.
	tryDispatch := func() {
		for !failed && pub > 0 {
			b := pending[0].b
			for _, fl := range inflight {
				if fl.done {
					continue
				}
				if b.Strand != core.NoStrand && b.Strand == fl.strand {
					return
				}
				if full && b.FP.Overlaps(&fl.b.FP) {
					return
				}
			}
			fl := &flight{b: b, seq: b.Seq, strand: b.Strand}
			fl.chunks = p.splitBatch(b)
			n := len(fl.chunks)
			fl.want = n
			fl.events = make([][]shadow.RaceEvent, n)
			fl.cons = make([]int, n)
			fl.recv = make([]bool, n)
			if e.vr != nil {
				e.vr.Pin()
			}
			inflight = append(inflight, fl)
			flightOf[fl.seq] = fl
			active++
			p.hbActive.Store(int64(active))
			if int64(active) > p.hbMaxWindow.Load() {
				p.hbMaxWindow.Store(int64(active))
			}
			for i, c := range fl.chunks {
				sendq = append(sendq, chunkWork{
					b: b, seq: fl.seq, idx: i, lo: c.Lo, hi: c.Hi,
					minPage: c.MinPage, maxPage: c.MaxPage,
				})
			}
			pending = pending[1:]
			pub--
		}
	}

	for {
		if !failed && p.failed() {
			enterFailed()
		}
		tryPublish()
		tryDispatch()
		if closed && active == 0 && len(pending) == 0 && len(sendq) == 0 {
			return
		}
		// Opportunistically take everything already queued.
		took := false
		for !closed && (failed || len(pending) < maxPending) {
			var it workItem
			var ok bool
			select {
			case it, ok = <-p.items:
			default:
				ok = false
			}
			if !ok {
				break
			}
			admit(it)
			took = true
		}
		if took {
			continue
		}
		// Block until something can move: a chunk hand-off, a result, or
		// (when intake is open and pending has room) the next item.
		canIntake := !closed && (failed || len(pending) < maxPending)
		switch {
		case len(sendq) > 0:
			if canIntake {
				select {
				case work <- sendq[0]:
					p.noteSent(flightOf[sendq[0].seq])
					sendq[0] = chunkWork{}
					sendq = sendq[1:]
				case r := <-results:
					handleResult(r)
				case it, ok := <-p.items:
					if !ok {
						closed = true
					} else {
						admit(it)
					}
				}
			} else {
				select {
				case work <- sendq[0]:
					p.noteSent(flightOf[sendq[0].seq])
					sendq[0] = chunkWork{}
					sendq = sendq[1:]
				case r := <-results:
					handleResult(r)
				}
			}
		case active > 0:
			if canIntake {
				select {
				case r := <-results:
					handleResult(r)
				case it, ok := <-p.items:
					if !ok {
						closed = true
					} else {
						admit(it)
					}
				}
			} else {
				handleResult(<-results)
			}
		default:
			// Nothing in flight and nothing to send: publish and dispatch
			// always make progress on a quiescent pipeline, so pending is
			// necessarily empty — wait for intake.
			it, ok := <-p.items
			if !ok {
				closed = true
			} else {
				admit(it)
			}
		}
	}
}

// noteSent accounts one chunk hand-off; the dispatch heartbeat advances
// on a flight's first chunk.
func (p *pipeline) noteSent(fl *flight) {
	if fl.sent == 0 {
		p.hbDispatched.Add(1)
	}
	fl.sent++
}

// evalDisc answers one deferred discipline check against the relation at
// (or safely after) the get's version. Runs on the engine goroutine on the
// inline pipeline and on the scheduler goroutine otherwise (where
// outstanding flights may be querying concurrently — Precedes is
// snapshot-safe by the QueryConcurrent contract).
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

// MaxDispatchedWindow reports the peak number of concurrently-outstanding
// flights the scheduler reached (0 when the pipeline was inline).
// Overlap is timing-dependent, so this
// is a diagnostic for tests and benchmarks, not part of Stats. Valid
// after Run returns.
func (e *Engine) MaxDispatchedWindow() int {
	if e.be == nil {
		return 0
	}
	return int(e.be.hbMaxWindow.Load())
}
