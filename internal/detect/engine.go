package detect

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"futurerd/internal/core"
	"futurerd/internal/event"
	"futurerd/internal/faultinject"
	"futurerd/internal/graph"
	"futurerd/internal/shadow"
)

// ErrFutureNotReady is wrapped into Report.Err when a get_fut runs before
// its future was created or finished: under depth-first eager execution
// this means the original program can deadlock (§2, forward-pointing
// futures), so detection stops at that point, as in the paper.
var ErrFutureNotReady = errors.New("get_fut on a future that has not completed; " +
	"the program is not forward-pointing and could deadlock")

// errMemFullNeedsMode is wrapped into Report.Err when full memory
// detection is requested with detection disabled: there is no reachability
// algorithm to decide races against.
var errMemFullNeedsMode = errors.New(
	"Config.Mem=MemFull requires a detection mode (use MemInstr for instrumentation-only runs)")

// errBadSampling is wrapped into Report.Err when Config.Sampling is
// malformed; rejecting up front keeps a typo'd rate from silently running
// full (or no) detection.
var errBadSampling = errors.New(
	"Config.Sampling.Rate must be in [0, 1] (0 disables sampling) and Budget must be >= 0")

// engineFailure carries an engine error through panic/recover without
// masking genuine panics from user code.
type engineFailure struct{ err error }

// Engine is the sequential depth-first eager detection engine.
type Engine struct {
	cfg   Config
	st    *core.StrandTable
	reach core.Reach
	hist  *shadow.History

	detecting bool // Mode != ModeNone
	mem       MemLevel

	nextStrand core.StrandID
	nextFn     core.FnID

	// maxStrand is the last strand id newStrand may hand out: core.MaxStrand,
	// lowered only by tests to reach the cap without 2^31 constructs.
	maxStrand core.StrandID

	// sctx is the shadow-layer context prototype: the reachability
	// structure (queried directly, no per-query closure) and its
	// epoch-transfer capability. It is immutable after construction;
	// checkOps copies it and fills in the batch's own generation, so no
	// checking goroutine ever reads engine-mutated state.
	sctx shadow.Ctx

	// chk is the inline pipeline's shadow checker (nil with Consumers >= 1,
	// where each pool consumer owns one).
	chk *shadow.Checker

	// gen is the parallel-construct generation, bumped at every construct
	// — exactly when the reachability relation can mutate or the current
	// strand changes — so the shadow layer's memoized Precedes verdicts
	// and read-shared stamps, keyed on (Gen, strand), can never outlive
	// the relation they were computed under. Engine goroutine only;
	// batches carry their generation to the back-end.
	gen uint64

	// vr, when non-nil (detecting with an asynchronous back-end), is the
	// versioned view of the reachability relation: constructs record
	// their mutations here instead of applying them inline, sealed
	// batches carry the version they were recorded under, and the
	// back-end consumer applies pending mutations up to each batch's
	// version before checking it. Constructs therefore no longer block on
	// back-end drain; the engine may run up to the construct-ahead window
	// ahead of detection.
	vr *core.Versioned

	// nudgeAt is the pending-mutation threshold at which the engine hands
	// the back-end an empty version-bearing batch, keeping the mutation
	// log drainable through construct-dense stretches with no memory
	// traffic (the back-end only applies mutations when it processes a
	// batch). submittedVersion is the relation version carried by the
	// last batch handed to the back-end; mutations at or below it need no
	// nudge.
	nudgeAt          int
	submittedVersion uint64

	// consumers is the effective pipeline width: 0 checks batches inline,
	// 1 or more on the dependency-scheduled consumer pool of that size
	// (Config.Consumers, clamped to 0 when the pool is not eligible: it
	// needs a concurrent-query-safe algorithm, no Verify, no oracle).
	consumers int

	// Dependency classification of construct mutations, accumulated on
	// the engine goroutine between pipeline items (depBarrier/depSpans,
	// consumed by stampDep at every submit) and between sealed non-empty
	// batches (statBarrier/statSpans, consumed by noteBatchStats). A
	// barrier is a mutation that can change existing query answers (sync
	// join, future get); a span names the subtree a return retags.
	// depApplyBarrier additionally accumulates whether any mutation since
	// the last item is not pin-safe — the scheduler must drain snapshot
	// pins before advancing the relation past it.
	depBarrier      bool
	depApplyBarrier bool
	depSpans        []event.StrandSpan
	statBarrier     bool
	statSpans       []event.StrandSpan

	// pinSafe caches the algorithm's core.PinConcurrent mask per mutation
	// op; all-false (every mutation an apply barrier) when the algorithm
	// does not advertise the capability. stealWords is the effective
	// chunk-steal granule (Config.StealChunkWords or the default).
	pinSafe    [6]bool
	stealWords int

	// Batch-pipeline stats (Stats.Event), counted at seal time on the
	// engine goroutine in every pipeline mode, so they are deterministic
	// and identical across Consumers configurations. prevFP,
	// prevStrand and havePrev hold the previous sealed batch's footprint
	// for the pairwise independence classification.
	evStats    event.Stats
	prevFP     event.Footprint
	prevStrand core.StrandID
	havePrev   bool

	// batch is the open access-event batch: Read/Write append to it
	// (coalescing contiguous same-kind accesses into ranges) and the
	// whole batch is handed to the detection back-end at the next
	// parallel construct, or earlier when it reaches batchOps ops. Nil
	// when memory accesses are ignored (Mem == MemOff).
	batch    *event.Batch
	batchOps int

	// be, when non-nil, is the asynchronous detection back-end: sealed
	// batches are checked off the engine goroutine while the program
	// keeps executing — across parallel constructs too, because each
	// batch carries the version of the reachability relation it was
	// recorded under and the back-end applies construct mutations (from
	// vr) so every in-flight check observes a snapshot answering its
	// queries exactly as the batch's own version would. It is the
	// dependency-scheduled consumer pool of sched.go, nil with Consumers == 0.
	be *pipeline

	// faults is the run's fault-injection plan (nil in production: every
	// probe is one nil check).
	faults *faultinject.Plan

	// poisoned is the fail-closed latch: the first pipeline failure
	// stores its PipelineError here (and fails the versioned log so the
	// engine can never block on a dead applier); every subsequent
	// Read/Write/Begin*/End*/Sync/GetFut hook aborts the run with that
	// error instead of feeding a broken pipeline. Written by pipeline
	// goroutines, read by the engine goroutine.
	poisoned atomic.Pointer[PipelineError]

	labels map[core.FnID]string

	// violMu guards violations: Verify-mode reachability mismatches are
	// recorded from the detection back-end goroutine, while discipline
	// violations arrive from the engine goroutine.
	violMu sync.Mutex

	// The race sink. raceMu guards it (and the labels map) because with
	// Consumers >= 1 races are reported from the scheduler goroutine while
	// the engine goroutine keeps executing; the scheduler's in-order
	// delivery keeps them in serial report order. raceSeen
	// maps a racy address to the signature of the recorded strand pair so
	// observations of a different pair at the same address can be counted
	// (droppedPairs) instead of silently vanishing.
	raceMu     sync.Mutex
	races      []Race
	raceSeen   map[uint64]uint64
	raceCount  uint64
	maxRaces   int
	truncRaces uint64
	dropPairs  uint64

	violations []Violation
	dropViol   uint64

	spawns, creates, gets, syncs uint64
	err                          error
}

// NewEngine builds an engine for one run. Engines are single-use.
func NewEngine(cfg Config) *Engine {
	e := &Engine{
		cfg:       cfg,
		detecting: cfg.Mode != ModeNone,
		mem:       cfg.Mem,
		maxRaces:  cfg.MaxRaces,
		faults:    cfg.Faults,
		maxStrand: core.MaxStrand,
	}
	if e.maxRaces <= 0 {
		e.maxRaces = DefaultMaxRaces
	}
	if s := cfg.Sampling; s.Rate < 0 || s.Rate > 1 || s.Rate != s.Rate || s.Budget < 0 {
		// (Rate != Rate rejects NaN.) Fail the run closed before any
		// pipeline state exists; Run returns the report with this error.
		e.err = fmt.Errorf("detect: %w", errBadSampling)
		e.detecting = false
		return e
	}
	if !e.detecting {
		switch cfg.Mem {
		case MemFull:
			// Full detection needs a reachability algorithm to query;
			// reject cleanly instead of nil-panicking on the first access.
			e.err = fmt.Errorf("detect: %w", errMemFullNeedsMode)
		case MemInstr:
			// Instrumentation-only is meaningful without detection (it
			// measures pure hook overhead); initPipeline gives it a
			// history and a checker for the checksum state.
		}
		e.initPipeline(cfg)
		return e
	}
	e.st = core.NewStrandTable(1024)
	switch cfg.Mode {
	case ModeSPBags:
		e.reach = core.NewSPBags(e.st)
	case ModeMultiBags:
		e.reach = core.NewMultiBags(e.st)
	case ModeMultiBagsPlus:
		e.reach = core.NewMultiBagsPlus(e.st)
	case ModeVectorClocks:
		e.reach = core.NewVectorClocks(e.st)
	case ModeOracle:
		e.reach = graph.NewRecorder(e.st)
	default:
		panic(fmt.Sprintf("detect: unknown mode %v", cfg.Mode))
	}
	if cfg.Verify && cfg.Mode != ModeOracle {
		if mbp, ok := e.reach.(*core.MultiBagsPlus); ok {
			mbp.CheckInvariants = true
		}
		e.reach = &verifyReach{
			algo:   e.reach,
			oracle: graph.NewRecorder(e.st),
			eng:    e,
		}
	}
	e.raceSeen = make(map[uint64]uint64)
	e.sctx.Reach = e.reach
	// The carried-forward read epoch engages only when the algorithm
	// offers verdict transfer. The oracle recorder and the Verify
	// cross-check wrapper don't, so verified runs exercise the full
	// protocol on every stamped word — the differential arms compare
	// epoch-on runs against them.
	if ec, ok := e.reach.(core.EpochConcurrent); ok {
		e.sctx.Epoch = ec
	}
	e.initPipeline(cfg)
	return e
}

// initPipeline sets up the shadow history and the access-event batch
// layer: every engine that observes memory accesses batches them.
// Consumers == 0 checks each batch inline on the engine goroutine;
// Consumers >= 1 checks batches off it on the scheduled consumer pool,
// overlapping detection with continued program execution. An ineligible
// run (oracle, Verify) checks inline. An asynchronous detecting engine
// also versions its reachability relation so constructs need not block
// on back-end drain.
func (e *Engine) initPipeline(cfg Config) {
	if cfg.Mem == MemOff || e.err != nil {
		return
	}
	e.consumers = max(cfg.Consumers, 0)
	if !e.consumersEligible(cfg) {
		e.consumers = 0
	}
	e.hist = shadow.NewHistory(e.consumers > 1)
	e.hist.SetFaults(cfg.Faults)
	if e.detecting && cfg.Mem == MemFull && cfg.Sampling.Rate > 0 {
		// Tier-1 sampling sits between the shadow layer's free skips and
		// the protocol; it only exists where the protocol runs.
		e.hist.SetSampling(cfg.Sampling.Rate, cfg.Sampling.Budget, cfg.Sampling.Seed)
	}
	e.batch = event.New()
	e.batchOps = cfg.BatchOps
	if e.batchOps <= 0 {
		e.batchOps = event.MaxOps
	}
	e.stealWords = cfg.StealChunkWords
	if e.stealWords <= 0 {
		e.stealWords = 4 << shadow.PageBits
	}
	if e.consumers == 0 {
		e.chk = shadow.NewChecker(e.hist, 0)
		return
	}
	if e.detecting {
		e.vr = core.NewVersioned(e.reach, cfg.ConstructAhead)
		e.nudgeAt = e.vr.Window() / 2
		if e.nudgeAt < 1 {
			e.nudgeAt = 1
		}
		// The pin-safe mask decides which recorded mutations the
		// overlapping-window scheduler may apply under live snapshot
		// pins. Asserted on the final (possibly wrapped) reach, so Verify
		// and the oracle conservatively barrier everything.
		if pc, ok := e.reach.(core.PinConcurrent); ok {
			for op := core.MutInit; op <= core.MutGet; op++ {
				e.pinSafe[op] = pc.PinSafeMut(op)
			}
		}
	}
	if e.consumers > 1 {
		// Debug assertion backing the whole-pipeline invariant:
		// concurrently-checked batches touch disjoint shadow pages. Cheap
		// (a few span comparisons per batch), so it is always on when the
		// consumer pool is, and the -race CI suite runs it.
		e.hist.EnableInstallAudit()
	}
	e.be = newPipeline(e, e.consumers)
}

// consumersEligible reports whether the consumer pool may run:
// its consumers query the reachability relation concurrently (under a
// pinned snapshot), so the algorithm must advertise QueryConcurrent;
// Verify wraps queries in oracle cross-checks and stays serial, as does
// the oracle itself. Instrumentation-only engines make no queries and
// always qualify.
func (e *Engine) consumersEligible(cfg Config) bool {
	if !e.detecting {
		return true // MemInstr without detection: touch traffic only
	}
	if cfg.Verify || cfg.Mode == ModeOracle {
		return false
	}
	if cfg.Mem == MemInstr {
		return true
	}
	qc, ok := e.reach.(core.QueryConcurrent)
	return ok && qc.ConcurrentPrecedesSafe()
}

// maxDepSpans bounds either dependency-span accumulator between resets;
// past it the accumulator degrades to a barrier (strictly more
// conservative: a barrier subsumes every span conflict), so access-free
// spawn storms cannot grow memory while nothing flushes.
const maxDepSpans = 1024

// addDepSpan appends sp to one accumulator under the subsumption and
// bounding rules: a set barrier already serializes against everything a
// span could, and an over-full accumulator collapses into one.
func addDepSpan(barrier *bool, spans []event.StrandSpan, sp event.StrandSpan) []event.StrandSpan {
	if *barrier {
		return spans
	}
	if len(spans) >= maxDepSpans {
		*barrier = true
		return spans[:0]
	}
	return append(spans, sp)
}

// classifyMut accumulates the dependency class of one construct mutation
// for the scheduler (dep*) and the batch stats (stat*): joins and gets
// are barriers, returns of multi-strand subtrees carry their strand span,
// spawns/creates/init only introduce fresh elements and are free. With no
// batch layer (MemOff) nothing ever consumes or resets the accumulators,
// so classification is skipped entirely.
func (e *Engine) classifyMut(m *core.Mut) {
	if e.batch == nil {
		return
	}
	if !m.PinSafe {
		e.depApplyBarrier = true
	}
	switch m.Op {
	case core.MutJoin, core.MutGet:
		e.depBarrier, e.statBarrier = true, true
	case core.MutReturn:
		if m.Return.First != m.Return.Last {
			sp := event.StrandSpan{First: m.Return.First, Last: m.Return.Last}
			e.depSpans = addDepSpan(&e.depBarrier, e.depSpans, sp)
			e.statSpans = addDepSpan(&e.statBarrier, e.statSpans, sp)
		}
		// A single-strand subtree's return retags a bag no other strand
		// occupies and a batch never queries its own strand, so it cannot
		// conflict with any in-flight batch: drop the span entirely. This
		// is what lets wide fan-outs of leaf tasks (spawn, body, return,
		// spawn, ...) form one independent window.
	}
}

// stampDep moves the accumulated since-last-item dependency info onto the
// outgoing batch and resets the accumulator. Engine goroutine only.
func (e *Engine) stampDep(b *event.Batch) {
	b.Barrier = e.depBarrier
	b.ApplyBarrier = e.depApplyBarrier
	b.RetSpans = append(b.RetSpans[:0], e.depSpans...)
	e.depBarrier = false
	e.depApplyBarrier = false
	e.depSpans = e.depSpans[:0]
}

// noteBatchStats classifies one sealed non-empty batch against its
// predecessor (the deterministic pairwise form of the scheduler's
// independence condition) and sizes its footprint, in every pipeline
// mode, so Stats.Event is identical across Consumers configs.
func (e *Engine) noteBatchStats(b *event.Batch) {
	e.evStats.Batches++
	e.evStats.FootprintSpans += uint64(len(b.FP.Spans))
	e.evStats.FootprintPages += b.FP.Pages()
	if !b.FP.Exact {
		e.evStats.CollapsedFootprints++
	}
	dep := !e.havePrev || e.statBarrier || b.Strand == e.prevStrand ||
		b.FP.Overlaps(&e.prevFP)
	if !dep {
		for _, sp := range e.statSpans {
			if sp.Contains(e.prevStrand) {
				dep = true
				break
			}
		}
	}
	if dep {
		e.evStats.SerializedBatches++
	} else {
		e.evStats.IndependentBatches++
	}
	e.statBarrier = false
	e.statSpans = e.statSpans[:0]
	e.prevFP.Spans = append(e.prevFP.Spans[:0], b.FP.Spans...)
	e.prevFP.Exact = b.FP.Exact
	e.prevStrand = b.Strand
	e.havePrev = true
}

// mutate applies one construct mutation to the reachability relation:
// inline when the pipeline is synchronous, recorded into the versioned log
// (for the back-end to apply in batch order) when it is not. Either way
// the mutation's dependency class is accumulated for the scheduler and
// the batch stats.
func (e *Engine) mutate(m core.Mut) {
	m.PinSafe = e.pinSafe[m.Op]
	if e.vr == nil {
		e.classifyMut(&m)
		m.ApplyTo(e.reach)
		return
	}
	// The log must stay drainable before Record can block on the window,
	// and the back-end only applies mutations when it processes a
	// version-bearing batch. Normally the batches themselves cover that —
	// submittedVersion tracks the version carried by the last submitted
	// batch — so a nudge (an empty batch at the current version) is only
	// needed on construct-dense stretches whose mutations outpace real
	// traffic. The guard is lock-free and rate-limited to one nudge per
	// nudgeAt mutations: applied never exceeds submittedVersion while the
	// back-end runs, so staying within nudgeAt of the last submitted
	// version guarantees the applier can always bring the lag back under
	// the window, and Record can never block for good. Submitting may
	// block briefly on the batch channel, which is ordinary back-pressure.
	if rec := e.vr.Recorded(); rec-e.submittedVersion >= uint64(e.nudgeAt) {
		b := event.New()
		b.Gen = e.gen
		b.Version = rec
		e.submittedVersion = rec
		// The nudge carries the dependency info of the mutations recorded
		// before it; m itself is recorded after the nudge's version and is
		// classified below, for the next item.
		e.stampDep(b)
		e.be.submit(workItem{b: b})
	}
	e.classifyMut(&m)
	e.vr.Record(m)
}

// Run executes root under the engine and returns the report.
func (e *Engine) Run(root func(*Task)) *Report {
	if e.err != nil {
		// The configuration was rejected at construction; do not run user
		// code under hooks that cannot work.
		return e.report()
	}
	t := &Task{ex: e}
	// Join the detection back-end on every exit path, including a genuine
	// user panic that the recover below re-raises (stop is idempotent and
	// nil-safe; report() also stops it).
	defer e.be.stop()
	if e.detecting {
		t.fn = e.newFn()
		t.strand = e.newStrand(t.fn)
		e.mutate(core.Mut{Op: core.MutInit, InitFn: t.fn, InitS: t.strand})
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if f, ok := r.(engineFailure); ok {
					e.err = f.err
					return
				}
				panic(r)
			}
		}()
		root(t)
		e.Sync(t) // implicit sync at the end of main
	}()
	return e.report()
}

func (e *Engine) report() *Report {
	e.seal()    // flush any still-open batch
	e.be.stop() // quiesce the detection back-end (nil-safe)
	if e.batch != nil {
		// Return the (now necessarily empty) open batch to the pool so a
		// run checks exactly as many batches back in as it took out —
		// event.Live() deltas are the leak test's oracle.
		event.Recycle(e.batch)
		e.batch = nil
	}
	if e.err == nil {
		// A pipeline failure the engine never tripped over (it poisoned
		// after the last hook ran) still fails the run closed.
		if pe := e.poisoned.Load(); pe != nil {
			e.err = pe
		}
	}
	if e.vr != nil {
		e.vr.Drain() // post-run mutation drain; no-op after a failure
	}
	if v, ok := e.reach.(*verifyReach); ok {
		if mbp, ok := v.algo.(*core.MultiBagsPlus); ok {
			for _, s := range mbp.Violations {
				e.violate("structural-invariant", s)
			}
		}
	}
	// Resolve race labels against the final label map: the back-end may
	// have recorded a race before a Label call it logically follows (a
	// batch can flush mid-window), so the report is labeled here, after
	// the run, where the outcome is deterministic for any pipeline mode.
	for i := range e.races {
		r := &e.races[i]
		r.PrevLabel = e.labels[e.st.FnOf(r.Prev)]
		r.CurrLabel = e.labels[e.st.FnOf(r.Curr)]
	}
	rep := &Report{
		Races:      e.races,
		Violations: e.violations,
		Err:        e.err,
		Algorithm:  e.cfg.Mode.String(),
	}
	rep.Stats = Stats{
		Spawns: e.spawns, Creates: e.creates, Gets: e.gets, Syncs: e.syncs,
		RaceCount:      e.raceCount,
		TruncatedRaces: e.truncRaces, DroppedPairs: e.dropPairs,
		TruncatedViolations: e.dropViol,
	}
	if e.detecting {
		rep.Stats.Strands = e.st.Len()
		rep.Stats.Functions = int(e.nextFn)
		rep.Stats.Reach = e.reach.Stats()
	}
	if e.hist != nil {
		rep.Stats.Shadow = e.hist.Stats()
		rep.Stats.Event = e.evStats
		if e.be != nil {
			// Scheduling-outcome counters live on the pipeline (they are
			// counted where the decisions happen) and are merged here;
			// unlike the rest of Stats.Event they are timing-dependent.
			rep.Stats.Event.StolenChunks = e.be.stolen.Load()
			rep.Stats.Event.OverlappedWindows = e.be.overlapped.Load()
		}
	}
	return rep
}

func (e *Engine) fail(err error) { panic(engineFailure{err}) }

// poisonWith latches the first pipeline failure: the error is stored for
// every later hook to trip over, and the versioned mutation log is failed
// so the engine can never block in Record waiting for an applier that
// died. Idempotent; safe from any goroutine.
func (e *Engine) poisonWith(pe *PipelineError) {
	if e.poisoned.CompareAndSwap(nil, pe) {
		if e.vr != nil {
			e.vr.Fail()
		}
	}
}

// checkPoison aborts the run with the latched pipeline failure, if any.
// Called at the head of every execution hook, so a poisoned engine
// surfaces its error at the next instrumented operation instead of
// deadlocking against a dead back-end.
func (e *Engine) checkPoison() {
	if pe := e.poisoned.Load(); pe != nil {
		e.fail(pe)
	}
}

// newPipelineError builds the structured failure for a recovered panic r
// in the named stage, snapshotting the batch in hand and the pipeline's
// progress counters.
func (e *Engine) newPipelineError(stage string, b *event.Batch, r any) *PipelineError {
	pe := &PipelineError{Stage: stage, Batch: batchDiag(b)}
	if b != nil {
		pe.Seq = b.Seq
	}
	if err, ok := r.(error); ok {
		pe.Cause = err
	} else {
		pe.Cause = fmt.Errorf("panic: %v", r)
	}
	if e.be != nil {
		pe.Progress = e.be.progress()
	}
	return pe
}

// guard is the pipeline's one recover shell: it runs fn and converts a
// panic — injected, an audit violation, or a detector bug — into a
// structured PipelineError for the named stage (nil when fn completes).
// No user code runs below it, so the recover cannot mask a user panic.
// Under the futurerd_debug build tag a shadow install-audit violation
// re-panics instead: the -race CI suite must halt hard on a scheduler
// bug, while production builds fail closed.
func (e *Engine) guard(stage string, b *event.Batch, fn func()) (pe *PipelineError) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*shadow.AuditError); ok && faultinject.Debug {
				panic(r)
			}
			pe = e.newPipelineError(stage, b, r)
		}
	}()
	fn()
	return nil
}

// DAG runs root under the oracle recorder and returns the recorded
// computation dag in Graphviz DOT format. Useful for visualizing small
// programs; the dag has one node per strand.
func DAG(root func(*Task)) (string, error) {
	e := NewEngine(Config{Mode: ModeOracle})
	rep := e.Run(root)
	if rep.Err != nil {
		return "", rep.Err
	}
	return e.reach.(*graph.Recorder).DOT(), nil
}

func (e *Engine) newFn() core.FnID {
	e.nextFn++
	return e.nextFn
}

// newStrand allocates the next strand id for function fn. At the id cap
// the run fails closed with a PipelineError caused by ErrStrandOverflow
// instead of wrapping into ids the shadow layer would misread.
func (e *Engine) newStrand(fn core.FnID) core.StrandID {
	if e.nextStrand >= e.maxStrand {
		pe := e.newPipelineError("engine", nil, ErrStrandOverflow)
		e.poisonWith(pe)
		e.fail(pe)
	}
	e.nextStrand++
	e.st.Add(e.nextStrand, fn)
	return e.nextStrand
}

// Label attaches a human-readable label to the current function instance
// of t (the task's whole body); races involving any of its strands carry
// it in the final report (resolved once the run completes, so a label
// applies to its function's races regardless of where in the body it was
// set). No-op when not detecting. raceMu orders the map write against
// the asynchronous back-end's best-effort label lookups for OnRace.
func (e *Engine) Label(t *Task, label string) {
	if !e.detecting {
		return
	}
	e.raceMu.Lock()
	defer e.raceMu.Unlock()
	if e.labels == nil {
		e.labels = make(map[core.FnID]string)
	}
	e.labels[t.fn] = label
}

// Spawn implements Executor.
func (e *Engine) Spawn(t *Task, f func(*Task)) {
	child := e.BeginSpawn(t)
	f(child)
	e.EndSpawn(t, child)
}

// BeginSpawn starts a spawned child without running a body: it seals the
// open access batch, records the fork with the reachability algorithm and
// returns the child task. Callers must pair it with EndSpawn after the
// child's events have been delivered. Task.Spawn is BeginSpawn + body +
// EndSpawn; streaming front-ends (internal/trace's iterative replay) call
// the pair directly so task nesting lives on their explicit stack instead
// of the Go call stack.
func (e *Engine) BeginSpawn(t *Task) *Task {
	e.checkPoison()
	e.seal()
	e.spawns++
	e.gen++
	if !e.detecting {
		return &Task{ex: e}
	}
	fork := t.strand
	childFn := e.newFn()
	childFirst := e.newStrand(childFn)
	cont := e.newStrand(t.fn)
	e.mutate(core.Mut{Op: core.MutSpawn, Spawn: core.SpawnRec{
		ParentFn: t.fn, ChildFn: childFn,
		Fork: fork, ChildFirst: childFirst, ContFirst: cont,
	}})
	child := &Task{ex: e, fn: childFn, strand: childFirst}
	child.born = spawnRec{childFn: childFn, fork: fork, childFirst: childFirst, cont: cont}
	return child
}

// EndSpawn completes a child started by BeginSpawn: the child's implicit
// function-end sync runs, its return is recorded, and the parent resumes
// on the continuation strand.
func (e *Engine) EndSpawn(t, child *Task) {
	if !e.detecting {
		return
	}
	e.Sync(child) // implicit sync at function end (seals the child's batch)
	r := child.born
	r.childLast = child.strand
	e.mutate(core.Mut{Op: core.MutReturn, Return: core.ReturnRec{
		Fn: child.fn, ParentFn: t.fn, First: r.childFirst, Last: r.childLast,
	}})
	t.spawns = append(t.spawns, r)
	t.strand = r.cont
}

// Sync implements Executor: it decomposes the join into one binary join
// per outstanding child, innermost (most recently spawned) first.
func (e *Engine) Sync(t *Task) {
	e.checkPoison()
	e.seal()
	e.syncs++
	e.gen++
	if !e.detecting || len(t.spawns) == 0 {
		t.spawns = t.spawns[:0]
		return
	}
	cur := t.strand
	for i := len(t.spawns) - 1; i >= 0; i-- {
		r := t.spawns[i]
		j := e.newStrand(t.fn)
		e.mutate(core.Mut{Op: core.MutJoin, Join: core.JoinRec{
			Fn: t.fn, ChildFn: r.childFn,
			Fork: r.fork, ChildFirst: r.childFirst, ContFirst: r.cont,
			ChildLast: r.childLast, ContLast: cur, Join: j,
		}})
		cur = j
	}
	t.spawns = t.spawns[:0]
	t.strand = cur
}

// CreateFut implements Executor. Under eager execution the body runs to
// completion immediately; the continuation strand is still logically
// parallel with it.
func (e *Engine) CreateFut(t *Task, body func(*Task) any) *Fut {
	child, h := e.BeginFut(t)
	v := body(child)
	e.EndFut(t, child, h, v)
	return h
}

// BeginFut starts a future child without running a body, returning the
// child task and the (not yet completed) handle. Pair with EndFut; see
// BeginSpawn for the streaming-front-end rationale.
func (e *Engine) BeginFut(t *Task) (*Task, *Fut) {
	e.checkPoison()
	e.seal()
	e.creates++
	e.gen++
	if !e.detecting {
		return &Task{ex: e}, &Fut{}
	}
	creator := t.strand
	futFn := e.newFn()
	futFirst := e.newStrand(futFn)
	cont := e.newStrand(t.fn)
	e.mutate(core.Mut{Op: core.MutCreate, Create: core.CreateRec{
		ParentFn: t.fn, FutFn: futFn,
		Creator: creator, FutFirst: futFirst, ContFirst: cont,
	}})
	h := &Fut{fn: futFn, creatorStrand: creator, first: futFirst}
	child := &Task{ex: e, fn: futFn, strand: futFirst}
	child.born = spawnRec{cont: cont}
	return child, h
}

// EndFut completes a future child started by BeginFut with value val: the
// child's implicit function-end sync runs, the handle is marked done, and
// the creator resumes on the continuation strand.
func (e *Engine) EndFut(t, child *Task, h *Fut, val any) {
	if !e.detecting {
		h.Complete(val)
		return
	}
	h.val = val
	e.Sync(child) // implicit sync at function end (seals the child's batch)
	h.last = child.strand
	h.done = true
	e.mutate(core.Mut{Op: core.MutReturn, Return: core.ReturnRec{
		Fn: h.fn, ParentFn: t.fn, First: h.first, Last: h.last,
	}})
	t.strand = child.born.cont
}

// GetFut implements Executor.
func (e *Engine) GetFut(t *Task, h *Fut) any {
	e.checkPoison()
	e.seal()
	e.gets++
	e.gen++
	if h == nil {
		e.fail(fmt.Errorf("%w (nil handle)", ErrFutureNotReady))
	}
	if !e.detecting {
		return h.val
	}
	if !h.done {
		e.fail(ErrFutureNotReady)
	}
	getter := t.strand
	h.touches++
	if e.cfg.CheckStructured {
		// The discipline query (creator sequentially precedes getter) must
		// see the relation at exactly this construct's version. The engine
		// no longer drains the back-end for it: with an asynchronous
		// pipeline the check is deferred — enqueued in stream order and
		// answered from the versioned snapshot once the back-end has
		// applied this version — because a violation is recorded, never
		// acted on, so nothing downstream needs the answer eagerly. The
		// synchronous pipeline's relation is always current and evaluates
		// inline.
		d := &discCheck{
			futFn:   h.fn,
			creator: h.creatorStrand,
			getter:  getter,
			touches: h.touches,
		}
		if e.be != nil {
			b := event.New()
			b.Strand = getter
			b.Gen = e.gen
			if e.vr != nil {
				b.Version = e.vr.Recorded()
				e.submittedVersion = b.Version
			}
			e.stampDep(b)
			e.be.submit(workItem{b: b, disc: d})
		} else {
			e.evalDisc(d)
		}
	}
	cont := e.newStrand(t.fn)
	e.mutate(core.Mut{Op: core.MutGet, Get: core.GetRec{
		Fn: t.fn, FutFn: h.fn,
		Getter: getter, FutLast: h.last, Cont: cont,
		Creator: h.creatorStrand, Touch: h.touches,
	}})
	t.strand = cont
	return h.val
}

// MaxViolations bounds the violations collected in a report; the overflow
// is counted in Stats.TruncatedViolations instead of vanishing.
const MaxViolations = 256

func (e *Engine) violate(kind, detail string) {
	e.violMu.Lock()
	defer e.violMu.Unlock()
	if len(e.violations) < MaxViolations {
		e.violations = append(e.violations, Violation{Kind: kind, Detail: detail})
		return
	}
	e.dropViol++
}

// Read implements Executor: the access is appended to the open event
// batch (coalescing contiguous same-kind accesses into ranges), and the
// batch as a whole reaches the shadow layer at the next parallel
// construct — or earlier when it fills — where the page lookup, strand
// and race plumbing are resolved once per coalesced range.
func (e *Engine) Read(t *Task, addr uint64, words int) {
	e.access(t, event.Read, addr, words)
}

// Write implements Executor.
func (e *Engine) Write(t *Task, addr uint64, words int) {
	e.access(t, event.Write, addr, words)
}

func (e *Engine) access(t *Task, k event.Kind, addr uint64, words int) {
	if e.batch == nil || words <= 0 {
		return
	}
	e.checkPoison()
	if len(e.batch.Ops) > 0 && e.batch.Strand != t.strand {
		// Unreachable today — the current strand only changes at
		// constructs, which seal — but the single-strand batch invariant
		// is what makes overlapped checking sound, so enforce it locally.
		e.flushBatch()
	}
	e.batch.Strand = t.strand
	if e.batch.Append(k, addr, words) >= e.batchOps {
		e.flushBatch()
	}
}

// seal closes the open batch at a parallel construct. The batch leaves
// stamped with the generation and relation version it executed under, so
// an asynchronous back-end can keep checking it — against the immutable
// snapshot named by that version — while the construct proceeds and the
// program keeps executing: constructs do not block on back-end drain.
func (e *Engine) seal() {
	if e.batch == nil {
		return
	}
	e.flushBatch()
}

// flushBatch hands the open batch to the detection back-end: inline on
// the engine goroutine when the pipeline is synchronous, queued to the
// back-end (overlapping continued execution) when it is not. The batch is
// stamped with the current construct generation, relation version, page
// footprint and dependency info either way, and the batch-pipeline stats
// are counted here so they are identical across pipeline modes.
func (e *Engine) flushBatch() {
	if len(e.batch.Ops) == 0 {
		return
	}
	b := e.batch
	b.Gen = e.gen
	if e.vr != nil {
		b.Version = e.vr.Recorded()
		e.submittedVersion = b.Version
	}
	b.Summarize(shadow.PageBits)
	e.noteBatchStats(b)
	e.stampDep(b)
	if e.faults.Fire(faultinject.CorruptFootprint) {
		// After noteBatchStats, so the deterministic Stats.Event counters
		// stay identical to a fault-free run; only the scheduler and the
		// install audit see the lie.
		b.FP.Corrupt()
	}
	if e.be != nil {
		e.batch = event.New()
		e.be.submit(workItem{b: b})
		return
	}
	if pe := e.guard("inline", b, func() {
		for _, ev := range e.checkChunk(e.chk, chunkWork{b: b, hi: len(b.Ops), maxPage: ^uint64(0)}) {
			e.reportRace(ev.Addr, ev.Racer.Prev, b.Strand, ev.Racer.PrevWrite, ev.Write)
		}
	}); pe != nil {
		e.poisonWith(pe)
	}
	b.Reset()
}

// checkChunk is the per-batch body every pipeline shares: the consumer
// fault probes, the install-audit page claims, and the check of ops
// [cw.lo, cw.hi) of cw.b on checker c. Every op was performed by the
// batch's strand under the relation snapshot named by its version, which
// the scheduler has published before dispatch. The checker starts the
// chunk with cold verdict caches, whichever pipeline runs it, so memo-hit
// counters cannot depend on the configuration. It returns c's buffered
// race events for the caller to deliver (valid until c's next chunk).
// The inline pipeline checks each batch as one chunk.
func (e *Engine) checkChunk(c *shadow.Checker, cw chunkWork) []shadow.RaceEvent {
	if e.faults.Fire(faultinject.ConsumerPanic) {
		panic(faultinject.Panic{Point: faultinject.ConsumerPanic})
	}
	if cw.idx > 0 && e.faults.Fire(faultinject.StealPanic) {
		panic(faultinject.Panic{Point: faultinject.StealPanic})
	}
	e.faults.Delay(faultinject.ConsumerStall)
	b := cw.b
	ctx := e.sctx
	ctx.Gen = b.Gen
	c.Begin(&ctx, b.Strand)
	if e.mem == MemFull {
		// The install audit asserts concurrent checks touch disjoint
		// shadow pages, so each chunk claims the batch footprint clipped
		// to its own page range — chunk ranges are disjoint by
		// construction (event.SplitOps). Instrumentation-only batches
		// never touch shadow state (TouchRange is a pure checksum), so the
		// scheduler legitimately overlaps them and they claim nothing.
		var buf [event.MaxFootprintSpans]shadow.PageClaim
		claims := buf[:0]
		for _, sp := range b.FP.Spans {
			if lo, hi := max(sp.Lo, cw.minPage), min(sp.Hi, cw.maxPage); lo <= hi {
				claims = append(claims, shadow.PageClaim{Lo: lo, Hi: hi})
			}
		}
		c.Claim(claims)
		for i := cw.lo; i < cw.hi; i++ {
			op := &b.Ops[i]
			if op.Kind == event.Read {
				c.ReadRange(op.Addr, op.Words)
			} else {
				c.WriteRange(op.Addr, op.Words)
			}
		}
	} else {
		// MemInstr: decode-only traffic.
		for i := cw.lo; i < cw.hi; i++ {
			c.TouchRange(b.Ops[i].Addr, b.Ops[i].Words)
		}
	}
	c.End()
	return c.Events()
}

// pairSig condenses a race's identity beyond its address — the strand
// pair and access kinds — for the per-address dedupe bookkeeping.
func pairSig(prev, cur core.StrandID, prevWrite, curWrite bool) uint64 {
	// Strand ids are capped at core.MaxStrand (2^31-1), so the top bit of
	// each half carries the access kind.
	sig := uint64(prev)<<32 | uint64(cur)
	if prevWrite {
		sig |= 1 << 63
	}
	if curWrite {
		sig |= 1 << 31
	}
	return sig
}

func (e *Engine) reportRace(addr uint64, prev, cur core.StrandID, prevWrite, curWrite bool) {
	e.raceMu.Lock()
	defer e.raceMu.Unlock()
	e.raceCount++
	sig := pairSig(prev, cur, prevWrite, curWrite)
	if seen, ok := e.raceSeen[addr]; ok {
		if seen != sig {
			e.dropPairs++
		}
		return
	}
	e.raceSeen[addr] = sig
	if len(e.races) >= e.maxRaces {
		e.truncRaces++
		return
	}
	r := Race{
		Addr: addr, Prev: prev, Curr: cur,
		PrevWrite: prevWrite, CurrWrite: curWrite,
		PrevLabel: e.labels[e.st.FnOf(prev)], CurrLabel: e.labels[e.st.FnOf(cur)],
	}
	e.races = append(e.races, r)
	if e.cfg.OnRace != nil {
		e.cfg.OnRace(r)
	}
}

// verifyReach forwards every event to both the algorithm under test and
// the dag oracle, compares every Precedes verdict, and records
// disagreements as violations. The oracle's answer is returned so
// detection results are ground truth.
type verifyReach struct {
	algo   core.Reach
	oracle *graph.Recorder
	eng    *Engine
}

func (v *verifyReach) Name() string { return v.algo.Name() + "+verify" }

func (v *verifyReach) Init(f core.FnID, s core.StrandID) {
	v.algo.Init(f, s)
	v.oracle.Init(f, s)
}
func (v *verifyReach) Spawn(r core.SpawnRec)      { v.algo.Spawn(r); v.oracle.Spawn(r) }
func (v *verifyReach) CreateFut(r core.CreateRec) { v.algo.CreateFut(r); v.oracle.CreateFut(r) }
func (v *verifyReach) Return(r core.ReturnRec)    { v.algo.Return(r); v.oracle.Return(r) }
func (v *verifyReach) SyncJoin(r core.JoinRec)    { v.algo.SyncJoin(r); v.oracle.SyncJoin(r) }
func (v *verifyReach) GetFut(r core.GetRec)       { v.algo.GetFut(r); v.oracle.GetFut(r) }

func (v *verifyReach) Precedes(u, w core.StrandID) bool {
	a := v.algo.Precedes(u, w)
	b := v.oracle.Precedes(u, w)
	if a != b {
		v.eng.violate("reach-mismatch", fmt.Sprintf(
			"%s says Precedes(%d,%d)=%v, oracle says %v", v.algo.Name(), u, w, a, b))
	}
	return b
}

func (v *verifyReach) Stats() core.ReachStats { return v.algo.Stats() }
