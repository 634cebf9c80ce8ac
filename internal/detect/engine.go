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

	// chk is the run's one shadow checker (nil with Mem == MemOff): the
	// inline pipeline checks on it on the engine goroutine, the async
	// consumer on its own.
	chk *shadow.Checker

	// gen is the parallel-construct generation, bumped at every construct
	// — exactly when the reachability relation can mutate or the current
	// strand changes. Engine goroutine only; batches carry their
	// generation to the back-end, which names it in PipelineError
	// snapshots.
	gen uint64

	// evStats counts sealed batches (Stats.Event) on the engine goroutine,
	// so it is identical across Consumers configurations.
	evStats event.Stats

	// seq is the sequence number handOff stamped on the last batch it
	// handed off. Engine goroutine only.
	seq uint64

	// batch is the open batch: constructs append their reachability
	// mutations to it and Read/Write their accesses (coalescing contiguous
	// same-kind accesses into ranges), and handOff passes it to detection
	// at the next parallel construct after an access, or earlier when it
	// reaches event.MaxOps ops or maxMuts mutations. Nil when the run has
	// neither (no detection and Mem == MemOff).
	batch *event.Batch

	// be, when non-nil, is the async consumer of sched.go: handOff queues
	// each batch to it, and it processes them off the engine goroutine
	// while the program keeps executing. Nil with Consumers <= 0, where
	// handOff processes each batch in place.
	be *pipeline

	// faults is the run's fault-injection plan (nil in production: every
	// probe is one nil check).
	faults *faultinject.Plan

	// poisoned is the fail-closed latch: the first pipeline failure
	// stores its PipelineError here; every subsequent Read/Write/Begin*/
	// End*/Sync/GetFut hook aborts the run with that error instead of
	// feeding a broken pipeline. Written by pipeline goroutines, read by
	// the engine goroutine.
	poisoned atomic.Pointer[PipelineError]

	labels map[core.FnID]string

	// violMu guards violations: Verify-mode reachability mismatches and
	// discipline checks are recorded wherever batches are processed (the
	// consumer on the async pipeline), structural invariants by report.
	violMu sync.Mutex

	// The race sink. raceMu guards it (and the labels map) because with
	// Consumers >= 1 races are reported from the consumer while the engine
	// goroutine keeps executing; the consumer checks batches in seal
	// order, so reports stay in serial report order. raceSeen
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

// Tuning holds the engine settings that exist for tests rather than for
// users; the zero value is what NewEngine runs with.
type Tuning struct {
	// Faults, when non-nil, arms deterministic fault injection at the
	// pipeline's instrumented sites — consumer panics, consumer stalls,
	// failed page materializations. For the robustness test suite; nil
	// keeps every probe at one nil check.
	Faults *faultinject.Plan
}

// NewEngine builds an engine for one run. Engines are single-use.
func NewEngine(cfg Config) *Engine {
	return NewTunedEngine(cfg, Tuning{})
}

// NewTunedEngine is NewEngine with test and sweep settings applied.
func NewTunedEngine(cfg Config, tu Tuning) *Engine {
	e := &Engine{
		cfg:       cfg,
		detecting: cfg.Mode != ModeNone,
		mem:       cfg.Mem,
		maxRaces:  cfg.MaxRaces,
		faults:    tu.Faults,
		maxStrand: core.MaxStrand,
	}
	if e.maxRaces <= 0 {
		e.maxRaces = DefaultMaxRaces
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
		e.initPipeline(cfg, tu)
		return e
	}
	e.st = core.NewStrandTable()
	switch cfg.Mode {
	case ModeSPBags:
		e.reach = core.NewSPBags(e.st)
	case ModeMultiBags:
		e.reach = core.NewMultiBags(e.st)
	case ModeMultiBagsPlus:
		e.reach = core.NewMultiBagsPlus(e.st)
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
	e.initPipeline(cfg, tu)
	return e
}

// initPipeline sets up the batch layer, and the shadow history and
// checker when the run observes memory accesses. Consumers == 0 processes
// each batch inline on the engine goroutine; Consumers >= 1 on the one
// async consumer, overlapping detection with continued program execution.
func (e *Engine) initPipeline(cfg Config, tu Tuning) {
	if e.err != nil || !e.detecting && cfg.Mem == MemOff {
		return
	}
	if cfg.Mem != MemOff {
		e.hist = shadow.NewHistory()
		e.hist.SetFaults(tu.Faults)
		e.chk = shadow.NewChecker(e.hist, e.reach)
	}
	e.batch = event.New()
	if cfg.Consumers > 0 {
		e.be = newPipeline(e)
	}
}

// maxMuts bounds the mutations one hand-off carries, so a construct-only
// stretch (no memory traffic to seal a batch) still feeds the consumer
// and the item channel bounds pipeline memory: at 256 mutations of 128
// bytes each, a queued item holds at most 32 KB of them.
const maxMuts = 256

// mutate appends one construct mutation to the open batch, whose ops
// (none yet: every construct seals before it mutates) run after it;
// process applies it just before checking them.
func (e *Engine) mutate(m core.Mut) {
	e.batch.Muts = append(e.batch.Muts, m)
	if len(e.batch.Muts) >= maxMuts {
		e.handOff()
	}
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
	if e.batch != nil {
		e.seal() // flush any still-open batch
		if len(e.batch.Muts) > 0 {
			e.handOff() // trailing mutations: the final relation is reported
		}
	}
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
	}
	return rep
}

func (e *Engine) fail(err error) { panic(engineFailure{err}) }

// poisonWith latches the first pipeline failure for every later hook to
// trip over. Idempotent; safe from any goroutine.
func (e *Engine) poisonWith(pe *PipelineError) {
	e.poisoned.CompareAndSwap(nil, pe)
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
// panic — injected or a detector bug — into a structured PipelineError
// for the named stage (nil when fn completes). No user code runs below
// it, so the recover cannot mask a user panic.
func (e *Engine) guard(stage string, b *event.Batch, fn func()) (pe *PipelineError) {
	defer func() {
		if r := recover(); r != nil {
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
// the async consumer's best-effort label lookups for OnRace.
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
		Fn: child.fn, ParentFn: t.fn, Last: r.childLast,
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
	h := &Fut{fn: futFn, creatorStrand: creator}
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
		Fn: h.fn, ParentFn: t.fn, Last: h.last,
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
	h.touches++
	cont := e.newStrand(t.fn)
	e.mutate(core.Mut{Op: core.MutGet, Get: core.GetRec{
		Fn: t.fn, FutFn: h.fn,
		Getter: t.strand, FutLast: h.last, Cont: cont,
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
// batch, merged into an op it extends contiguously (package event's
// coalescing rule), and the batch as a whole reaches the shadow layer at
// the next parallel construct — or earlier when it fills — where the page
// lookup, strand and race plumbing are resolved once per coalesced range.
func (e *Engine) Read(t *Task, addr uint64, words int) {
	e.access(t, event.Read, addr, words)
}

// Write implements Executor.
func (e *Engine) Write(t *Task, addr uint64, words int) {
	e.access(t, event.Write, addr, words)
}

func (e *Engine) access(t *Task, k event.Kind, addr uint64, words int) {
	if e.hist == nil || words <= 0 {
		return
	}
	e.checkPoison()
	if len(e.batch.Ops) > 0 && e.batch.Strand != t.strand {
		// A body that accesses memory through an enclosing task's handle
		// does so as that task's current strand, without a construct in
		// between; every batch must carry a single strand, so seal here.
		e.seal()
	}
	b := e.batch
	b.Strand = t.strand
	if b.Extend(k, addr, words) {
		return
	}
	// event.Batch.Append, spelled out so that only Merge is a call.
	var n int
	if b.Near(addr) {
		n = b.Merge(k, addr, words)
	} else {
		n = b.Push(k, addr, words)
	}
	if n >= event.MaxOps {
		e.seal()
	}
}

// Accesses delivers a run of accesses made in order by t's current
// strand — the trace replayer's entry, one call per decoded access run.
// The ops are appended verbatim, not coalesced again: a recorded trace
// holds the recorder's batches, which Read and Write build by the same
// rule between the same constructs, and a full batch flushes at the same
// MaxOps op. Replay thus rebuilds the direct run's batches exactly. The
// poison and strand checks run once per run, and again after a mid-run
// flush.
func (e *Engine) Accesses(t *Task, ops []event.Op) {
	if e.hist == nil || len(ops) == 0 {
		return
	}
	e.checkPoison()
	if len(e.batch.Ops) > 0 && e.batch.Strand != t.strand {
		e.seal() // a strand change without a construct; see access
	}
	for {
		e.batch.Strand = t.strand
		n := min(len(ops), event.MaxOps-len(e.batch.Ops))
		e.batch.Ops = append(e.batch.Ops, ops[:n]...)
		if ops = ops[n:]; len(e.batch.Ops) >= event.MaxOps {
			e.seal()
		}
		if len(ops) == 0 {
			return
		}
		e.checkPoison()
	}
}

// seal hands the open batch to detection if it holds ops: at a parallel
// construct, when it fills, or when the strand changes. A batch without
// ops stays open, collecting mutations. Stats.Event is counted here so it
// is identical across pipeline modes.
func (e *Engine) seal() {
	if e.batch == nil || len(e.batch.Ops) == 0 {
		return
	}
	e.evStats.Batches++
	e.handOff()
}

// handOff is the one place a batch leaves the engine, stamped with its
// seal-order sequence number and the current construct generation. It
// queues the batch to the async consumer and opens a fresh one or, with no
// consumer, processes it in place inside the recover shell and reuses it.
func (e *Engine) handOff() {
	b := e.batch
	e.seq++
	b.Seq, b.Gen = e.seq, e.gen
	if e.be != nil {
		e.batch = event.New()
		e.be.submit(b)
		return
	}
	if pe := e.guard("inline", b, func() { e.process(b) }); pe != nil {
		e.poisonWith(pe)
	}
	b.Reset()
}

// process is the per-batch body both pipelines share: it applies the
// batch's construct mutations, answering each get's discipline check
// just before the get applies, then checks the batch's ops on the run's
// checker and reports their races, in op order. Every op was performed by
// the batch's strand under the relation those mutations complete. The
// checker starts each batch with cold verdict caches, so memo-hit
// counters cannot depend on the pipeline.
func (e *Engine) process(b *event.Batch) {
	if e.faults.Fire(faultinject.ConsumerPanic) {
		panic(faultinject.Panic{Point: faultinject.ConsumerPanic})
	}
	disc := e.cfg.CheckStructured
	for i := range b.Muts {
		m := &b.Muts[i]
		if disc && m.Op == core.MutGet {
			e.evalDisc(&m.Get)
		}
		m.ApplyTo(e.reach)
	}
	if len(b.Ops) == 0 {
		return
	}
	e.faults.Delay(faultinject.ConsumerStall)
	c := e.chk
	c.Begin(b.Strand)
	if e.mem == MemFull {
		for i := range b.Ops {
			op := &b.Ops[i]
			if op.Kind == event.Read {
				c.ReadRange(op.Addr, op.Words)
			} else {
				c.WriteRange(op.Addr, op.Words)
			}
		}
	} else {
		// MemInstr: decode-only traffic.
		for i := range b.Ops {
			c.TouchRange(b.Ops[i].Addr, b.Ops[i].Words)
		}
	}
	c.End()
	for _, ev := range c.Events() {
		e.reportRace(ev.Addr, ev.Racer.Prev, b.Strand, ev.Racer.PrevWrite, ev.Write)
	}
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
