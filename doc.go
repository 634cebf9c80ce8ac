// Package futurerd is a task-parallel programming library with built-in,
// provably efficient on-the-fly determinacy-race detection for programs
// that use futures. It is a from-scratch Go implementation of the system
// described in
//
//	Robert Utterback, Kunal Agrawal, Jeremy Fineman, I-Ting Angelina Lee.
//	"Efficient Race Detection with Futures". PPoPP 2019.
//	https://doi.org/10.1145/3293883.3295732
//
// # Programming model
//
// Programs express parallelism with four constructs on a Task handle
// (§2 of the paper):
//
//   - Task.Spawn(f): fork f; it is logically parallel with the caller's
//     continuation until the next Sync.
//   - Task.Sync(): join all children spawned in this function instance.
//   - Async / Task.CreateFut(body): start body as a future. Futures
//     escape Sync; they are joined only by Get.
//   - Future.Get / Task.GetFut(h): join the future and obtain its value.
//
// Memory that should be covered by race detection lives in instrumented
// containers (Array, Matrix, Var) backed by a process-wide virtual
// address space, or is reported manually via Task.Read/Task.Write.
//
// # Detection
//
// Detect executes the program sequentially in depth-first eager order and
// reports a determinacy race if and only if one exists (for the given
// input), using one of:
//
//   - MultiBags (§4): for structured futures — every handle is touched by
//     Get at most once and its creation sequentially precedes the Get.
//     Runs in O(T1·α(m,n)).
//   - MultiBags+ (§5): for arbitrary (multi-touch, escaping) futures.
//     Runs in O((T1+k²)·α(m,n)) for k Get operations.
//   - VectorClocks: a FastTrack-style alternative for arbitrary futures —
//     per-strand vector clocks joined at spawn/sync/get, so Precedes is a
//     single epoch/clock comparison with no bag probes and no R-closure
//     growth. An epoch-fast representation inflates to a full clock only
//     on real fan-in, and clock columns are recycled so clock width
//     tracks live parallelism. Race- and verdict-identical to MultiBags+.
//   - SP-Bags: the classic fork-join detector, provided as a baseline
//     (unsound when futures are used).
//   - Oracle: brute-force dag reachability, for tests.
//
// # Memory pipeline
//
// Config.Mem selects how much of the per-access pipeline runs, matching
// the paper's evaluation configurations (§6): MemOff ignores memory
// accesses entirely ("reachability"), MemInstr fires the hooks and decodes
// shadow addresses but keeps no history ("instrumentation"), and MemFull
// runs complete race detection ("full").
//
// Under MemFull every access resolves against the shadow access history
// (internal/shadow): a flat two-level page table of 4096-word pages with a
// last-page cache, bulk ReadRange/WriteRange operations that split at page
// boundaries and hoist the page lookup out of the per-word loop, and
// epoch-style fast paths — a strand re-accessing a word it already owns
// (owned epoch) or re-reading a word it was the last to read at the
// current construct generation (read-shared epoch) skips the protocol
// outright, and the most recent reachability verdict is memoized across
// consecutive words with the same last writer. The fast paths are
// verdict-preserving: they report exactly the races the paper's
// word-at-a-time protocol reports. Prefer the bulk accessors
// (Task.ReadRange/WriteRange, Matrix.ReadRow/WriteRow) for contiguous
// data; they amortize hook dispatch and page lookup over the whole range.
//
// Config.Sampling adds an always-on front-end behind those free filters
// for production-shaped traffic: a deterministic, seed-driven rate
// admits a fraction of the remaining protocol-bound accesses, and an
// optional per-page budget (refreshed each construct generation) bounds
// hot-page cost to O(1) sampled accesses per page per epoch. Unsampled
// accesses skip only the verdict query — they still install their shadow
// state — so a sampled run reports a subset of full detection's races,
// never a superset, and Rate 1.0 is verdict- and counter-identical to
// full detection. See the Sampling type.
//
// # Event pipeline
//
// The detection stack is front-ends → batcher → scheduler → consumer
// pool. Every execution front-end (a live program under Detect, a
// recorded trace under ReplayTrace, a generated workload) appends its
// accesses to coalescing event batches (internal/event): contiguous
// same-kind accesses merge into ranges before they reach the shadow
// layer, so even word-at-a-time code pays the per-range, not per-word,
// cost. Batches are sealed at parallel constructs — where the
// reachability relation is about to mutate — so everything in one batch
// executed under a single immutable relation, and each leaves with a
// footprint: its strand plus a compact summary of the shadow pages it
// touches. Config.Consumers picks the detection pipeline: 0 (the
// default) checks each sealed batch inline on the engine goroutine; with
// 1 or more, a scheduled consumer pool of that size checks sealed batches
// off the engine goroutine, overlapping continued program execution
// (oracle and Verify runs, whose queries are not concurrent-safe, check
// inline). Constructs do not wait for the pool: the relation
// is versioned (core.Versioned), constructs record their mutations into
// a bounded log, each batch carries the version it executed under, and
// the back-end replays mutations before checking. The engine runs ahead
// of detection until the construct-ahead window (Config.ConstructAhead)
// back-pressures.
//
// The pool is dependency-scheduled with overlapping windows, at any
// size including one consumer. Construct mutations are
// classified by whether they fold the relation: spawn, create and init
// only add nodes, so they are pin-safe and apply under live snapshot
// pins (core.Versioned's pin-epoch model), while sync joins and future
// gets fold reachability state and barrier until the pool is quiescent.
// The scheduler publishes each sealed batch's relation version as soon
// as its mutations allow — even while earlier flights are still being
// checked — and dispatches, in seal order, every published batch whose
// page footprint, strand and return-span conflicts are disjoint from
// the outstanding flights. Successive windows therefore overlap:
// window N+1's version is live and its batches in flight while window N
// drains (Stats.Event.OverlappedWindows counts versions published over
// an outstanding flight). Large batches additionally split at
// page-disjoint cut points into chunk descriptors
// (Config.StealChunkWords tunes the granule) that idle consumers steal
// (Stats.Event.StolenChunks); delivery reassembles chunk verdicts in
// order, so reports stay order-identical. Dependent batches serialize
// in seal order, so a construct-dense program degenerates to serial
// checking rather than deadlocking. A sequence-numbered
// reorder buffer in front of OnRace delivers race reports in seal order. CheckStructured's discipline
// query no longer drains the pipeline either: it is deferred and
// answered from the versioned snapshot in stream order (a violation is
// recorded, never acted on, so nothing needs the answer eagerly).
// Verdicts, report order and deterministic counters are identical to a
// synchronous run for every Consumers setting. Every pipeline checks
// batches with one shadow checker type and one per-batch body: the
// engine owns a checker for the inline path, each pool consumer owns its
// own; a
// shadow install audit asserts the disjoint-footprint invariant at run time and
// the -race CI suite drives it.
//
// # Traces
//
// RecordTrace executes a program once (no detection) and writes its
// construct + memory event stream in format v2: coalesced range events,
// delta-compressed addresses, strand labels, DEFLATE block framing.
// ReplayTrace re-detects a stream — either format version, any
// algorithm, any pipeline — with exactly the report a direct run
// produces, replaying iteratively so spawn depth never consumes Go
// stack. See internal/trace for the wire format and cmd/futurerd-trace
// for the record/replay/stat CLI.
//
// # Failure model
//
// The detection pipeline fails closed. A panic or stall on any pipeline
// goroutine is recovered into a structured PipelineError (failed stage,
// batch diagnostic, per-stage progress snapshot) returned through
// Report.Err, with the engine poisoned so subsequent hooks return
// instead of feeding a dead pipeline, and every goroutine joined before
// Detect returns. Config.StallTimeout arms a watchdog that converts a
// wedged stage into the same structured error (cause ErrStalled).
// Trace inputs are treated as hostile — per-block checksums, bounded
// chunked reads — and ReplayTraceRecover replays the longest
// well-formed prefix of a damaged trace, describing the cut in
// Stats.Trace. See the README's "Failure model" section.
//
// # Parallel execution
//
// The same program runs in parallel — without detection — on the bundled
// work-stealing scheduler via Run. The intended workflow is the paper's:
// debug with Detect on small inputs, then deploy with Run.
//
// # Quick start
//
//	counter := futurerd.NewVar[int]()
//	rep := futurerd.Detect(futurerd.Config{
//		Mode: futurerd.ModeMultiBags,
//		Mem:  futurerd.MemFull,
//	}, func(t *futurerd.Task) {
//		f := futurerd.Async(t, func(t *futurerd.Task) int {
//			counter.Set(t, 1) // runs in parallel with the write below
//			return 42
//		})
//		counter.Set(t, 2) // ← determinacy race
//		_ = f.Get(t)
//	})
//	for _, r := range rep.Races {
//		fmt.Println(r)
//	}
package futurerd
