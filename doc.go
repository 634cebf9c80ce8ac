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
// (internal/shadow): a flat two-level page table of 4096-word pages behind a
// page-set cache, bulk ReadRange/WriteRange operations that split at page
// boundaries and hoist the page lookup out of the per-word loop, and
// epoch-style fast paths — a strand re-accessing a word it already owns
// (owned epoch) or re-reading a word whose reader list already records
// it, in any construct generation since the word's last write
// (read-shared epoch), skips the protocol outright. Each shadow word is
// 8 bytes, its last writer and first reader. Reachability verdicts are
// cached per
// event batch in a 64-entry cache keyed by the predecessor strand. A bulk
// read runs the protocol once per run of consecutive words in the same
// shadow state and gives the rest of the run the first word's outcome;
// a run ends at any change of state and at a racing word. Within one
// batch, an exact repeat of a multi-word op the strand already settled
// skips the per-word loop altogether (the range memo) and counts the
// skips the loop would find. Every access that no fast path resolves runs
// the full protocol. The fast paths are
// verdict-preserving: they report exactly the races the paper's
// word-at-a-time protocol reports. Prefer the bulk accessors
// (Task.ReadRange/WriteRange, Matrix.ReadRow/WriteRow) for contiguous
// data; they amortize hook dispatch and page lookup over the whole range.
//
// # Event pipeline
//
// The detection stack is front-ends → batcher → one consumer. Every
// execution front-end (a live program under Detect, a recorded trace
// under ReplayTrace, a generated workload) appends its accesses to
// coalescing event batches (internal/event): contiguous same-kind
// accesses merge into ranges before they reach the shadow layer, so even
// word-at-a-time code pays the per-range, not per-word, cost. An access
// may extend the last op or one of the two before it, so interleaved
// streams coalesce too; it never moves past another access to one of
// its words, so every word runs the same protocol steps with the same
// verdict and racer, and only the order across words changes. Batches are
// sealed at parallel constructs — where the reachability relation is
// about to mutate — so everything in one batch executed under a single
// immutable relation and a single strand. The serial stream orders every
// construct and access, so each construct's reachability mutations ride
// at the front of the next batch handed off, and one per-batch body
// applies them before checking that batch's accesses; a construct-only
// stretch hands mutations off in bounded groups of their own.
// Config.Consumers picks where that body runs: 0 (the default) in place
// on the engine goroutine; any value of 1 or more on one async consumer
// goroutine, which takes the batches in seal order while the program
// keeps executing. Constructs do not wait for the consumer. The engine runs ahead of detection until the bounded item channel
// back-pressures. CheckStructured's discipline query is answered from
// the get's own mutation, which carries the creator strand and the touch
// count: the per-batch body evaluates it just before that mutation
// applies, so it sees every mutation before the get and none after it (a
// violation is recorded, never acted on, so nothing needs the answer
// eagerly). Since the consumer checks batches in seal order,
// races reach OnRace and the report in seal order with no reorder buffer,
// and verdicts, report order and every counter are identical to an
// inline run. Both pipelines share the hand-off, the per-batch body, its
// recover shell and the run's one shadow checker.
//
// # Traces
//
// RecordTrace executes a program once (no detection) and writes its
// construct + memory event stream in format v3: coalesced range events,
// per-stream delta-compressed addresses with a stride cache, strand
// labels, DEFLATE block framing.
// ReplayTrace re-detects a stream — any algorithm, any pipeline — with
// exactly the report a direct run produces. Replay decodes and delivers
// accesses a run at a time: consecutive access events go straight into
// the engine's event batch in one call, with the same batch boundaries
// as direct detection. Task nesting replays iteratively, so spawn depth
// never consumes Go stack. See internal/trace for the wire format and
// cmd/futurerd-trace for the record/replay/stat CLI.
//
// # Failure model
//
// The detection pipeline fails closed. A panic on the inline checking
// path or the async consumer is recovered into a structured
// PipelineError (failed stage, batch diagnostic, per-stage progress
// snapshot) returned through Report.Err, with the engine poisoned so
// subsequent hooks return instead of feeding a dead pipeline, and every
// goroutine joined before Detect returns. A stalled consumer is not a
// failure: Detect waits for it and joins it, so the stall delays the run
// and leaves its verdicts unchanged.
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
