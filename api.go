package futurerd

import (
	"io"

	"futurerd/internal/detect"
	"futurerd/internal/sched"
	"futurerd/internal/trace"
)

// Task is the handle threaded through task-parallel code; see the package
// documentation for the programming model.
type Task = detect.Task

// Fut is an untyped future handle. Most code should use the typed
// Future[T] via Async instead.
type Fut = detect.Fut

// Config configures a detection run.
type Config = detect.Config

// Report is the outcome of a detection run.
type Report = detect.Report

// Race describes one determinacy race.
type Race = detect.Race

// Violation reports a structured-discipline breach or, in Verify mode, a
// disagreement between the algorithm and the oracle.
type Violation = detect.Violation

// Stats aggregates a run's counters.
type Stats = detect.Stats

// Mode selects the reachability algorithm.
type Mode = detect.Mode

// Detection modes. See the package documentation for guidance.
const (
	ModeNone          = detect.ModeNone
	ModeSPBags        = detect.ModeSPBags
	ModeMultiBags     = detect.ModeMultiBags
	ModeMultiBagsPlus = detect.ModeMultiBagsPlus
	ModeOracle        = detect.ModeOracle
)

// MemLevel selects how much of the memory-access pipeline runs.
type MemLevel = detect.MemLevel

// Memory instrumentation levels, mirroring the paper's evaluation
// configurations: MemOff = "reachability", MemInstr = "instrumentation",
// MemFull = "full".
const (
	MemOff   = detect.MemOff
	MemInstr = detect.MemInstr
	MemFull  = detect.MemFull
)

// MaxViolations bounds the violations collected in a report; the overflow
// is counted in Stats.TruncatedViolations.
const MaxViolations = detect.MaxViolations

// ErrFutureNotReady is wrapped into Report.Err when a Get runs before its
// future completed under depth-first eager execution (the program is not
// forward-pointing and could deadlock).
var ErrFutureNotReady = detect.ErrFutureNotReady

// PipelineError is the structured failure of the fail-closed detection
// pipeline: a panic in a detection goroutine is recovered into
// one of these (stage, batch diagnostic, per-stage progress) and returned
// through Report.Err, with every pipeline goroutine joined before Detect
// returns. Test with errors.As.
type PipelineError = detect.PipelineError

// PipelineProgress is the per-stage progress snapshot a PipelineError
// carries.
type PipelineProgress = detect.PipelineProgress

// ErrStrandOverflow is the cause of the PipelineError a run fails with
// when it would need more than 2^31-1 strand ids.
var ErrStrandOverflow = detect.ErrStrandOverflow

// TraceStats describes how a recovering trace replay ended; see
// ReplayTraceRecover.
type TraceStats = detect.TraceStats

// TraceLimits bounds a recovering replay against hostile or damaged
// traces; the zero value applies the default word cap.
type TraceLimits = trace.Limits

// Detect executes root sequentially in depth-first eager order under the
// configured race detector and returns its report. root and everything it
// spawns run on the calling goroutine.
func Detect(cfg Config, root func(*Task)) *Report {
	return detect.NewEngine(cfg).Run(root)
}

// DetectRaces is the one-call entry point: full race detection with
// MultiBags+ (which is correct for any use of futures).
func DetectRaces(root func(*Task)) *Report {
	return Detect(Config{Mode: ModeMultiBagsPlus, Mem: MemFull}, root)
}

// RunSeq executes root sequentially with detection disabled — the
// evaluation's "baseline" configuration.
func RunSeq(root func(*Task)) {
	detect.NewEngine(Config{Mode: ModeNone}).Run(root)
}

// Run executes root on the bundled work-stealing scheduler with the given
// number of workers (≤0 means GOMAXPROCS). Detection is off; memory hooks
// are no-ops. The program must be race free — which is what Detect is for.
func Run(workers int, root func(*Task)) {
	sched.Run(workers, root)
}

// RecordTrace executes root sequentially (eager futures, detection off)
// and writes its construct + memory event stream to w in trace format v3
// (coalesced range events, delta-compressed addresses, DEFLATE block
// framing). The trace can be re-detected offline with ReplayTrace —
// under any algorithm and pipeline — without re-running the program,
// and makes a compact regression artifact. The stream names no tasks, so
// every construct and access must go through the task handed to the body
// that makes it: one through an enclosing task's handle makes RecordTrace
// return an error naming the misuse instead of writing a trace whose
// replay would differ from detecting the program.
func RecordTrace(w io.Writer, root func(*Task)) error {
	return trace.Record(w, root)
}

// RecordTraceBytes is RecordTrace into a fresh buffer.
func RecordTraceBytes(root func(*Task)) ([]byte, error) {
	return trace.RecordBytes(root)
}

// ReplayTrace runs a trace recorded by RecordTrace through the detection
// engine configured by cfg and returns its report. Replaying a trace
// yields exactly the same report as detecting the original program, for
// any algorithm and pipeline.
func ReplayTrace(r io.Reader, cfg Config) (*Report, error) {
	return trace.Replay(r, cfg)
}

// ReplayTraceBytes is ReplayTrace over an in-memory stream.
func ReplayTraceBytes(b []byte, cfg Config) (*Report, error) {
	return trace.ReplayBytes(b, cfg)
}

// ReplayTraceRecover replays as much of a damaged or hostile trace as
// decodes cleanly: instead of returning a decode error, it detects races
// over the longest well-formed prefix and describes the cut in the
// report's Stats.Trace (Truncated, the event count, the decoder's
// diagnosis). lim bounds the replay against hostile streams; the zero
// value applies the default word cap.
func ReplayTraceRecover(r io.Reader, cfg Config, lim TraceLimits) (*Report, error) {
	return trace.ReplayRecover(r, cfg, lim)
}

// For runs body(i) for every i in [lo, hi) as a balanced spawn tree with
// the given sequential grain size, then joins — the task-parallel
// equivalent of a parallel for loop. Under Detect the iterations are
// checked for mutual races like any other spawned work.
func For(t *Task, lo, hi, grain int, body func(t *Task, i int)) {
	if grain < 1 {
		grain = 1
	}
	// Recursive halving: spawn the left half, recurse into the right.
	var split func(t *Task, lo, hi int)
	split = func(t *Task, lo, hi int) {
		if hi-lo <= grain {
			for i := lo; i < hi; i++ {
				body(t, i)
			}
			return
		}
		mid := lo + (hi-lo)/2
		t.Spawn(func(c *Task) { split(c, lo, mid) })
		split(t, mid, hi)
	}
	split(t, lo, hi)
	t.Sync()
}

// DetectDAG executes root sequentially under the oracle recorder and
// returns the full computation dag (strands and
// continue/spawn/join/create/get edges) in Graphviz DOT format — a
// debugging and teaching aid for small programs.
func DetectDAG(root func(*Task)) (string, error) {
	return detect.DAG(root)
}

// Future is a typed future handle produced by Async.
type Future[T any] struct {
	h *Fut
}

// Async starts body as a future on t and returns its typed handle. Under
// detection the body runs immediately (eager evaluation); under the
// parallel scheduler it may run on another worker.
func Async[T any](t *Task, body func(*Task) T) Future[T] {
	return Future[T]{h: t.CreateFut(func(t *Task) any { return body(t) })}
}

// Get joins the future and returns its value. For structured futures
// (MultiBags) call Get at most once per future, from a point sequentially
// after Async.
func (f Future[T]) Get(t *Task) T {
	v := t.GetFut(f.h)
	if v == nil {
		var zero T
		return zero
	}
	return v.(T)
}

// Handle exposes the untyped future handle.
func (f Future[T]) Handle() *Fut { return f.h }

// Valid reports whether the future was initialized (Async was called).
// The zero Future is invalid; Get on it fails the run with
// ErrFutureNotReady.
func (f Future[T]) Valid() bool { return f.h != nil }
