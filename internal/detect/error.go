package detect

import (
	"errors"
	"fmt"

	"futurerd/internal/event"
)

// ErrStalled is the cause of a watchdog-raised PipelineError: a pipeline
// stage made no progress for Config.StallTimeout while work was
// outstanding.
var ErrStalled = errors.New("detect: pipeline stalled past Config.StallTimeout")

// ErrStrandOverflow is the cause of the PipelineError a run fails with
// when it needs more strand ids than core.MaxStrand: past the cap a
// shadow word could no longer tell a strand from a reader-list slot.
var ErrStrandOverflow = errors.New("detect: strand ids exhausted (2^31-1 strands)")

// PipelineProgress is the per-stage progress snapshot a PipelineError
// carries: how far each stage of the pipeline had advanced, in seal-order
// sequence counts, when the failure was recorded. Sealed counts items the
// engine submitted, Dispatched counts items a checking goroutine picked
// up, Checked counts items fully processed; Sealed == Checked means the
// pipeline was quiescent. ActiveWindow and MaxWindow describe the
// scheduler's window state. The inline pipeline (Consumers 0, and the
// oracle and Verify runs) has no scheduler and reports zeros.
type PipelineProgress struct {
	Sealed, Dispatched, Checked uint64
	ActiveWindow                int
	MaxWindow                   int
}

// String formats the snapshot for the error message.
func (p PipelineProgress) String() string {
	return fmt.Sprintf("sealed %d, dispatched %d, checked %d, window active %d (max %d)",
		p.Sealed, p.Dispatched, p.Checked, p.ActiveWindow, p.MaxWindow)
}

// PipelineError is the structured failure of the fail-closed detection
// pipeline: any panic or stall in a pipeline goroutine — scheduler,
// pool consumer, or the inline checking path — is recovered into one of
// these, the engine is poisoned
// so every subsequent hook aborts the run with it instead of deadlocking,
// and Run still joins every goroutine before returning it in Report.Err.
type PipelineError struct {
	// Stage names the pipeline stage that failed: "consumer" (batch
	// checking on a pool consumer), "scheduler" (the window scheduler),
	// "inline" (the synchronous checking path on the engine goroutine), "watchdog" (a stall
	// detected by Config.StallTimeout), or "engine" (the engine ran out
	// of an identifier space; see ErrStrandOverflow).
	Stage string
	// Seq is the seal-order sequence number of the batch being processed
	// when the stage failed (0 when no batch was in hand).
	Seq uint64
	// Batch is a diagnostic one-liner of that batch: strand, generation,
	// relation version, op count and page footprint.
	Batch string
	// Progress is the pipeline's per-stage progress at failure time.
	Progress PipelineProgress
	// Cause is the recovered panic value (wrapped as an error) or the
	// stall sentinel ErrStalled.
	Cause error
}

// Error implements error.
func (e *PipelineError) Error() string {
	msg := fmt.Sprintf("detect: pipeline %s failure", e.Stage)
	if e.Seq != 0 {
		msg += fmt.Sprintf(" at batch seq %d (%s)", e.Seq, e.Batch)
	}
	msg += fmt.Sprintf(" [%s]", e.Progress)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

// Unwrap exposes the cause to errors.Is/As.
func (e *PipelineError) Unwrap() error { return e.Cause }

// batchDiag condenses a batch into the diagnostic footprint line a
// PipelineError carries.
func batchDiag(b *event.Batch) string {
	if b == nil {
		return ""
	}
	return fmt.Sprintf("strand %d gen %d version %d ops %d footprint %v",
		b.Strand, b.Gen, b.Version, len(b.Ops), b.FP.Spans)
}
