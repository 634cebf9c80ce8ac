package detect

import (
	"errors"
	"fmt"

	"futurerd/internal/event"
)

// ErrStrandOverflow is the cause of the PipelineError a run fails with
// when it needs more strand ids than core.MaxStrand: past the cap a
// shadow word could no longer tell a strand from a reader-list slot.
var ErrStrandOverflow = errors.New("detect: strand ids exhausted (2^31-1 strands)")

// PipelineProgress is the per-stage progress snapshot a PipelineError
// carries: how far each stage of the pipeline had advanced, in seal-order
// sequence counts, when the failure was recorded. An item is an access
// batch or a mutation-only hand-off. Sealed counts items the engine
// submitted, Dispatched counts items the consumer picked up,
// Checked counts items fully processed; Sealed == Checked means the
// pipeline was quiescent. The inline pipeline (Consumers 0) has no
// consumer and reports zeros.
type PipelineProgress struct {
	Sealed, Dispatched, Checked uint64
}

// String formats the snapshot for the error message.
func (p PipelineProgress) String() string {
	return fmt.Sprintf("sealed %d, dispatched %d, checked %d",
		p.Sealed, p.Dispatched, p.Checked)
}

// PipelineError is the structured failure of the fail-closed detection
// pipeline: a panic while the async consumer or the inline hand-off
// processes a batch is recovered into one of these, the engine is
// poisoned so every subsequent hook aborts the run with it instead of
// feeding a dead pipeline, and Run still joins every goroutine before
// returning it in Report.Err. A stall
// is not a failure: Run waits for a slow consumer and joins it.
type PipelineError struct {
	// Stage names the pipeline stage that failed: "consumer" (batch
	// processing on the async consumer), "inline" (batch processing in
	// place on the engine goroutine), or "engine" (the engine ran out of
	// an identifier space; see ErrStrandOverflow).
	Stage string
	// Seq is the seal-order sequence number of the batch being processed
	// when the stage failed (0 when no batch was in hand).
	Seq uint64
	// Batch is a diagnostic one-liner of that batch: strand, generation,
	// construct-mutation count and op count.
	Batch string
	// Progress is the pipeline's per-stage progress at failure time.
	Progress PipelineProgress
	// Cause is the recovered panic value (wrapped as an error) or
	// ErrStrandOverflow.
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

// batchDiag condenses a batch into the diagnostic line a PipelineError
// carries.
func batchDiag(b *event.Batch) string {
	if b == nil {
		return ""
	}
	return fmt.Sprintf("strand %d gen %d muts %d ops %d",
		b.Strand, b.Gen, len(b.Muts), len(b.Ops))
}
