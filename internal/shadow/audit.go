package shadow

import "fmt"

// AuditError is the structured form of a shadow install-audit violation:
// two concurrent consumer checkers whose page claims overlap, or an op that
// escaped the footprint its batch claimed. It is thrown (panicked) at the
// violation site; the detection pipeline's recover shell converts it into
// a PipelineError carrying the conflicting footprints, so a scheduler bug
// fails the run closed with a diagnosis instead of corrupting shadow
// state. Under the futurerd_debug build tag the pipeline re-raises it
// instead, so the -race CI suite halts hard at the violation.
type AuditError struct {
	// Kind is "claim-overlap" (two checkers claimed intersecting page spans)
	// or "footprint-escape" (an op touched pages outside its batch's
	// claimed footprint).
	Kind string
	// Checker is the consumer id that tripped the audit; Other is the
	// peer holding the conflicting claim (claim-overlap only).
	Checker, Other int
	// Op is the page range being claimed or touched; Conflict is the
	// overlapping claim held by Other (claim-overlap only).
	Op, Conflict PageClaim
	// Claims is the batch's full claimed footprint (footprint-escape only).
	Claims []PageClaim
}

// Error implements error.
func (e *AuditError) Error() string {
	switch e.Kind {
	case "claim-overlap":
		return fmt.Sprintf(
			"shadow: install audit: concurrent consumers %d and %d claim overlapping pages [%d,%d] vs [%d,%d]",
			e.Checker, e.Other, e.Op.Lo, e.Op.Hi, e.Conflict.Lo, e.Conflict.Hi)
	case "footprint-escape":
		return fmt.Sprintf(
			"shadow: install audit: consumer %d op pages [%d,%d] escape the batch footprint %v",
			e.Checker, e.Op.Lo, e.Op.Hi, e.Claims)
	default:
		return fmt.Sprintf("shadow: install audit violation (%s) on consumer %d", e.Kind, e.Checker)
	}
}
