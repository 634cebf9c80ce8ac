// Multi-consumer batch views: the per-consumer execution state that lets
// several detection consumers check whole sealed batches against one
// History concurrently.
//
// The enabling invariants come from the detection scheduler, not from
// locking here:
//
//   - concurrently-checked batches touch disjoint shadow pages (their
//     footprints do not overlap), so the per-word protocol state each
//     view reads and writes is exclusively its own for the duration of
//     the batch;
//   - the reachability relation is frozen (pinned at one version) while
//     any view is running, so every Precedes query is a read-only
//     snapshot read through the algorithm's QueryConcurrent-safe path;
//   - dependent batches — page overlap, same strand, or a conflicting
//     construct mutation between them — are never in flight together, so
//     each view observes exactly the shadow state a serial run would.
//
// A View owns a chunkState (the same worker-local machinery the range
// pool uses): cold per-batch page cache and verdict cache, private
// counters, buffered race events. Race events are tagged with their op's
// access kind and handed back to the scheduler, whose sequence-numbered
// reorder buffer delivers them in seal order — the report stream is
// byte-identical to a serial run. Counters fold into the History under a
// mutex once per batch; the totals are order-independent sums.
//
// EnableInstallAudit arms a debug assertion that re-checks the first
// invariant at access granularity: every op claims its exact page range
// and panics if the claim overlaps another view's active claim. The
// audit is cheap (a few span comparisons per op) and runs in the -race
// CI suite, so a scheduler bug cannot silently corrupt shadow state.
package shadow

import (
	"futurerd/internal/core"
)

// RaceEvent is one race found while checking a batch on a View, buffered
// for in-order delivery by the scheduler.
type RaceEvent struct {
	Addr  uint64
	Racer Racer
	Write bool // the racing access (the batch's own op) was a write
}

// PageClaim is one claimed page range of the install audit, inclusive.
type PageClaim struct {
	Lo, Hi uint64
}

// View is one consumer's private state for checking sealed batches
// against a shared History. Views are single-goroutine; create one per
// consumer and call Begin/Claim/op.../End per batch.
type View struct {
	id     int
	cs     chunkState
	events []RaceEvent
	claims []PageClaim // active audit claims (this view's footprint)
}

// NewView returns a view over h with the given consumer id (used only by
// the install audit's diagnostics).
func NewView(h *History, id int) *View {
	return &View{id: id, cs: chunkState{h: h}}
}

// EnableInstallAudit arms the concurrent-install debug assertion on h:
// every View op claims its page range and overlapping claims from two
// views panic. Call before any View runs.
func (h *History) EnableInstallAudit() {
	h.auditOn = true
	h.auditClaims = make(map[int][]PageClaim)
}

// auditClaimSpans registers the footprint spans view id is about to touch
// and panics if any overlaps another view's active claim. Span lists are
// small (capped by the footprint summarizer), so the cross-check is a few
// dozen comparisons per batch.
func (h *History) auditClaimSpans(id int, spans []PageClaim) {
	h.auditMu.Lock()
	defer h.auditMu.Unlock()
	for other, held := range h.auditClaims {
		if other == id {
			continue
		}
		for _, sp := range held {
			for _, c := range spans {
				if c.Lo <= sp.Hi && sp.Lo <= c.Hi {
					panic(&AuditError{
						Kind: "claim-overlap",
						View: id, Other: other,
						Op: c, Conflict: sp,
					})
				}
			}
		}
	}
	h.auditClaims[id] = append(h.auditClaims[id][:0], spans...)
}

// auditRelease drops every claim held by view id.
func (h *History) auditRelease(id int) {
	h.auditMu.Lock()
	h.auditClaims[id] = h.auditClaims[id][:0]
	h.auditMu.Unlock()
}

// Begin prepares the view for one batch (or stolen chunk of one): cold
// page cache, verdict cache and epoch memo, empty buffers. ctx must carry
// the batch's construct generation and the run's reachability structure;
// its race sinks are unused (events are buffered and returned by Events).
func (v *View) Begin(ctx *Ctx, s core.StrandID) {
	v.cs.ctx, v.cs.s = ctx, s
	v.cs.lastPage = nil
	v.cs.verdicts.reset()
	v.cs.epochValid = false
	v.cs.events = v.cs.events[:0]
	v.events = v.events[:0]
	v.claims = v.claims[:0]
}

// Claim registers the batch's footprint spans with the install audit
// (no-op when the audit is off): overlapping claims from two live views
// panic immediately, and every subsequent op of this batch must stay
// inside the claimed spans.
func (v *View) Claim(spans []PageClaim) {
	if !v.cs.h.auditOn {
		return
	}
	v.claims = append(v.claims[:0], spans...)
	v.cs.h.auditClaimSpans(v.id, v.claims)
}

// claim asserts one op's page range lies inside the batch's claimed
// footprint, when the audit is armed — a Summarize bug would otherwise
// let an op slip outside the range the scheduler reasoned about.
func (v *View) claim(addr uint64, words int) {
	if !v.cs.h.auditOn {
		return
	}
	lo := addr >> PageBits
	hi := (addr + uint64(words) - 1) >> PageBits
	for _, c := range v.claims {
		if c.Lo <= lo && hi <= c.Hi {
			return
		}
	}
	panic(&AuditError{
		Kind: "footprint-escape",
		View: v.id,
		Op:   PageClaim{Lo: lo, Hi: hi},
		// Copied: the thrown error outlives the view's reused claim buffer.
		Claims: append([]PageClaim(nil), v.claims...),
	})
}

// drainOp tags the op's buffered events with its access kind and moves
// them to the batch buffer.
func (v *View) drainOp(write bool) {
	for _, ev := range v.cs.events {
		v.events = append(v.events, RaceEvent{Addr: ev.addr, Racer: ev.racer, Write: write})
	}
	v.cs.events = v.cs.events[:0]
}

// ReadRange checks one read op of the view's batch. Ranges at or above
// the pool's fan-out threshold split across p; smaller ones run on the
// view's own chunk loop. Events buffer in op order, address order within
// an op — the serial delivery order.
func (v *View) ReadRange(addr uint64, words int, p *Pool) {
	if words <= 0 {
		return
	}
	v.claim(addr, words)
	if p == nil || words < 2*p.chunk {
		v.cs.readRange(addr, words) // counts its own words
	} else {
		// Chunk states count their own words and fold back into v.cs.
		v.cs.h.fanOut(opRead, addr, words, v.cs.s, v.cs.ctx, p, &v.cs)
	}
	v.drainOp(false)
}

// WriteRange checks one write op of the view's batch; see ReadRange.
func (v *View) WriteRange(addr uint64, words int, p *Pool) {
	if words <= 0 {
		return
	}
	v.claim(addr, words)
	if p == nil || words < 2*p.chunk {
		v.cs.writeRange(addr, words)
	} else {
		v.cs.h.fanOut(opWrite, addr, words, v.cs.s, v.cs.ctx, p, &v.cs)
	}
	v.drainOp(true)
}

// TouchRange folds one instrumentation-only op into the view's checksum.
func (v *View) TouchRange(addr uint64, words int, p *Pool) {
	if words <= 0 {
		return
	}
	if p == nil || words < 2*p.chunk {
		v.cs.touchRange(addr, words)
	} else {
		v.cs.h.fanOut(opTouch, addr, words, core.NoStrand, nil, p, &v.cs)
	}
}

// Events returns the batch's buffered race events, valid until the next
// Begin. Callers that deliver later must copy.
func (v *View) Events() []RaceEvent { return v.events }

// End completes the batch: counters fold into the History (under its fold
// mutex — sums, so fold order is irrelevant) and audit claims release.
func (v *View) End() {
	h := v.cs.h
	h.foldMu.Lock()
	h.counters.add(&v.cs.counters)
	h.foldMu.Unlock()
	v.cs = chunkState{h: h, events: v.cs.events[:0]}
	if h.auditOn {
		h.auditRelease(v.id)
	}
}
