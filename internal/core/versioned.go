// Versioned reachability: an immutable-snapshot view of the relation per
// construct generation.
//
// The reachability relation only mutates at parallel constructs, and every
// strand's incoming dag edges exist by the time the strand starts — so the
// answer to Precedes(u, s) is fixed the moment s begins executing. The
// detection engine exploits that by recording each construct's mutations
// into a Versioned log instead of applying them inline: a sealed access
// batch carries the log version it was recorded under (its snapshot
// handle), and the single detection back-end consumer applies pending
// mutations up to exactly that version before checking the batch. The
// relation the batch observes is therefore byte-identical to the one a
// fully synchronous run would have queried, while the engine goroutine is
// already executing past the construct — constructs no longer block on
// back-end drain.
//
// The log is bounded: Record blocks once the engine runs more than the
// window ahead of the back-end, which is the pipeline's construct-ahead
// window. The engine keeps the log drainable under back-pressure by
// submitting an empty version-bearing batch (a "nudge") before it can
// block, so a construct-dense stretch with no memory traffic still makes
// progress.
//
// # Concurrent snapshot reads and pin-safe mutations
//
// With the detection scheduler (any Consumers >= 1) several goroutines
// query the underlying Reach at once, each under a pinned version: the scheduler applies
// mutations up to a batch's version, calls Pin, dispatches the batch to
// the consumer pool, and calls Unpin when its consumers finish. While a
// pin is held the relation may still advance — but only by mutations the
// recorder stamped PinSafe (fold-free constructs: spawn, create, init,
// and single-strand returns, which only add fresh dag structure and never
// fold existing relations together). The Reach advertises which operation
// kinds qualify through the PinConcurrent capability; applying anything
// else under a live pin is a detector bug and ApplyTo panics. A pinned
// reader therefore sees either its own version or a fold-free extension
// of it, and both answer every query the reader is entitled to ask
// identically: the strands a pinned batch can name were all published at
// or before its version, and fold-free mutations never change the
// precedence between already-published strands.
package core

import (
	"sync"
	"sync/atomic"
)

// MutOp tags one recorded construct mutation.
type MutOp uint8

// Mutation kinds, one per Reach maintenance method.
const (
	MutInit MutOp = iota
	MutSpawn
	MutCreate
	MutReturn
	MutJoin
	MutGet
)

// Mut is one recorded construct event. Only the record matching Op is
// meaningful; the struct is flat (no pointers) so the pending log is a
// single allocation-free ring of values.
type Mut struct {
	Op     MutOp
	InitFn FnID     // MutInit
	InitS  StrandID // MutInit
	Spawn  SpawnRec
	Create CreateRec
	Return ReturnRec
	Join   JoinRec
	Get    GetRec

	// PinSafe marks a fold-free mutation the recorder has proven safe to
	// apply while snapshot pins are live (see the PinConcurrent capability).
	// The zero value is the conservative "must wait for pin drain".
	PinSafe bool
}

// ApplyTo replays the mutation into r.
func (m *Mut) ApplyTo(r Reach) {
	switch m.Op {
	case MutInit:
		r.Init(m.InitFn, m.InitS)
	case MutSpawn:
		r.Spawn(m.Spawn)
	case MutCreate:
		r.CreateFut(m.Create)
	case MutReturn:
		r.Return(m.Return)
	case MutJoin:
		r.SyncJoin(m.Join)
	case MutGet:
		r.GetFut(m.Get)
	}
}

// DefaultConstructAhead is the default bound on how many construct
// mutations the engine may record ahead of the detection back-end. Each
// pending mutation is ~100 bytes, so the default costs a few tens of
// kilobytes while letting construct-dense code (a join decomposes into one
// mutation per outstanding child) run far ahead of a busy back-end.
const DefaultConstructAhead = 256

// Versioned is a bounded log of construct mutations over an underlying
// Reach. The recording side (the engine goroutine) appends; the applying
// side (the detection back-end consumer, or the engine itself once the
// back-end is quiescent) replays them in order. Version v names the
// relation state after the first v recorded mutations — an immutable
// snapshot: between ApplyTo(v) and the next ApplyTo, the underlying Reach
// is exactly the relation at version v and is safe to query under that
// version's rules.
//
// Concurrency contract: one recorder goroutine, one applier at a time.
// Record and ApplyTo synchronize with each other; the underlying Reach is
// only ever touched by the applier.
type Versioned struct {
	r Reach

	mu    sync.Mutex
	space sync.Cond // recorder waits here while the window is full

	pending  []Mut // FIFO: pending[head:] not yet applied
	head     int
	recorded uint64 // mutations ever recorded (the current version)
	applied  uint64 // mutations applied to r
	window   int
	failed   bool // the applier died; Record must never block again

	// pins counts goroutines currently reading the relation at the pinned
	// (current applied) version; while it is non-zero the applier must not
	// advance (ApplyTo panics).
	pins atomic.Int64
}

// NewVersioned wraps r with a mutation log bounded to the given
// construct-ahead window (<=0 means DefaultConstructAhead).
func NewVersioned(r Reach, window int) *Versioned {
	if window <= 0 {
		window = DefaultConstructAhead
	}
	v := &Versioned{r: r, window: window}
	v.space.L = &v.mu
	return v
}

// Reach returns the underlying relation. Callers must hold a version
// guarantee (be the applier, or know the log is drained) to query it.
func (v *Versioned) Reach() Reach { return v.r }

// Window returns the construct-ahead bound.
func (v *Versioned) Window() int { return v.window }

// Recorded returns the current version: the number of mutations recorded
// so far. A batch sealed now must be checked at exactly this version.
// Recorder-side only.
func (v *Versioned) Recorded() uint64 { return v.recorded }

// Lag returns how many recorded mutations have not been applied yet.
// Recorder-side; the answer is a snapshot (the applier may be advancing).
func (v *Versioned) Lag() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return int(v.recorded - v.applied)
}

// Record appends one mutation and returns the new version. It blocks while
// the window is full; the caller must guarantee an applier can make
// progress independently (the engine nudges the back-end with an empty
// version-bearing batch before recording when the log is near the bound).
func (v *Versioned) Record(m Mut) uint64 {
	v.mu.Lock()
	for !v.failed && int(v.recorded-v.applied) >= v.window {
		v.space.Wait()
	}
	// Compact the consumed prefix once it dominates the slice; amortized
	// O(1) and keeps the log from growing beyond the window.
	if v.head > len(v.pending)/2 && v.head > 16 {
		n := copy(v.pending, v.pending[v.head:])
		v.pending = v.pending[:n]
		v.head = 0
	}
	v.pending = append(v.pending, m)
	v.recorded++
	rec := v.recorded
	v.mu.Unlock()
	return rec
}

// ApplyTo replays pending mutations into the underlying Reach until its
// version reaches at least `version`. Applier-side. Mutations recorded
// after `version` stay pending, so the relation observed immediately after
// the call is the immutable snapshot at that version (until the next
// ApplyTo call advances it).
func (v *Versioned) ApplyTo(version uint64) {
	v.mu.Lock()
	failed := v.failed
	v.mu.Unlock()
	if failed {
		// The pipeline poisoned the log: the relation stops advancing (a
		// half-applied relation must not answer any further query) and
		// the failure-path Drain in the engine's report degenerates to a
		// no-op instead of tripping the pin assertion below.
		return
	}
	// Snapshot the pin state once: pins only go 0→n while the scheduler
	// (the sole ApplyTo caller) is between calls, so a zero load here means
	// no reader can appear mid-loop, and a non-zero load conservatively
	// restricts the whole call to pin-safe mutations.
	pinned := v.pins.Load() != 0
	v.mu.Lock()
	for v.applied < version && v.head < len(v.pending) {
		m := &v.pending[v.head]
		if pinned && !m.PinSafe {
			// Folding this mutation (a join or get, or any op the Reach did
			// not advertise as pin-concurrent) while a consumer reads the
			// relation at a pinned version would collapse relations that
			// reader's snapshot still distinguishes — a detector bug, not a
			// recoverable condition. The scheduler must drain pins first.
			v.mu.Unlock()
			panic("core: Versioned.ApplyTo of a folding mutation while a snapshot pin is held")
		}
		v.head++
		v.applied++
		// Apply under the lock: the recorder never touches the Reach, and
		// construct application is cheap next to batch checking; holding
		// the lock keeps the applied counter and the relation in lockstep
		// for Lag/Drain readers.
		m.ApplyTo(v.r)
	}
	v.space.Broadcast()
	v.mu.Unlock()
}

// Drain applies every recorded mutation. Call only when no other applier
// is active (back-end drained or stopped).
func (v *Versioned) Drain() {
	v.ApplyTo(v.recorded)
}

// Fail poisons the log after a pipeline failure: Record stops blocking
// (the recorder would otherwise wait forever on an applier that died)
// and ApplyTo becomes a no-op (the relation is frozen mid-history; a
// partially-advanced relation must answer no further query). Mutations
// recorded after Fail are retained but never applied. Safe from any
// goroutine; irreversible for the run.
func (v *Versioned) Fail() {
	v.mu.Lock()
	v.failed = true
	v.space.Broadcast()
	v.mu.Unlock()
}

// Failed reports whether Fail was called.
func (v *Versioned) Failed() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.failed
}

// Pin marks the current applied version as shared-read-pinned: any number
// of goroutines may query the underlying Reach concurrently (through its
// QueryConcurrent-safe read path) until the matching Unpin. While any pin
// is held, ApplyTo only advances the relation through PinSafe (fold-free)
// mutations and panics if asked to fold; the scheduler drains pins before
// applying joins and gets. Pins nest.
func (v *Versioned) Pin() {
	v.pins.Add(1)
}

// Unpin releases one Pin.
func (v *Versioned) Unpin() {
	if v.pins.Add(-1) < 0 {
		panic("core: Versioned.Unpin without a matching Pin")
	}
}
