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
// The consumer is the only goroutine that applies mutations or queries
// the underlying Reach while the engine runs, so the relation itself needs
// no synchronization; only the log's bookkeeping is shared.
package core

import "sync"

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
	defer v.mu.Unlock()
	if v.failed {
		// The pipeline poisoned the log: the relation stops advancing (a
		// half-applied relation must not answer any further query) and
		// the failure-path Drain in the engine's report is a no-op.
		return
	}
	for v.applied < version && v.head < len(v.pending) {
		m := &v.pending[v.head]
		v.head++
		v.applied++
		// Apply under the lock: the recorder never touches the Reach, and
		// construct application is cheap next to batch checking; holding
		// the lock keeps the applied counter and the relation in lockstep
		// for Lag/Drain readers.
		m.ApplyTo(v.r)
	}
	v.space.Broadcast()
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
