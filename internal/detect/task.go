// Package detect contains the sequential depth-first eager detection
// engine: it interprets a task-parallel program written against Task,
// cuts it into strands, feeds the parallel constructs to a reachability
// algorithm (internal/core) and every memory access to the access history
// (internal/shadow), and reports determinacy races.
package detect

import "futurerd/internal/core"

// Task is the per-function-instance handle threaded through task-parallel
// code. The same type is used by the detection engine and by the parallel
// work-stealing scheduler (internal/sched); which one interprets the
// constructs is determined by the Executor the Task carries.
type Task struct {
	ex Executor

	// Detection-engine state.
	fn     core.FnID
	strand core.StrandID
	spawns []spawnRec // outstanding spawned children, LIFO

	// born carries a child task's join bookkeeping between BeginSpawn/
	// BeginFut and the matching End call (the strands recorded at the
	// fork, completed with the child's last strand at the join).
	born spawnRec

	// Scheduler state (opaque to this package; see internal/sched).
	Par any
}

// spawnRec remembers one spawned child between its spawn and the enclosing
// sync; it carries everything a binary join record needs.
type spawnRec struct {
	childFn    core.FnID
	fork       core.StrandID
	childFirst core.StrandID
	cont       core.StrandID
	childLast  core.StrandID
}

// Executor interprets the parallel constructs. Implementations: the
// detection engine (this package), the plain sequential executor, and the
// work-stealing scheduler.
type Executor interface {
	Spawn(t *Task, f func(*Task))
	Sync(t *Task)
	CreateFut(t *Task, body func(*Task) any) *Fut
	GetFut(t *Task, h *Fut) any
	Read(t *Task, addr uint64, words int)
	Write(t *Task, addr uint64, words int)
}

// NewTask returns a root task bound to ex. It is used by executors other
// than the detection engine (the engine builds its own root).
func NewTask(ex Executor) *Task { return &Task{ex: ex} }

// Spawn runs f as a child task that is logically parallel with the rest of
// the current function until the next Sync.
func (t *Task) Spawn(f func(*Task)) { t.ex.Spawn(t, f) }

// Sync joins all children spawned by the current function since the last
// Sync. Futures created with CreateFut are not joined (they escape syncs).
func (t *Task) Sync() { t.ex.Sync(t) }

// CreateFut starts body as a future that is logically parallel with
// everything up to the Get on the returned handle.
func (t *Task) CreateFut(body func(*Task) any) *Fut { return t.ex.CreateFut(t, body) }

// GetFut joins the future h and returns its value.
func (t *Task) GetFut(h *Fut) any { return t.ex.GetFut(t, h) }

// Read reports a one-word read at addr to the detector (no-op when not
// detecting).
func (t *Task) Read(addr uint64) { t.ex.Read(t, addr, 1) }

// Write reports a one-word write at addr to the detector.
func (t *Task) Write(addr uint64) { t.ex.Write(t, addr, 1) }

// ReadRange reports reads of words consecutive words starting at addr.
func (t *Task) ReadRange(addr uint64, words int) { t.ex.Read(t, addr, words) }

// WriteRange reports writes of words consecutive words starting at addr.
func (t *Task) WriteRange(addr uint64, words int) { t.ex.Write(t, addr, words) }

// Label attaches a human-readable label to the current function instance
// (this task's body); races involving it carry the label in reports.
// Executors that track labels (the detection engine, the trace recorder)
// implement the optional Label method; under any other executor this is a
// no-op.
func (t *Task) Label(label string) {
	if l, ok := t.ex.(interface{ Label(*Task, string) }); ok {
		l.Label(t, label)
	}
}

// Strand returns the id of the currently executing strand (0 when the
// executor does not track strands). Exposed for tests and diagnostics.
func (t *Task) Strand() core.StrandID { return t.strand }

// Fn returns the id of the current function instance (0 when untracked).
func (t *Task) Fn() core.FnID { return t.fn }

// Executor returns the executor interpreting this task.
func (t *Task) Executor() Executor { return t.ex }

// Fut is a future handle. It is created by CreateFut and consumed by
// GetFut. Under the detection engine the body has already run to
// completion when CreateFut returns (depth-first eager execution, §2);
// under the parallel scheduler it completes asynchronously.
type Fut struct {
	// Detection-engine fields (single-threaded).
	val           any
	done          bool
	fn            core.FnID
	creatorStrand core.StrandID
	last          core.StrandID
	touches       int

	// Scheduler fields (see internal/sched).
	Par any
}

// Value returns the future's raw value and whether it has completed,
// without joining it. Exposed for executors and tests.
func (h *Fut) Value() (any, bool) { return h.val, h.done }

// Complete marks the future done with value v. Used by executors.
func (h *Fut) Complete(v any) { h.val = v; h.done = true }
