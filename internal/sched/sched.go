// Package sched is a work-stealing scheduler for the task-parallel
// programming model of internal/detect. It executes the same programs the
// detection engine interprets — Spawn/Sync/CreateFut/GetFut on a Task —
// in parallel, with detection hooks disabled.
//
// Design: the classic child-stealing scheduler used by task-parallel
// runtimes. Each worker owns a deque; Spawn and CreateFut push the child
// onto the bottom of the current worker's deque; idle workers steal from
// the top of a random victim. Deques are mutex-protected — simple and
// obviously correct; the detector, not the scheduler, is this repository's
// contribution, and the scheduler's role is to make the library a complete
// platform (and the evaluation's "baseline" meaningful).
//
// Join strategy: a task blocked at Sync or GetFut never runs *arbitrary*
// other work (that is the classic helping deadlock: the helper's stack can
// bury the very job its new work waits on). Instead it claims exactly the
// job it waits on with a CAS and runs it inline if still queued; if the
// job is already running on another worker, the waiter blocks on the job's
// done channel, leaving its deque stealable. Because get targets are
// forward-pointing (§2 of the paper), the waits-on relation follows the
// acyclic future dag, so some worker always makes progress: the scheduler
// is deadlock-free for exactly the programs whose sequential eager
// execution does not deadlock — the same class the detector covers.
package sched

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"futurerd/internal/detect"
)

// Job states.
const (
	jobQueued int32 = iota
	jobRunning
	jobDone
)

// job is a unit of stealable work. Deque entries are hints: ownership is
// taken by CASing state from queued to running, so a waiter can claim a
// job inline even while it still sits in some deque.
type job struct {
	state atomic.Int32
	run   func(w *worker)
	done  chan struct{}
}

func newJob(run func(w *worker)) *job {
	return &job{run: run, done: make(chan struct{})}
}

// deque is a mutex-protected work-stealing deque. The owner pushes and
// pops at the bottom (LIFO, depth-first locality); thieves steal from the
// top (FIFO, biggest remaining subtrees).
type deque struct {
	mu   sync.Mutex
	jobs []*job
}

func (d *deque) push(j *job) {
	d.mu.Lock()
	d.jobs = append(d.jobs, j)
	d.mu.Unlock()
}

func (d *deque) pop() (*job, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.jobs)
	if n == 0 {
		return nil, false
	}
	j := d.jobs[n-1]
	d.jobs[n-1] = nil
	d.jobs = d.jobs[:n-1]
	return j, true
}

func (d *deque) steal() (*job, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.jobs) == 0 {
		return nil, false
	}
	j := d.jobs[0]
	copy(d.jobs, d.jobs[1:])
	d.jobs[len(d.jobs)-1] = nil
	d.jobs = d.jobs[:len(d.jobs)-1]
	return j, true
}

type worker struct {
	pool *Pool
	id   int
	dq   deque
	rng  *rand.Rand
}

// parState is the scheduler's per-task state, stored in Task.Par.
type parState struct {
	w        *worker // worker currently executing the task
	children []*job  // outstanding spawned children, joined at Sync
}

// parFut is the scheduler's per-future state, stored in Fut.Par.
type parFut struct {
	j   *job
	val any
}

// Pool is a work-stealing worker pool implementing detect.Executor.
type Pool struct {
	workers []*worker
	wg      sync.WaitGroup // outstanding jobs
	stop    atomic.Bool

	steals atomic.Uint64
}

// NewPool creates a pool with n workers (n ≤ 0 means GOMAXPROCS) and
// starts them. Call Close after the root task finishes.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{}
	for i := 0; i < n; i++ {
		w := &worker{
			pool: p, id: i,
			rng: rand.New(rand.NewPCG(uint64(i)+1, 0x9e3779b97f4a7c15)),
		}
		p.workers = append(p.workers, w)
	}
	for _, w := range p.workers {
		go w.loop()
	}
	return p
}

// Close stops the workers. Outstanding work must have completed.
func (p *Pool) Close() { p.stop.Store(true) }

// Workers returns the pool size.
func (p *Pool) Workers() int { return len(p.workers) }

// Steals returns the number of successful steals, a sanity signal that
// work actually distributes across workers.
func (p *Pool) Steals() uint64 { return p.steals.Load() }

// Run executes root to completion on a fresh pool of n workers and shuts
// the pool down. It is the package's main entry point.
func Run(n int, root func(*detect.Task)) {
	p := NewPool(n)
	defer p.Close()
	p.RunRoot(root)
}

// RunRoot executes root on the pool and blocks until root and all work it
// transitively created — including futures nobody joined — has finished.
func (p *Pool) RunRoot(root func(*detect.Task)) {
	t := detect.NewTask(p)
	st := &parState{}
	t.Par = st
	j := newJob(func(w *worker) {
		st.w = w
		root(t)
		p.Sync(t) // implicit sync at the end of main
	})
	p.wg.Add(1)
	p.workers[0].dq.push(j)
	p.wg.Wait()
}

// runJob executes j on w (the caller must have claimed it).
func (p *Pool) runJob(j *job, w *worker) {
	j.run(w)
	j.state.Store(jobDone)
	close(j.done)
	p.wg.Done()
}

// claim attempts to take ownership of j.
func claim(j *job) bool { return j.state.CompareAndSwap(jobQueued, jobRunning) }

func (w *worker) loop() {
	idle := 0
	for !w.pool.stop.Load() {
		if j, ok := w.dq.pop(); ok {
			if claim(j) {
				idle = 0
				w.pool.runJob(j, w)
			}
			continue
		}
		if j, ok := w.pool.stealFor(w); ok {
			if claim(j) {
				idle = 0
				w.pool.steals.Add(1)
				w.pool.runJob(j, w)
			}
			continue
		}
		idle++
		switch {
		case idle > 256:
			time.Sleep(50 * time.Microsecond) // long idle: stop burning CPU
		case idle > 16:
			runtime.Gosched()
		}
	}
}

// stealFor tries to steal one job for thief from a random victim, probing
// every other worker once.
func (p *Pool) stealFor(thief *worker) (*job, bool) {
	n := len(p.workers)
	if n == 1 {
		return nil, false
	}
	start := int(thief.rng.Uint64() % uint64(n))
	for i := 0; i < n; i++ {
		v := p.workers[(start+i)%n]
		if v == thief {
			continue
		}
		if j, ok := v.dq.steal(); ok {
			return j, true
		}
	}
	return nil, false
}

func parOf(t *detect.Task) *parState { return t.Par.(*parState) }

// await makes the current task wait for j: run it inline if it is still
// queued, otherwise block until its executor finishes it.
func (p *Pool) await(st *parState, j *job) {
	if claim(j) {
		p.runJob(j, st.w)
		return
	}
	<-j.done
}

// Spawn implements detect.Executor.
func (p *Pool) Spawn(t *detect.Task, f func(*detect.Task)) {
	st := parOf(t)
	ct := detect.NewTask(p)
	cst := &parState{}
	ct.Par = cst
	j := newJob(func(w *worker) {
		cst.w = w
		f(ct)
		p.Sync(ct) // implicit sync at function end
	})
	st.children = append(st.children, j)
	p.wg.Add(1)
	st.w.dq.push(j)
}

// Sync implements detect.Executor: join all outstanding children, most
// recently spawned first (they are likeliest to still be local and
// claimable).
func (p *Pool) Sync(t *detect.Task) {
	st := parOf(t)
	for i := len(st.children) - 1; i >= 0; i-- {
		p.await(st, st.children[i])
		st.children[i] = nil
	}
	st.children = st.children[:0]
}

// CreateFut implements detect.Executor.
func (p *Pool) CreateFut(t *detect.Task, body func(*detect.Task) any) *detect.Fut {
	st := parOf(t)
	h := &detect.Fut{}
	pf := &parFut{}
	h.Par = pf
	ct := detect.NewTask(p)
	cst := &parState{}
	ct.Par = cst
	pf.j = newJob(func(w *worker) {
		cst.w = w
		v := body(ct)
		p.Sync(ct) // implicit sync at function end
		pf.val = v
	})
	p.wg.Add(1)
	st.w.dq.push(pf.j)
	return h
}

// GetFut implements detect.Executor.
func (p *Pool) GetFut(t *detect.Task, h *detect.Fut) any {
	pf := h.Par.(*parFut)
	p.await(parOf(t), pf.j)
	return pf.val
}

// Read implements detect.Executor (no detection under parallel runs).
func (p *Pool) Read(*detect.Task, uint64, int) {}

// Write implements detect.Executor.
func (p *Pool) Write(*detect.Task, uint64, int) {}
