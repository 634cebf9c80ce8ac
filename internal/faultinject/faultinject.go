// Package faultinject is the deterministic fault-injection substrate of
// the fail-closed detection pipeline: a seed-driven plan of fault points
// compiled into the pipeline's hot paths behind a near-zero-cost hook.
//
// A production engine carries a nil *Plan, so every probe is one nil
// check and the instrumented paths cost nothing measurable. Tests arm a
// Plan — either an explicit Single(point, occurrence) or a seed-derived
// NewPlan(seed) — and the pipeline then panics, stalls, corrupts a batch
// footprint or fails a page materialization at exactly the chosen
// occurrence of the chosen point. Determinism is the point: the
// differential-fuzz arm replays the same seed against the same program
// and asserts the fail-closed invariant (verdicts identical to serial,
// or one structured PipelineError and no goroutine left behind).
//
// The package is a leaf: it imports only the standard library, so every
// layer of the pipeline (detect, shadow, trace tests) can hook it
// without import cycles.
package faultinject

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Point names one fault-injection site in the pipeline.
type Point uint8

// Fault points, one per instrumented site class.
const (
	// ConsumerPanic panics on the goroutine checking a batch: a pool
	// consumer (Consumers >= 1), or the engine goroutine on the inline
	// pipeline (Consumers 0, and oracle and Verify runs).
	ConsumerPanic Point = iota
	// ConsumerStall sleeps Plan.Stall on the checking goroutine before a
	// batch is processed — a wedged consumer for the watchdog to catch.
	ConsumerStall
	// SchedulerStall sleeps Plan.Stall on the scheduler goroutine at an
	// epoch boundary — a wedged window.
	SchedulerStall
	// CorruptFootprint mangles a sealed batch's page-footprint summary
	// before it reaches the scheduler, simulating a summarizer bug; the
	// shadow install audit is what must catch the consequences.
	CorruptFootprint
	// PageFail fails a shadow page materialization (the allocation edge
	// of the access history), on whichever goroutine first touches the
	// page.
	PageFail
	// StealPanic panics on a consumer processing a stolen chunk (a chunk
	// other than the batch's first), exercising failure of a
	// partially-checked batch split across a pool of two or more.
	StealPanic
	// OverlapStall sleeps Plan.Stall on the scheduler as it publishes a
	// relation version while earlier batches are still in flight — a
	// wedged overlapping window for the watchdog to catch.
	OverlapStall

	numPoints
)

// String returns the point's name.
func (p Point) String() string {
	switch p {
	case ConsumerPanic:
		return "consumer-panic"
	case ConsumerStall:
		return "consumer-stall"
	case SchedulerStall:
		return "scheduler-stall"
	case CorruptFootprint:
		return "corrupt-footprint"
	case PageFail:
		return "page-fail"
	case StealPanic:
		return "steal-panic"
	case OverlapStall:
		return "overlap-stall"
	default:
		return fmt.Sprintf("point(%d)", uint8(p))
	}
}

// Points lists every injectable point, for matrix tests.
func Points() []Point {
	ps := make([]Point, 0, numPoints)
	for p := Point(0); p < numPoints; p++ {
		ps = append(ps, p)
	}
	return ps
}

// Plan is one run's fault schedule: for each point, the 1-based
// occurrence at which the fault fires (0 = never). Plans are armed once
// before the run and then only read; the per-point hit counters are
// atomic because probes fire from every pipeline goroutine.
//
// A nil *Plan is the production configuration: every method is
// nil-receiver-safe and Fire degenerates to one pointer test.
type Plan struct {
	// Stall is how long the stall points sleep when they fire.
	Stall time.Duration

	fireAt [numPoints]uint64
	hits   [numPoints]atomic.Uint64
}

// Single returns a plan that fires pt at its occurrence-th probe
// (1-based; occurrence < 1 means the first) and nothing else.
func Single(pt Point, occurrence uint64) *Plan {
	if occurrence < 1 {
		occurrence = 1
	}
	p := &Plan{}
	p.fireAt[pt] = occurrence
	return p
}

// splitmix64 is the seed expander: deterministic, dependency-free, and
// well-mixed enough that nearby seeds pick unrelated faults.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewPlan derives a single-fault plan from seed: the seed picks which
// point fires and at which occurrence (1–8). Equal seeds yield equal
// plans — the property the differential-fuzz arm replays on.
func NewPlan(seed uint64) *Plan {
	h := splitmix64(seed)
	pt := Point(h % uint64(numPoints))
	occ := 1 + (splitmix64(h) % 8)
	return Single(pt, occ)
}

// Arms reports whether the plan ever fires pt — tests use it to steer
// around configurations where a fault is designed to be fatal (the debug
// build's hard audit panic).
func (p *Plan) Arms(pt Point) bool {
	return p != nil && p.fireAt[pt] != 0
}

// Fire reports whether this probe of pt is the one the plan arms. Safe
// from any goroutine; a nil plan never fires.
func (p *Plan) Fire(pt Point) bool {
	if p == nil {
		return false
	}
	at := p.fireAt[pt]
	if at == 0 {
		return false
	}
	return p.hits[pt].Add(1) == at
}

// Delay sleeps Plan.Stall if this probe of pt fires — the stall points'
// one-line hook.
func (p *Plan) Delay(pt Point) {
	if p.Fire(pt) && p.Stall > 0 {
		time.Sleep(p.Stall)
	}
}

// Panic is the typed panic value the panicking fault points throw; the
// pipeline's recover shells wrap it into a structured PipelineError, and
// tests unwrap it with errors.As to confirm the failure they injected is
// the failure they observed.
type Panic struct {
	Point Point
}

// Error implements error so the value survives errors.As through the
// PipelineError cause chain.
func (f Panic) Error() string {
	return fmt.Sprintf("faultinject: injected %s", f.Point)
}
