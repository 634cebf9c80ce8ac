package detect

import (
	"fmt"
	"time"

	"futurerd/internal/core"
	"futurerd/internal/event"
	"futurerd/internal/faultinject"
	"futurerd/internal/shadow"
)

// Mode selects the reachability algorithm.
type Mode int

// Detection modes.
const (
	// ModeNone disables detection entirely; the engine degenerates to a
	// plain sequential executor (the evaluation's "baseline").
	ModeNone Mode = iota
	// ModeSPBags uses the fork-join SP-Bags baseline (unsound for
	// programs with futures; provided for comparison).
	ModeSPBags
	// ModeMultiBags uses the paper's §4 algorithm for structured futures.
	ModeMultiBags
	// ModeMultiBagsPlus uses the paper's §5 algorithm for general futures.
	ModeMultiBagsPlus
	// ModeOracle records the full computation dag and answers queries by
	// graph search. Slow; intended for tests and cross-validation.
	ModeOracle
	// ModeVectorClocks uses the FastTrack-style vector-clock back-end:
	// Precedes is one epoch/clock comparison, with no bag probes and no
	// R-closure maintenance. Exact on the same program class as
	// MultiBags+ (all forward-pointing futures).
	ModeVectorClocks
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeSPBags:
		return "spbags"
	case ModeMultiBags:
		return "multibags"
	case ModeMultiBagsPlus:
		return "multibags+"
	case ModeOracle:
		return "oracle"
	case ModeVectorClocks:
		return "vc"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// MemLevel selects how much of the memory-access pipeline runs, matching
// the paper's evaluation configurations (§6).
type MemLevel int

// Memory instrumentation levels.
const (
	// MemOff ignores memory accesses: the "reachability" configuration.
	MemOff MemLevel = iota
	// MemInstr pays the instrumentation cost (hook dispatch plus shadow
	// address decoding) but neither maintains nor queries the access
	// history: the "instrumentation" configuration.
	MemInstr
	// MemFull runs full race detection: the "full" configuration.
	MemFull
)

// String returns the level name.
func (m MemLevel) String() string {
	switch m {
	case MemOff:
		return "reachability"
	case MemInstr:
		return "instrumentation"
	case MemFull:
		return "full"
	default:
		return fmt.Sprintf("memlevel(%d)", int(m))
	}
}

// Config configures a detection run.
type Config struct {
	Mode Mode
	Mem  MemLevel

	// Consumers sets the detection pipeline. 0 (the default) checks each
	// sealed access batch inline on the engine goroutine. 1 or more runs
	// the dependency-scheduled consumer pool of that size, overlapping
	// detection with continued program execution: sealed batches whose
	// footprints are independent — disjoint shadow pages, distinct
	// strands, and no conflicting construct mutation between them — are
	// checked concurrently by up to this many consumers, each under the
	// same pinned snapshot of the versioned reachability relation;
	// dependent batches serialize in seal order. The scheduler publishes
	// relation versions ahead of in-flight checks, even with one consumer,
	// and a sequence-numbered reorder buffer keeps race delivery in seal
	// order. Reports are verdict-, order- and counter-identical to an
	// inline run for any Consumers setting. The pool requires an algorithm
	// with a concurrent-safe query path (SP-Bags, MultiBags, MultiBags+,
	// vector clocks); the oracle and Verify runs check inline.
	Consumers int

	// StealChunkWords overrides the words-per-chunk granule at which the
	// scheduler of a pool of two or more consumers splits one large batch into
	// footprint-disjoint chunks that idle consumers steal (0 means the
	// default of 4 shadow pages). A batch only splits when its prefix and
	// suffix touch strictly separated page ranges, so chunks of one batch
	// never share a shadow word; batches below twice the granule are never
	// split. Exposed for the steal-path tests and the chunk-size sweep.
	StealChunkWords int

	// BatchOps overrides the op cap of one access-event batch (0 means
	// event.MaxOps): a batch that reaches the cap flushes mid-window so
	// pipeline memory stays bounded on non-coalescing access storms.
	// Exposed for the BenchmarkBatchCap sweep; verdicts are identical for
	// any cap ≥ 1.
	BatchOps int

	// ConstructAhead bounds how many construct mutations the engine may
	// record ahead of the consumer pool (Consumers >= 1): the
	// reachability relation is versioned, sealed batches carry the version
	// they were recorded under, and parallel constructs proceed without
	// waiting for in-flight batch checks — up to this window, at which
	// point the engine back-pressures. 0 means core.DefaultConstructAhead.
	// Irrelevant to inline runs (Consumers == 0, and the oracle and Verify
	// runs), which apply mutations directly. Reports are verdict-, order-
	// and counter-identical for any window.
	ConstructAhead int

	// MaxRaces caps the number of distinct races collected in the report
	// (detection continues and keeps counting). 0 means DefaultMaxRaces.
	MaxRaces int

	// CheckStructured verifies the structured-future discipline (§2):
	// single-touch handles and creator-precedes-getter. Violations are
	// reported, not fatal; MultiBags' guarantees only hold without them.
	CheckStructured bool

	// Verify cross-checks every reachability answer of the selected
	// algorithm against the brute-force dag oracle and records
	// mismatches. Slow; for tests.
	Verify bool

	// StallTimeout arms the pipeline stall watchdog (consumer pool only —
	// Consumers >= 1): each pipeline stage heartbeats through
	// sealed/dispatched/checked progress counters, and if none advances
	// for this long while work is outstanding, the run fails closed with a
	// PipelineError whose Stage is "watchdog" and whose Progress dumps the
	// per-stage state, instead of hanging. Zero disables the watchdog. The
	// inline pipeline (including oracle and Verify runs) cannot stall
	// between stages and is unaffected.
	StallTimeout time.Duration

	// Faults, when non-nil, arms deterministic fault injection at the
	// pipeline's instrumented sites — consumer panics, stage stalls,
	// corrupted batch footprints, failed page materializations. For the
	// robustness test suite; nil (the default) keeps every probe at one
	// nil check.
	Faults *faultinject.Plan

	// Sampling, when Rate > 0, arms the always-on sampling front-end: a
	// deterministic tier between the shadow layer's free skips and the
	// detection protocol that bounds per-access cost for production
	// traffic. See the Sampling type; the zero value keeps full detection.
	// Only meaningful under MemFull (the other levels run no protocol).
	Sampling Sampling

	// OnRace, if non-nil, is called for each distinct race as found,
	// always before Run returns and in report order. With Consumers >= 1
	// (oracle and Verify runs excepted, which check inline) detection runs
	// on the scheduler goroutine overlapping program execution, so the
	// callback may fire there, concurrently with user code — a callback touching state the program also touches must
	// synchronize. Label fields on callback races are best-effort (the
	// final Report re-resolves them); everything else is final.
	OnRace func(Race)
}

// DefaultMaxRaces bounds report size when MaxRaces is unset.
const DefaultMaxRaces = 64

// Sampling configures the tier-1 access sampler, the always-on front-end
// between the shadow layer's free skips and the detection protocol. The
// filter stack per access, cheapest first: owned-word skip → read-epoch
// skip → epoch verdict transfer (tier 0, always run, verdicts proven) →
// sampler (tier 1) → full protocol. Only accesses that would otherwise
// pay a real reachability query consult the sampler.
//
// Sampling is sound-for-reports by construction: unsampled accesses skip
// the race verdict but still install their writer/reader shadow state, so
// every race a sampled run reports is a race full detection reports —
// sampling can only miss races, never invent them. Rate 1.0 with Budget 0
// is verdict-, order- and counter-identical to full detection (only the
// SampledAccesses counter is new); the detection-rate trade-off at lower
// rates is measured by the futurerd-bench `sample` table.
type Sampling struct {
	// Rate in (0, 1] is the fraction of protocol-bound accesses admitted
	// to the full query path, decided by a deterministic hash of
	// (Seed, address, construct generation) — no randomness, so the
	// admitted set is identical across runs and across every
	// Consumers pipeline configuration. Rate 0 (the zero value)
	// disables sampling entirely. Rates outside [0, 1] are a
	// configuration error.
	Rate float64

	// Budget, when > 0, additionally bounds admissions per shadow page
	// per construct generation with a coupon refreshed at each new
	// generation, so repeated hot-page traffic converges to O(1) sampled
	// accesses per page per epoch regardless of Rate. The totals stay
	// deterministic, but under a concurrent pipeline the schedule decides
	// which accesses win a page's last coupons — budgeted runs promise
	// the race-subset property, not cross-configuration identity. 0 means
	// unlimited.
	Budget int

	// Seed drives the deterministic admission hash; two runs with the
	// same seed sample the same accesses.
	Seed uint64
}

// Race describes one determinacy race: two logically parallel accesses to
// the same location, at least one a write. Curr is always the later access
// in the depth-first execution order.
type Race struct {
	Addr       uint64
	Prev, Curr core.StrandID
	PrevWrite  bool
	CurrWrite  bool
	PrevLabel  string
	CurrLabel  string
}

// String formats the race for humans.
func (r Race) String() string {
	kind := func(w bool) string {
		if w {
			return "write"
		}
		return "read"
	}
	lbl := func(s core.StrandID, l string) string {
		if l == "" {
			return fmt.Sprintf("strand %d", s)
		}
		return fmt.Sprintf("strand %d (%s)", s, l)
	}
	return fmt.Sprintf("race on addr %#x: %s by %s ∥ %s by %s",
		r.Addr, kind(r.PrevWrite), lbl(r.Prev, r.PrevLabel),
		kind(r.CurrWrite), lbl(r.Curr, r.CurrLabel))
}

// Violation reports a departure from the structured-future discipline or,
// in Verify mode, a disagreement between the algorithm and the oracle.
type Violation struct {
	Kind   string // "multi-touch" | "unordered-create-get" | "reach-mismatch" | ...
	Detail string
}

// Stats aggregates a run's counters.
type Stats struct {
	Strands   int
	Functions int
	Spawns    uint64
	Creates   uint64
	Gets      uint64
	Syncs     uint64

	RaceCount uint64 // total race observations, including deduplicated ones

	// TruncatedRaces counts distinct racy addresses dropped from Races
	// because the MaxRaces cap was already reached; RaceCount still
	// includes them. Zero means Races is complete per-address.
	TruncatedRaces uint64
	// DroppedPairs counts race observations at an already-reported
	// address whose racing strand pair differs from the recorded one —
	// distinct pairs the per-address dedupe hides. Zero means every
	// observed pair is represented.
	DroppedPairs uint64
	// TruncatedViolations counts violations dropped beyond the report's
	// violation cap.
	TruncatedViolations uint64

	Reach  core.ReachStats
	Shadow shadow.Stats
	// Event counts batch-pipeline traffic: sealed batches, the
	// deterministic pairwise independent/serialized classification the
	// scheduler's window rules are built from, and
	// footprint summary sizes. Counted at seal time on the engine
	// goroutine, so identical across Consumers configurations —
	// except Event.StolenChunks and Event.OverlappedWindows, which count
	// scheduling outcomes (chunks checked by a stealing consumer, relation
	// versions published over in-flight batches) and are timing-dependent.
	Event event.Stats

	// Trace describes how a trace replay ended; meaningful only for
	// reports produced by the trace package's recovering replay (all
	// zero otherwise).
	Trace TraceStats
}

// TraceStats reports how a recovering trace replay ended: whether the
// stream was cut short (truncation, a checksum mismatch, or a replay
// limit) and after how many events. Set by trace.ReplayRecover; a direct
// detection run leaves it zero.
type TraceStats struct {
	// Truncated is true when the stream ended early and the report covers
	// only the prefix replayed up to that point.
	Truncated bool
	// TruncatedAtEvent is the count of events successfully replayed
	// before the cut.
	TruncatedAtEvent uint64
	// Reason is the decoder's one-line diagnosis of the cut ("" when the
	// stream replayed to its terminator).
	Reason string
}

// Report is the outcome of a detection run.
type Report struct {
	Algorithm  string
	Races      []Race
	Violations []Violation
	Stats      Stats
	// Err is non-nil when the run could not complete, e.g. a get_fut on a
	// future that has not finished under depth-first eager execution (the
	// program would deadlock; the paper race detects up to that point).
	Err error
}

// Racy reports whether at least one race was observed.
func (r *Report) Racy() bool { return r.Stats.RaceCount > 0 }
