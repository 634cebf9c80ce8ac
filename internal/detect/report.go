package detect

import (
	"fmt"

	"futurerd/internal/core"
	"futurerd/internal/event"
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

	// Consumers sets the detection pipeline. 0 (the default, as is any
	// negative value) checks each sealed access batch inline on the engine
	// goroutine. Every value of 1 or more runs the same one async
	// consumer goroutine, which overlaps detection with continued program
	// execution: it takes sealed batches in seal order, applies the
	// construct mutations each batch carries ahead of its ops, checks the
	// batch and reports its races. The count above 1 only
	// exists for compatibility; 2 runs exactly what 1 runs. Reports are
	// verdict-, order- and counter-identical to an inline run, for every
	// algorithm, the oracle and Verify runs included.
	Consumers int

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

	// OnRace, if non-nil, is called for each distinct race as found,
	// always before Run returns and in report order. With Consumers >= 1
	// detection runs on the async consumer overlapping program execution,
	// so the callback fires there, concurrently with user code — a
	// callback touching state the program also touches must synchronize.
	// Label fields on callback races are best-effort (the final Report
	// re-resolves them); everything else is final.
	OnRace func(Race)
}

// DefaultMaxRaces bounds report size when MaxRaces is unset.
const DefaultMaxRaces = 64

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
	// Event counts sealed batches, on the engine goroutine, so it is
	// identical across Consumers configurations.
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
