// Package core implements the paper's primary contribution: the MultiBags
// and MultiBags+ reachability algorithms (PPoPP'19, Utterback et al.,
// "Efficient Race Detection with Futures"), plus the classic SP-Bags
// baseline (Feng & Leiserson 1997) for series-parallel programs.
//
// The detection engine (internal/detect) executes the program sequentially
// in depth-first eager order and reports every parallel construct to a
// Reach implementation through the event records below. A strand is a
// maximal instruction sequence containing no parallel control; the engine
// cuts strands exactly at the places the paper's computation dag has
// nodes with two in- or out-edges.
package core

import "sync/atomic"

// StrandID identifies a strand (a node of the computation dag Gfull).
// Strand 0 is reserved as "none"; valid ids start at 1.
type StrandID uint32

// NoStrand is the zero StrandID, meaning "no strand".
const NoStrand StrandID = 0

// MaxStrand is the largest strand id. The shadow layer keeps either a
// strand id or a spill-slot index in the low 31 bits of a word's reader
// slot, with the top bit telling them apart, so ids must fit in 31 bits.
// The detection engine fails closed rather than allocate past it.
const MaxStrand StrandID = 1<<31 - 1

// FnID identifies a function instance (a dynamic call created by spawn or
// create_fut, or the main function). Function 0 is reserved; valid ids
// start at 1.
type FnID uint32

// NoFn is the zero FnID.
const NoFn FnID = 0

// SpawnRec describes a spawn construct. The strand Fork ends with the
// spawn instruction and has two outgoing edges: to ChildFirst (the first
// strand of the spawned function) and to ContFirst (the continuation
// strand in the parent, which executes after the child returns under
// depth-first eager order but is logically parallel with it).
type SpawnRec struct {
	ParentFn   FnID
	ChildFn    FnID
	Fork       StrandID // strand ending with the spawn
	ChildFirst StrandID // first strand of the child
	ContFirst  StrandID // continuation strand in the parent
}

// CreateRec describes a create_fut construct. Creator ends with the
// create_fut call; FutFirst is the source of the future's new SP dag;
// ContFirst is the continuation in the creating function.
type CreateRec struct {
	ParentFn  FnID
	FutFn     FnID
	Creator   StrandID // strand ending with create_fut
	FutFirst  StrandID // first strand of the future function
	ContFirst StrandID // continuation strand in the parent
}

// ReturnRec reports that function Fn finished executing; Last is its final
// strand (the sink of its SP dag). ParentFn is the function that spawned
// or created Fn (needed by the SP-Bags baseline, whose return rule moves
// the child's bag into the parent's P-bag). First is the function's first
// strand; the engine allocates strand ids densely in depth-first execution
// order, so [First, Last] spans every strand of Fn's subtree — the
// detection scheduler uses the span to decide which in-flight batches
// a return's bag retagging could affect. The reachability algorithms
// ignore it.
type ReturnRec struct {
	Fn       FnID
	ParentFn FnID
	First    StrandID
	Last     StrandID
}

// JoinRec describes one binary join of a sync. A sync joining c children
// is decomposed into c binary joins processed innermost (most recent
// spawn) first, per the paper's footnote 2. Fork is the strand that ended
// with the corresponding spawn; ChildFirst/ContFirst are the two branch
// sources; ChildLast/ContLast the two branch sinks; Join is the fresh
// strand beginning after this binary join.
type JoinRec struct {
	Fn         FnID
	ChildFn    FnID
	Fork       StrandID
	ChildFirst StrandID
	ContFirst  StrandID
	ChildLast  StrandID
	ContLast   StrandID
	Join       StrandID
}

// GetRec describes a get_fut construct. Getter is the strand that ended
// with the get_fut call; FutLast is the last strand of the future being
// joined; Cont is the getter strand (the strand immediately following,
// with two incoming edges).
type GetRec struct {
	Fn      FnID
	FutFn   FnID
	Getter  StrandID // strand ending with get_fut
	FutLast StrandID // last strand of the future function
	Cont    StrandID // strand beginning after the get
	Creator StrandID // strand that created the future (for discipline checks)
	Touch   int      // 1 for the first get on this handle, 2 for the second...
}

// Reach maintains and queries the reachability relation of the unfolding
// computation dag. Implementations: MultiBags (structured futures),
// MultiBagsPlus (general futures), SPBags (series-parallel baseline), and
// graph.Recorder (the brute-force oracle used in tests).
//
// All methods are called from the single detection thread; implementations
// need not be safe for concurrent use.
type Reach interface {
	// Init announces the main function and its first strand.
	Init(mainFn FnID, mainStrand StrandID)
	// Spawn, CreateFut, Return, SyncJoin and GetFut mirror the parallel
	// constructs, in program execution order.
	Spawn(SpawnRec)
	CreateFut(CreateRec)
	Return(ReturnRec)
	SyncJoin(JoinRec)
	GetFut(GetRec)
	// Precedes reports whether u is sequentially before the currently
	// executing strand v (u ≺ v in Gfull). u must have started executing
	// already; v must be the currently executing strand — the algorithms
	// exploit this restriction, as does the paper.
	Precedes(u, v StrandID) bool
	// Name identifies the algorithm for reports and benchmarks.
	Name() string
	// Stats returns data-structure traffic counters.
	Stats() ReachStats
}

// QueryConcurrent is the optional capability interface for Reach
// implementations whose Precedes is safe to call from multiple goroutines
// at once, provided no construct event (Spawn, CreateFut, Return,
// SyncJoin, GetFut) runs concurrently. Between parallel constructs the
// reachability relation is immutable, so implementations qualify by
// making their query path read-only up to atomic bookkeeping: CAS-based
// union-find path compression and atomic stat counters. The detection
// engine only fans range detection out across workers when its Reach
// advertises this capability; otherwise ranges stay on the serial path.
type QueryConcurrent interface {
	// ConcurrentPrecedesSafe reports whether concurrent Precedes calls
	// are safe between constructs.
	ConcurrentPrecedesSafe() bool
}

// PinConcurrent is the optional capability interface for Reach
// implementations that can additionally apply *fold-free* construct
// mutations while concurrent Precedes calls are in flight — the lever
// behind the overlapping-window scheduler. A mutation op qualifies when
// applying it can only add fresh dag structure (new strands, new
// functions, new singleton sets) or move structure in ways no concurrent
// query can observe: it must never fold two sets an in-flight query could
// distinguish, nor rewrite an element a query could read mid-update.
// Implementations back this with published-slice growth (ds.PubSlice) and
// atomic union-find parent access, so readers on a stale snapshot see a
// consistent older version of the relation.
//
// A Reach that does not implement PinConcurrent gets the conservative
// behavior: every mutation is a scheduling barrier, which degrades to the
// strict quiescent-epoch pipeline.
type PinConcurrent interface {
	// PinSafeMut reports whether mutations of the given op kind may be
	// applied while snapshot pins are held.
	PinSafeMut(op MutOp) bool
}

// EpochConcurrent is the optional capability interface behind the shadow
// layer's carried-forward read epoch. EpochOrdered(r, s) is a cheap,
// query-free sufficient condition for r ≺ s that additionally promises
// *verdict transfer*: whenever it returns true, every strand w for which
// this algorithm's Precedes(w, r) returned true while r was the executing
// strand would also get Precedes(w, s) == true now. The shadow layer uses
// that promise to skip the writer-side reachability query on a word whose
// last race-free reader was r — the stamp "carries forward" across
// construct generations instead of dying at every spawn/join.
//
// The contract is strictly stronger than plain reachability: for an
// algorithm that is exact on its program class (MultiBags on structured
// programs, MultiBags+ on all forward-pointing programs), r ≺ s plus dag
// monotonicity gives the transfer for free; for an approximate algorithm
// (SP-Bags on futures) the implementation must only answer true when its
// own internal verdict provably cannot have flipped between r's read and
// s's. False negatives are always safe — the caller falls back to the
// full Precedes.
//
// s must be the currently executing strand (same restriction as Precedes);
// r must be a strand that completed a race-free read earlier. Calls must
// be safe under the same concurrency regime as QueryConcurrent (concurrent
// with other queries, never with a construct mutation), and must not count
// toward ReachStats.Queries — they replace queries rather than add to
// them.
type EpochConcurrent interface {
	// EpochOrdered reports whether the stamp of reader r transfers its
	// race-free verdict to the current strand s.
	EpochOrdered(r, s StrandID) bool
}

// ReachStats aggregates data-structure traffic for reporting.
type ReachStats struct {
	Finds         uint64 // union-find Find operations
	Unions        uint64 // union-find Union operations
	Queries       uint64 // Precedes calls
	AttachedSets  uint64 // attached sets created (MultiBags+ only)
	RArcs         uint64 // arcs inserted into R (MultiBags+ only)
	RCloseWords   uint64 // 64-bit words held by R's transitive closure
	StrandsSeen   uint64
	FunctionsSeen uint64

	// MultiBags+ sync-case counters (Figure 4 lines 29–32 / 33–40 /
	// 41–46), used by tests to prove all three paths are exercised and by
	// the harness to characterize workloads.
	SyncNeither uint64
	SyncBoth    uint64
	SyncMixed   uint64

	// Vector-clock back-end counters (VectorClocks only; zero elsewhere,
	// just as the bag counters above stay zero on VectorClocks runs).
	// ClockCompares counts epoch/clock comparisons — every Precedes and
	// every EpochOrdered resolves in exactly one — while ClockInflations
	// and ClockBytes size the full-vector materializations that real
	// fan-in forces, and ClockWidth is the slot high-water mark: how many
	// clock columns were ever live at once (live parallelism, not total
	// strands).
	ClockCompares   uint64
	ClockInflations uint64
	ClockBytes      uint64
	ClockWidth      uint64
}

// StrandTable maps strands to their owning function instance. The
// detection engine owns one table per run and shares it with the Reach
// implementation, so the mapping is stored once.
//
// The engine goroutine appends strands at parallel constructs while, under
// the non-blocking construct pipeline, the detection back-end consumer
// resolves FnOf for in-flight batches and races. The mapping is therefore
// published through an atomic slice header: readers load a consistent
// (pointer, len) pair, and every strand a reader can name was published
// before the batch naming it was sealed (the channel hand-off orders the
// stores). In-place element writes land beyond every published reader's
// length, so they never race with reads.
type StrandTable struct {
	hdr atomic.Pointer[[]FnID]
	fn  []FnID // recorder-private backing; hdr republishes it after each Add
}

// NewStrandTable returns a table with capacity hint n strands.
func NewStrandTable(n int) *StrandTable {
	t := &StrandTable{fn: make([]FnID, 1, n+1)}
	t.publish()
	return t
}

func (t *StrandTable) publish() {
	h := t.fn
	t.hdr.Store(&h)
}

// Add registers strand s as belonging to function f. Strands must be added
// in id order (the engine allocates them densely). Single recorder
// goroutine only.
func (t *StrandTable) Add(s StrandID, f FnID) {
	if int(s) != len(t.fn) {
		panic("core: strands must be registered densely in order")
	}
	t.fn = append(t.fn, f)
	t.publish()
}

// FnOf returns the function instance owning strand s. Safe to call from
// the detection back-end for any strand published before the event naming
// it was handed over.
func (t *StrandTable) FnOf(s StrandID) FnID { return (*t.hdr.Load())[s] }

// Len returns the number of registered strands (excluding the reserved 0).
func (t *StrandTable) Len() int { return len(*t.hdr.Load()) - 1 }
