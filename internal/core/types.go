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
// the child's bag into the parent's P-bag).
type ReturnRec struct {
	Fn       FnID
	ParentFn FnID
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
// with two incoming edges). Creator and Touch are read by no Reach: the
// detection engine answers Config.CheckStructured's discipline check from
// them, just before the record applies.
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

// MutOp tags one construct mutation.
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

// Mut is one construct event as a value, so the async detection pipeline
// can hand it to its consumer in stream order. Only the record matching Op
// is meaningful; the struct is flat (no pointers) so a batch's mutations
// are one reusable slice of values.
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

// ReachStats aggregates data-structure traffic for reporting. The strand
// and function counts are the engine's (detect.Stats.Strands, Functions).
type ReachStats struct {
	Finds        uint64 // union-find Find operations
	Unions       uint64 // union-find Union operations
	Queries      uint64 // Precedes calls, the discipline checks' included
	AttachedSets uint64 // attached sets created, one per node of R (MultiBags+ only)
	RArcs        uint64 // arcs inserted into R (MultiBags+ only)
	RCloseWords  uint64 // words of R's closure: its distinct 512-bit chunks plus the row index, two ids a word

	// MultiBags+ sync-case counters (Figure 4 lines 29–32 / 33–40 /
	// 41–46), used by tests to prove all three paths are exercised and by
	// the harness to characterize workloads.
	SyncNeither uint64
	SyncBoth    uint64
	SyncMixed   uint64
}

// StrandTable maps strands to their owning function instance. The
// detection engine owns one table per run and shares it with the Reach
// implementation, so the mapping is stored once.
//
// The engine goroutine appends strands at parallel constructs while the
// async detection consumer resolves FnOf for in-flight batches and races.
// The mapping is therefore stored in fixed blocks that never move, behind
// a block directory and an atomic length. Add fills the strand's slot and
// then publishes the new length; only when a block is added does it
// republish the directory, through an atomic pointer, before the slot
// write. Every strand a reader can name was published before the batch
// naming it was sealed (the channel hand-off orders the stores), so its
// slot and its block are visible to the reader. Slot writes land beyond
// every published length, so they never race with reads.
type StrandTable struct {
	dir    atomic.Pointer[[]*[strandBlock]FnID]
	n      atomic.Uint32        // published length, the reserved 0 included
	blocks []*[strandBlock]FnID // recorder-private directory; dir republishes it when a block is added
}

const strandBlock = 1024 // 4 KB blocks of FnID

// NewStrandTable returns an empty table.
func NewStrandTable() *StrandTable {
	t := &StrandTable{}
	t.grow()
	t.n.Store(1)
	return t
}

// grow adds a block and republishes the directory.
func (t *StrandTable) grow() {
	t.blocks = append(t.blocks, new([strandBlock]FnID))
	d := t.blocks
	t.dir.Store(&d)
}

// Add registers strand s as belonging to function f. Strands must be added
// in id order (the engine allocates them densely). Single recorder
// goroutine only.
func (t *StrandTable) Add(s StrandID, f FnID) {
	if uint32(s) != t.n.Load() {
		panic("core: strands must be registered densely in order")
	}
	b := int(s / strandBlock)
	if b == len(t.blocks) {
		t.grow()
	}
	t.blocks[b][s%strandBlock] = f
	t.n.Store(uint32(s) + 1)
}

// FnOf returns the function instance owning strand s. Safe to call from
// the detection back-end for any strand published before the event naming
// it was handed over.
func (t *StrandTable) FnOf(s StrandID) FnID {
	return (*t.dir.Load())[s/strandBlock][s%strandBlock]
}

// Len returns the number of registered strands (excluding the reserved 0).
func (t *StrandTable) Len() int { return int(t.n.Load()) - 1 }

// extend returns s grown with fill values to at least length n. The
// capacity at least doubles when it runs out, so the per-element tables
// of a large run are copied O(log n) times.
func extend[T any](s []T, n int, fill T) []T {
	if n > cap(s) {
		ns := make([]T, len(s), max(n, 2*cap(s)))
		copy(ns, s)
		s = ns
	}
	for len(s) < n {
		s = append(s, fill)
	}
	return s
}
