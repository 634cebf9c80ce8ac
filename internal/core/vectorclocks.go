package core

// noSlot marks an absent inline stamp in a vcRep.
const noSlot = ^uint32(0)

// compactScan bounds how many entries of the free-slot pool one
// allocation inspects in the common case. The pool is a LIFO stack, so
// the slots retired by the most recent joins — exactly the ones the next
// fork has already seen — sit on top, and a short scan keeps sequential
// spawn/join loops at constant clock width without turning allocation
// into a pool sweep. When the pool is under pressure — minting a fresh
// slot would keep the live count below its own high-water mark, so a
// reusable dead column provably exists somewhere in the pool — the scan
// adaptively deepens to the whole free list instead (see allocSlot).
const compactScan = 8

// vcStamp is a strand's epoch: its clock column (slot) and its position
// in that column's happens-before chain (tick). Ticks are per-slot and
// strictly increase along the chain, including across slot reuse, so a
// stamp stays comparable forever.
type vcStamp struct{ slot, tick uint32 }

// vcRep is one strand's clock in the epoch-fast representation: the
// immutable base vector named by base, joined with the strand's own stamp
// and at most one auxiliary stamp (the fork strand's epoch, for the first
// strands of a spawned or created task whose base predates the fork).
// C(r)[s] = max(base[s], own if s==own.slot, aux if s==aux.slot), each
// override at least the base entry by the slot-chain invariant, so lookup
// is a two-compare dispatch, never a max. A strand's rep is written once,
// when the strand is created, and never mutated.
type vcRep struct {
	base    uint32 // index into vecs; vector 0 is empty
	own     vcStamp
	auxSlot uint32 // noSlot when the base already covers the fork's epoch
	auxTick uint32
}

// slotState is the writer-private per-slot bookkeeping: the last tick
// handed out in the slot's chain, and whether the chain has retired (its
// final strand was joined) making the slot reusable.
type slotState struct {
	tick  uint32
	freed bool
}

// VectorClocks is the FastTrack-style fourth back-end: reachability via
// per-strand vector clocks (Flanagan & Freund PLDI'09 epochs; Kumar et
// al., arXiv:2112.04352, for task graphs) instead of bags and an R-dag.
// Clocks are joined at spawn, create_fut, sync and get, so Precedes(u, v)
// is a single epoch/clock comparison — no union-find probes, no R-closure
// maintenance, and therefore no k² closure growth on get-heavy runs.
//
// Exactness: clocks accumulate along every dag edge the engine reports
// (fork→child, fork→continuation, creator→future, branch→join,
// future-last→getter-continuation), so Precedes computes true dag
// reachability for arbitrary — multi-touch, escaping — forward-pointing
// futures, the same class MultiBags+ is exact on, and for any (u, v)
// pair, not just the currently executing v.
//
// Two levers keep the clocks compact. First, the epoch-fast per-strand
// representation (vcRep): a strand's clock is a shared immutable base
// vector plus at most two inline stamps, and a full vector is
// materialized only on real fan-in — a join or get whose branches are not
// already ordered — or once per task when it first forks while still
// carrying its birth stamp. Continuations, the overwhelmingly common
// case, reuse their predecessor's base and bump one tick. Second,
// strand-id compaction: clock columns are slots recycled through a free
// pool when their chain retires at a join, guarded by a tick check that
// keeps each slot's strand history a happens-before chain, so vector
// width tracks live parallelism (ReachStats.ClockWidth) rather than total
// strands.
type VectorClocks struct {
	st   *StrandTable
	reps []vcRep
	// vecs holds the materialized base vectors, indexed by vcRep.base.
	// Entry 0 is the empty vector; later entries are written once at
	// creation and never mutated.
	vecs [][]uint32

	// Compaction state: per-slot chain ticks, the LIFO pool of retired
	// slots, and the high-water mark of the live slot count
	// (len(slots) - len(free)) that drives adaptive pool scanning in
	// allocSlot. Queries never read these.
	slots  []slotState
	free   []uint32
	liveHW int

	queries    uint64 // Precedes calls
	compares   uint64 // epoch/clock comparisons, one per Precedes
	inflations uint64
	clockBytes uint64
	fns        uint64
}

// NewVectorClocks returns a VectorClocks instance sharing the engine's
// strand table.
func NewVectorClocks(st *StrandTable) *VectorClocks {
	return &VectorClocks{
		st:    st,
		reps:  make([]vcRep, 0, 64),
		vecs:  [][]uint32{nil}, // vector 0: the empty clock
		slots: make([]slotState, 0, 16),
	}
}

// Name implements Reach.
func (v *VectorClocks) Name() string { return "vc" }

// lookup returns C(r)[s] against the given vectors: the newest tick of
// slot s among the strands preceding (or equal to) the strand r
// represents.
func lookup(r *vcRep, vecs [][]uint32, s uint32) uint32 {
	if s == r.own.slot {
		return r.own.tick
	}
	if s == r.auxSlot {
		return r.auxTick
	}
	b := vecs[r.base]
	if int(s) < len(b) {
		return b[s]
	}
	return 0
}

// setRep records the rep of freshly created strand s.
func (v *VectorClocks) setRep(s StrandID, r vcRep) {
	v.reps = extend(v.reps, int(s)+1, vcRep{})
	v.reps[s] = r
}

// materialize builds r's full clock as a fresh vector at the current
// width.
func (v *VectorClocks) materialize(r *vcRep) []uint32 {
	vec := make([]uint32, len(v.slots))
	copy(vec, v.vecs[r.base])
	if r.auxSlot != noSlot && vec[r.auxSlot] < r.auxTick {
		vec[r.auxSlot] = r.auxTick
	}
	if vec[r.own.slot] < r.own.tick {
		vec[r.own.slot] = r.own.tick
	}
	return vec
}

// foldInto raises vec to vec ⊔ C(r) pointwise.
func (v *VectorClocks) foldInto(vec []uint32, r *vcRep) {
	for s, t := range v.vecs[r.base] {
		if vec[s] < t {
			vec[s] = t
		}
	}
	if r.auxSlot != noSlot && vec[r.auxSlot] < r.auxTick {
		vec[r.auxSlot] = r.auxTick
	}
	if vec[r.own.slot] < r.own.tick {
		vec[r.own.slot] = r.own.tick
	}
}

// addVec stores a freshly materialized vector and returns its id.
func (v *VectorClocks) addVec(vec []uint32) uint32 {
	id := uint32(len(v.vecs))
	v.vecs = append(v.vecs, vec)
	v.inflations++
	v.clockBytes += 4 * uint64(len(vec))
	return id
}

// allocSlot hands out a clock column for a new task chain whose first
// strand inherits clock C(parent). A retired slot is reusable exactly
// when its last strand is covered by the new chain's clock — then the
// slot's whole history stays one happens-before chain and old stamps in
// it remain comparable. Normally only the top of the retire stack is
// scanned (compactScan): sequential spawn/join loops find their
// just-retired slot there immediately, which is what bounds ClockWidth.
//
// The scan depth adapts to pool pressure via the live high-water mark:
// when minting a fresh slot would still leave the live count at or below
// liveHW, the pool already proved it can serve this much parallelism
// from len(slots) columns — a dead column exists, it is just buried
// under retirees the new chain does not cover — so the scan deepens to
// the whole free list rather than growing every clock vector by a
// column. Pressure is rare (the LIFO top almost always hits), so the
// deep scan does not change the common-case cost.
func (v *VectorClocks) allocSlot(parent *vcRep) uint32 {
	vecs := v.vecs
	depth := compactScan
	if live := len(v.slots) - len(v.free); live+1 <= v.liveHW {
		depth = len(v.free)
	}
	for i, scanned := len(v.free)-1, 0; i >= 0 && scanned < depth; i, scanned = i-1, scanned+1 {
		s := v.free[i]
		if lookup(parent, vecs, s) >= v.slots[s].tick {
			v.free = append(v.free[:i], v.free[i+1:]...)
			v.slots[s].freed = false
			if live := len(v.slots) - len(v.free); live > v.liveHW {
				v.liveHW = live
			}
			return s
		}
	}
	v.slots = append(v.slots, slotState{})
	if live := len(v.slots) - len(v.free); live > v.liveHW {
		v.liveHW = live
	}
	return uint32(len(v.slots) - 1)
}

// retire returns a slot to the free pool when its chain ends at a join —
// guarded by the tick so a multi-touch future's second get cannot retire
// a slot another chain has since reused.
func (v *VectorClocks) retire(slot, tick uint32) {
	st := &v.slots[slot]
	if !st.freed && st.tick == tick {
		st.freed = true
		v.free = append(v.free, slot)
	}
}

// Init implements Reach: the main strand opens slot 0 at tick 1 over the
// empty base vector.
func (v *VectorClocks) Init(_ FnID, mainStrand StrandID) {
	v.fns++
	v.slots = append(v.slots, slotState{tick: 1})
	v.liveHW = 1
	v.setRep(mainStrand, vcRep{own: vcStamp{slot: 0, tick: 1}, auxSlot: noSlot})
}

// Spawn implements Reach.
func (v *VectorClocks) Spawn(r SpawnRec) {
	v.fns++
	v.fork(r.Fork, r.ChildFirst, r.ContFirst)
}

// CreateFut implements Reach: clock-wise a create_fut is a spawn — the
// future's first strand and the continuation both succeed the creator and
// are parallel with each other.
func (v *VectorClocks) CreateFut(r CreateRec) {
	v.fns++
	v.fork(r.Creator, r.FutFirst, r.ContFirst)
}

// fork gives the child chain a fresh (or recycled) slot with the fork's
// epoch as its aux stamp, and continues the fork's own chain with one
// tick bump. If the fork strand still carries an aux stamp of its own,
// its clock has two inline overrides already and the child's would be a
// third — so the fork's clock inflates to a new base first (at most once
// per task: both successors adopt the materialized base aux-free, and so
// do all their continuations). The fork strand's published rep is never
// touched.
func (v *VectorClocks) fork(fork, childFirst, contFirst StrandID) {
	f := v.reps[fork]
	if f.auxSlot != noSlot {
		f.base = v.addVec(v.materialize(&f))
		f.auxSlot = noSlot
	}
	cs := v.allocSlot(&f)
	v.slots[cs].tick++
	v.setRep(childFirst, vcRep{
		base:    f.base,
		own:     vcStamp{slot: cs, tick: v.slots[cs].tick},
		auxSlot: f.own.slot, auxTick: f.own.tick,
	})
	v.slots[f.own.slot].tick++
	v.setRep(contFirst, vcRep{
		base:    f.base,
		own:     vcStamp{slot: f.own.slot, tick: v.slots[f.own.slot].tick},
		auxSlot: noSlot,
	})
}

// Return implements Reach. Clock-wise a return is free: the function's
// last strand keeps its slot until the join that consumes it.
func (v *VectorClocks) Return(ReturnRec) {}

// SyncJoin implements Reach.
func (v *VectorClocks) SyncJoin(r JoinRec) { v.join(r.ChildLast, r.ContLast, r.Join) }

// GetFut implements Reach: a get joins the future's last strand into the
// getter's chain, multi-touch and escaping handles included — the clock
// join needs no discipline.
func (v *VectorClocks) GetFut(r GetRec) { v.join(r.FutLast, r.Getter, r.Cont) }

// join computes C(next) = C(branch) ⊔ C(cur) plus a fresh tick in cur's
// slot. When the branch is already ordered before cur — a repeated get on
// an already-joined future, for instance — the join is fan-in in name
// only and next keeps cur's epoch-fast representation; otherwise this is
// real fan-in and the joined clock materializes. Either way the branch's
// chain is over and its slot retires for reuse.
func (v *VectorClocks) join(branch, cur, next StrandID) {
	reps := v.reps
	b, c := reps[branch], reps[cur]
	v.slots[c.own.slot].tick++
	nr := vcRep{
		base:    c.base,
		own:     vcStamp{slot: c.own.slot, tick: v.slots[c.own.slot].tick},
		auxSlot: c.auxSlot, auxTick: c.auxTick,
	}
	if lookup(&c, v.vecs, b.own.slot) < b.own.tick {
		vec := v.materialize(&c)
		v.foldInto(vec, &b)
		nr.base = v.addVec(vec)
		nr.auxSlot = noSlot
	}
	v.setRep(next, nr)
	v.retire(b.own.slot, b.own.tick)
}

// Precedes implements Reach with one clock comparison: u ≼ w iff w's
// clock has reached u's epoch.
func (v *VectorClocks) Precedes(u, w StrandID) bool {
	v.queries++
	v.compares++
	reps := v.reps
	ru, rw := &reps[u], &reps[w]
	if ru.own.slot == rw.own.slot {
		return ru.own.tick <= rw.own.tick
	}
	if ru.own.slot == rw.auxSlot {
		return ru.own.tick <= rw.auxTick
	}
	b := v.vecs[rw.base]
	return int(ru.own.slot) < len(b) && ru.own.tick <= b[ru.own.slot]
}

// Stats implements Reach. The bag-probe counters (Finds, Unions,
// AttachedSets, RArcs, RCloseWords) are structurally zero: this back-end
// has no union-find and no R-dag, which is the point.
func (v *VectorClocks) Stats() ReachStats {
	return ReachStats{
		Queries:         v.queries,
		ClockCompares:   v.compares,
		ClockInflations: v.inflations,
		ClockBytes:      v.clockBytes,
		ClockWidth:      uint64(len(v.slots)),
		StrandsSeen:     uint64(v.st.Len()),
		FunctionsSeen:   v.fns,
	}
}
