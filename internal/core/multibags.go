package core

import "futurerd/internal/ds"

// Bag tags. A function instance's bag is either an S-bag (its strands are
// sequentially before the currently executing strand) or a P-bag (they are
// logically parallel with it) — Theorem 4.2.
const (
	tagS = byte(0) // S-bag
	tagP = byte(1) // P-bag
)

// MultiBags is the paper's §4 algorithm for programs with structured
// futures (single-touch handles, creator sequentially before getter).
//
// It maintains one disjoint-set structure whose elements are function
// instances. All strands of a function instance F always occupy the same
// bag, so tracking bags per function is equivalent to the paper's
// per-strand presentation and is how SP-Bags implementations work too.
//
// The bag life cycle (Figure 1):
//
//	F calls f = create_fut(G):  S_G = Make-Set(G)          (tag S)
//	G returns to F:             P_G = S_G                   (retag P)
//	F calls get_fut(f):         S_F = Union(S_F, P_G)       (result tag S)
//
// spawn is treated exactly like create_fut and each binary sync join like
// a get_fut on the joined child (§4 "Notation": spawn and sync are
// subsumed by create_fut and get_fut for structured programs).
type MultiBags struct {
	st *StrandTable
	uf *ds.UnionFind
	// tag is per function id, authoritative only at set roots.
	tag []byte

	queries uint64
}

// NewMultiBags returns a MultiBags instance sharing the engine's strand
// table.
func NewMultiBags(st *StrandTable) *MultiBags {
	return &MultiBags{st: st, uf: ds.NewUnionFind(64), tag: make([]byte, 0, 64)}
}

// Name implements Reach.
func (m *MultiBags) Name() string { return "multibags" }

// makeSBag creates S_F = {F}.
func (m *MultiBags) makeSBag(f FnID) {
	m.tag = extend(m.tag, int(f)+1, tagS)
	m.uf.MakeSet(uint32(f))
	m.tag[f] = tagS
}

// Init implements Reach.
func (m *MultiBags) Init(mainFn FnID, _ StrandID) { m.makeSBag(mainFn) }

// Spawn implements Reach: like create_fut, the child gets a fresh S-bag.
func (m *MultiBags) Spawn(r SpawnRec) { m.makeSBag(r.ChildFn) }

// CreateFut implements Reach (Figure 1 line 1).
func (m *MultiBags) CreateFut(r CreateRec) { m.makeSBag(r.FutFn) }

// Return implements Reach (Figure 1 line 2): P_G = S_G. This retagging —
// rather than SP-Bags' union into the parent's P-bag — is the algorithm's
// crucial difference from SP-Bags.
func (m *MultiBags) Return(r ReturnRec) {
	root := m.uf.Find(uint32(r.Fn))
	m.tag[root] = tagP
}

// SyncJoin implements Reach: joining a spawned child is a get_fut on it.
func (m *MultiBags) SyncJoin(r JoinRec) { m.join(r.Fn, r.ChildFn) }

// GetFut implements Reach (Figure 1 line 3): S_F = Union(S_F, P_G).
func (m *MultiBags) GetFut(r GetRec) { m.join(r.Fn, r.FutFn) }

func (m *MultiBags) join(parent, child FnID) {
	root := m.uf.Union(uint32(parent), uint32(child))
	m.tag[root] = tagS
}

// Precedes implements Reach (Figure 1, Query): u ≺ v iff u's function is
// currently in an S-bag.
func (m *MultiBags) Precedes(u, _ StrandID) bool {
	m.queries++
	return m.inSBag(u)
}

// inSBag reports whether u's function is currently in an S-bag.
func (m *MultiBags) inSBag(u StrandID) bool {
	return m.tag[m.uf.Find(uint32(m.st.FnOf(u)))] == tagS
}

// Stats implements Reach.
func (m *MultiBags) Stats() ReachStats {
	f, un := m.uf.Ops()
	return ReachStats{Finds: f, Unions: un, Queries: m.queries}
}
