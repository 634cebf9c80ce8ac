package core

import "futurerd/internal/ds"

// SPBags is the classic SP-Bags algorithm (Feng & Leiserson 1997) for
// series-parallel (fork-join only) programs. It is included as the
// baseline the paper builds on, and to demonstrate in tests that it is
// unsound for programs with futures — it misses races MultiBags finds —
// which is the paper's motivation.
//
// Bag rules (for a depth-first execution):
//
//	F is spawned or called:   S_F = {F}, P_F = ∅
//	F spawns G; G returns:    P_F = Union(P_F, S_G)
//	F syncs:                  S_F = Union(S_F, P_F); P_F = ∅
//
// Contrast with MultiBags: SP-Bags moves a returning child's bag into the
// parent's P-bag immediately, and a sync folds the whole P-bag into S_F.
// MultiBags instead retags the child's own bag P and folds it in only when
// its future is joined. For pure fork-join programs the two coincide; with
// futures, SP-Bags wrongly "serializes" a future at the next sync even
// though no get_fut joined it.
//
// For programs that use futures, SPBags treats create_fut like spawn and
// get_fut like a sync in the getting function — a deliberate, unsound
// approximation of running a fork-join detector on a future program.
type SPBags struct {
	st *StrandTable
	uf *ds.UnionFind
	// tag is per element, authoritative at roots.
	tag []byte

	// anchor[f] is the element created when f started; it stays a valid
	// member of whatever set f's strands currently occupy, so Precedes
	// can always start its Find there. pElem[f] is any element of f's
	// current P-bag, or noElem when the P-bag is empty.
	anchor []uint32
	pElem  []uint32

	next    uint32
	queries uint64
}

const noElem = ^uint32(0)

// NewSPBags returns an SPBags instance sharing the engine's strand table.
func NewSPBags(st *StrandTable) *SPBags {
	return &SPBags{st: st, uf: ds.NewUnionFind(64)}
}

// Name implements Reach.
func (m *SPBags) Name() string { return "spbags" }

func (m *SPBags) ensureFn(f FnID) {
	m.anchor = extend(m.anchor, int(f)+1, noElem)
	m.pElem = extend(m.pElem, int(f)+1, noElem)
}

func (m *SPBags) newElem(t byte) uint32 {
	e := m.next
	m.next++
	m.uf.MakeSet(e)
	m.tag = extend(m.tag, int(e)+1, t)
	return e
}

func (m *SPBags) enterFn(f FnID) {
	m.ensureFn(f)
	m.anchor[f] = m.newElem(tagS)
	m.pElem[f] = noElem
}

// Init implements Reach.
func (m *SPBags) Init(mainFn FnID, _ StrandID) { m.enterFn(mainFn) }

// Spawn implements Reach.
func (m *SPBags) Spawn(r SpawnRec) { m.enterFn(r.ChildFn) }

// CreateFut implements Reach: approximated as a spawn.
func (m *SPBags) CreateFut(r CreateRec) { m.enterFn(r.FutFn) }

// Return implements Reach: P_parent = Union(P_parent, S_child). The
// parent's existing P-bag root is already tagged P by the pElem
// invariant, so only the child's root is retagged.
func (m *SPBags) Return(r ReturnRec) {
	if r.ParentFn == NoFn {
		return // main returning; nothing joins it
	}
	m.ensureFn(r.ParentFn)
	m.ensureFn(r.Fn)
	child := m.anchor[r.Fn]
	croot := m.uf.Find(child)
	m.tag[croot] = tagP
	if p := m.pElem[r.ParentFn]; p == noElem {
		m.pElem[r.ParentFn] = child
	} else {
		m.pElem[r.ParentFn] = m.uf.Union(p, croot)
	}
}

// SyncJoin implements Reach: S_F = Union(S_F, P_F); P_F = ∅. The engine
// reports one binary join per child; the first one folds the whole P-bag,
// the rest are no-ops, matching the single-union semantics of sync.
func (m *SPBags) SyncJoin(r JoinRec) { m.foldP(r.Fn) }

// GetFut implements Reach: approximated as a sync in the getting function.
func (m *SPBags) GetFut(r GetRec) { m.foldP(r.Fn) }

func (m *SPBags) foldP(f FnID) {
	m.ensureFn(f)
	p := m.pElem[f]
	if p == noElem {
		return
	}
	root := m.uf.Union(m.anchor[f], p)
	m.tag[root] = tagS
	m.pElem[f] = noElem
}

// Precedes implements Reach.
func (m *SPBags) Precedes(u, _ StrandID) bool {
	m.queries++
	return m.tag[m.uf.Find(m.anchor[m.st.FnOf(u)])] == tagS
}

// Stats implements Reach.
func (m *SPBags) Stats() ReachStats {
	f, un := m.uf.Ops()
	return ReachStats{Finds: f, Unions: un, Queries: m.queries}
}
