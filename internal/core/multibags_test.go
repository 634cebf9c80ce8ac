package core

import "testing"

// These tests drive the algorithms directly with event records —
// bypassing the engine — to pin down the bag life cycle of Figure 1 and
// the differences between MultiBags, MultiBags+ and SP-Bags.

// script replays a tiny structured-future execution:
//
//	main(fn 1, strand 1) creates future G (fn 2, strand 2); continuation
//	strand 3; G already returned (eager); later main gets G at strand 4.
func scriptCreateGet(m Reach) {
	st := CreateRec{ParentFn: 1, FutFn: 2, Creator: 1, FutFirst: 2, ContFirst: 3}
	m.CreateFut(st)
	m.Return(ReturnRec{Fn: 2, ParentFn: 1, Last: 2})
	m.GetFut(GetRec{Fn: 1, FutFn: 2, Getter: 3, FutLast: 2, Cont: 4, Creator: 1, Touch: 1})
}

func addStrands(st *StrandTable, fns ...FnID) {
	for i, f := range fns {
		st.Add(StrandID(i+1), f)
	}
}

func TestMultiBagsLifecycle(t *testing.T) {
	st := NewStrandTable()
	addStrands(st, 1, 2, 1, 1) // strand→fn: 1→main, 2→G, 3→main, 4→main
	m := NewMultiBags(st)
	m.Init(1, 1)

	m.CreateFut(CreateRec{ParentFn: 1, FutFn: 2, Creator: 1, FutFirst: 2, ContFirst: 3})
	// While G is active, its strands are in S_G (S-bag).
	if !m.Precedes(2, 2) {
		t.Fatal("active future's strand should be in an S-bag")
	}
	m.Return(ReturnRec{Fn: 2, ParentFn: 1, Last: 2})
	// Returned but not joined: P-bag (Figure 1 line 2) — parallel.
	if m.Precedes(2, 3) {
		t.Fatal("returned unjoined future must be in a P-bag")
	}
	// Main's own strands stay sequential throughout.
	if !m.Precedes(1, 3) {
		t.Fatal("main's earlier strand must precede")
	}
	m.GetFut(GetRec{Fn: 1, FutFn: 2, Getter: 3, FutLast: 2, Cont: 4, Creator: 1, Touch: 1})
	// Joined: absorbed into S_main (Figure 1 line 3).
	if !m.Precedes(2, 4) {
		t.Fatal("joined future must be in the S-bag")
	}
	// The two function bags are now one set.
	if got := m.uf.Sets(); got != 1 {
		t.Fatalf("bags = %d, want 1 (main's S-bag absorbed G's)", got)
	}
}

func TestMultiBagsSpawnSyncAsFutures(t *testing.T) {
	// spawn ≡ create_fut and sync-join ≡ get_fut for MultiBags (§4).
	st := NewStrandTable()
	addStrands(st, 1, 2, 1, 1)
	m := NewMultiBags(st)
	m.Init(1, 1)
	m.Spawn(SpawnRec{ParentFn: 1, ChildFn: 2, Fork: 1, ChildFirst: 2, ContFirst: 3})
	m.Return(ReturnRec{Fn: 2, ParentFn: 1, Last: 2})
	if m.Precedes(2, 3) {
		t.Fatal("returned unjoined child must be parallel")
	}
	m.SyncJoin(JoinRec{Fn: 1, ChildFn: 2, Fork: 1, ChildFirst: 2, ContFirst: 3,
		ChildLast: 2, ContLast: 3, Join: 4})
	if !m.Precedes(2, 4) {
		t.Fatal("synced child must precede")
	}
}

// TestMultiBagsVsSPBagsReturnRule pins the crucial difference (§4.1): on
// return, MultiBags retags the child's own bag P, while SP-Bags unions
// it into the parent's P-bag — which a later sync folds into S even if
// the future was never joined.
func TestMultiBagsVsSPBagsReturnRule(t *testing.T) {
	// Script: main creates future G; G returns; main spawns H; H returns;
	// main syncs (joining only H). Is G's strand "before" main afterwards?
	run := func(m Reach) bool {
		m.CreateFut(CreateRec{ParentFn: 1, FutFn: 2, Creator: 1, FutFirst: 2, ContFirst: 3})
		m.Return(ReturnRec{Fn: 2, ParentFn: 1, Last: 2})
		m.Spawn(SpawnRec{ParentFn: 1, ChildFn: 3, Fork: 3, ChildFirst: 4, ContFirst: 5})
		m.Return(ReturnRec{Fn: 3, ParentFn: 1, Last: 4})
		m.SyncJoin(JoinRec{Fn: 1, ChildFn: 3, Fork: 3, ChildFirst: 4, ContFirst: 5,
			ChildLast: 4, ContLast: 5, Join: 6})
		return m.Precedes(2, 6) // G's strand vs the post-sync strand
	}
	stA := NewStrandTable()
	addStrands(stA, 1, 2, 1, 3, 1, 1)
	mb := NewMultiBags(stA)
	mb.Init(1, 1)
	if run(mb) {
		t.Fatal("MultiBags: unjoined future must stay parallel across a sync")
	}
	stB := NewStrandTable()
	addStrands(stB, 1, 2, 1, 3, 1, 1)
	sp := NewSPBags(stB)
	sp.Init(1, 1)
	if !run(sp) {
		t.Fatal("SP-Bags should (wrongly) serialize the future at the sync — " +
			"that unsoundness is the paper's premise; did the baseline change?")
	}
}

// TestMultiBagsPlusDSPIgnoresGet pins §5's DSP rule: get_fut does not
// union bags (multi-touch futures), yet the query still answers true via R.
func TestMultiBagsPlusDSPIgnoresGet(t *testing.T) {
	st := NewStrandTable()
	addStrands(st, 1, 2, 1, 1, 1)
	m := NewMultiBagsPlus(st)
	m.Init(1, 1)
	scriptCreateGet(m)
	// DSP alone would say "parallel" (no union on get)...
	if m.dsp.Precedes(2, 4) {
		t.Fatal("DSP must not union on get_fut")
	}
	// ...but the full query goes through R and answers correctly.
	if !m.Precedes(2, 4) {
		t.Fatal("MultiBags+ must order the joined future via R")
	}
	// Second touch must also work (multi-touch).
	m.GetFut(GetRec{Fn: 1, FutFn: 2, Getter: 4, FutLast: 2, Cont: 5, Creator: 1, Touch: 2})
	if !m.Precedes(2, 5) {
		t.Fatal("second get lost the ordering")
	}
	s := m.Stats()
	if s.AttachedSets == 0 || s.RArcs == 0 {
		t.Fatalf("MultiBags+ stats empty: %+v", s)
	}
}

func TestSPBagsPureForkJoin(t *testing.T) {
	// On a pure fork-join script SP-Bags is exact: child parallel until
	// sync, sequential after.
	st := NewStrandTable()
	addStrands(st, 1, 2, 1, 1)
	sp := NewSPBags(st)
	sp.Init(1, 1)
	sp.Spawn(SpawnRec{ParentFn: 1, ChildFn: 2, Fork: 1, ChildFirst: 2, ContFirst: 3})
	if !sp.Precedes(2, 2) {
		t.Fatal("active child must be in S-bag")
	}
	sp.Return(ReturnRec{Fn: 2, ParentFn: 1, Last: 2})
	if sp.Precedes(2, 3) {
		t.Fatal("returned child must be in parent's P-bag")
	}
	sp.SyncJoin(JoinRec{Fn: 1, ChildFn: 2, Fork: 1, ChildFirst: 2, ContFirst: 3,
		ChildLast: 2, ContLast: 3, Join: 4})
	if !sp.Precedes(2, 4) {
		t.Fatal("synced child must precede")
	}
}

func TestReachNames(t *testing.T) {
	st := NewStrandTable()
	if NewMultiBags(st).Name() != "multibags" ||
		NewMultiBagsPlus(st).Name() != "multibags+" ||
		NewSPBags(st).Name() != "spbags" {
		t.Fatal("algorithm names changed; reports and benches depend on them")
	}
}
