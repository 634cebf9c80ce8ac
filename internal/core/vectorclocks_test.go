package core

import "testing"

// These tests drive the vector-clock back-end directly with event
// records, pinning the properties the engine-level differentials can't
// isolate: compaction keeps clock width at live parallelism, and the
// capability surface is complete.

func TestVectorClocksLifecycle(t *testing.T) {
	st := newTable(8)
	addStrands(st, 1, 2, 1, 1, 1)
	v := NewVectorClocks(st)
	v.Init(1, 1)
	v.CreateFut(CreateRec{ParentFn: 1, FutFn: 2, Creator: 1, FutFirst: 2, ContFirst: 3})
	if !v.Precedes(1, 2) || !v.Precedes(1, 3) {
		t.Fatal("creator must precede both successors")
	}
	if v.Precedes(2, 3) || v.Precedes(3, 2) {
		t.Fatal("future and continuation must be parallel before the get")
	}
	v.Return(ReturnRec{Fn: 2, ParentFn: 1, Last: 2})
	if v.Precedes(2, 3) {
		t.Fatal("returned unjoined future must stay parallel")
	}
	v.GetFut(GetRec{Fn: 1, FutFn: 2, Getter: 3, FutLast: 2, Cont: 4, Creator: 1, Touch: 1})
	if !v.Precedes(2, 4) || !v.Precedes(3, 4) {
		t.Fatal("got future and getter must both precede the continuation")
	}
	// Multi-touch: a second get on the joined handle keeps the ordering
	// (and takes the covered fast path — no new inflation).
	inflBefore := v.Stats().ClockInflations
	v.GetFut(GetRec{Fn: 1, FutFn: 2, Getter: 4, FutLast: 2, Cont: 5, Creator: 1, Touch: 2})
	if !v.Precedes(2, 5) {
		t.Fatal("second get lost the ordering")
	}
	if v.Stats().ClockInflations != inflBefore {
		t.Fatal("second get on a joined future must not inflate a clock")
	}
	s := v.Stats()
	if s.ClockCompares == 0 || s.Queries == 0 {
		t.Fatalf("clock counters empty: %+v", s)
	}
	if s.Finds != 0 || s.Unions != 0 || s.AttachedSets != 0 || s.RArcs != 0 {
		t.Fatalf("vector clocks must not report bag traffic: %+v", s)
	}
}

// TestClockCompaction pins the strand-id compaction invariant: a
// spawn-heavy program that joins each child before spawning the next has
// live parallelism 2, so clock width must stay O(1) — the child column
// is recycled every round — no matter how many strands the run creates.
func TestClockCompaction(t *testing.T) {
	const rounds = 500
	st := NewStrandTable(4 * rounds)
	st.Add(1, 1)
	v := NewVectorClocks(st)
	v.Init(1, 1)
	s := StrandID(1)
	for i := 0; i < rounds; i++ {
		fn := FnID(i + 2)
		fork, child, cont, join := s, s+1, s+2, s+3
		st.Add(child, fn)
		st.Add(cont, 1)
		st.Add(join, 1)
		v.Spawn(SpawnRec{ParentFn: 1, ChildFn: fn, Fork: fork, ChildFirst: child, ContFirst: cont})
		v.Return(ReturnRec{Fn: fn, ParentFn: 1, Last: child})
		v.SyncJoin(JoinRec{Fn: 1, ChildFn: fn, Fork: fork, ChildFirst: child,
			ContFirst: cont, ChildLast: child, ContLast: cont, Join: join})
		if !v.Precedes(child, join) {
			t.Fatalf("round %d: joined child not ordered", i)
		}
		if v.Precedes(child, cont) {
			t.Fatalf("round %d: unjoined child ordered before its sibling", i)
		}
		s = join
	}
	stats := v.Stats()
	if stats.ClockWidth > 4 {
		t.Fatalf("clock width %d after %d sequential spawn+join rounds; compaction "+
			"must keep it at live parallelism (<=4)", stats.ClockWidth, rounds)
	}
	// Bounded width also bounds inflation cost: each round materializes at
	// most one constant-width vector, so total clock bytes stay linear.
	if stats.ClockBytes > 64*rounds {
		t.Fatalf("clock bytes %d after %d rounds; want linear in rounds with a "+
			"constant-width factor", stats.ClockBytes, rounds)
	}
}

// TestClockWidthTracksFanOut is the other side of the compaction claim:
// genuinely live columns are never recycled, so a fan-out of n unjoined
// children needs ~n columns.
func TestClockWidthTracksFanOut(t *testing.T) {
	const n = 64
	st := NewStrandTable(3 * n)
	st.Add(1, 1)
	v := NewVectorClocks(st)
	v.Init(1, 1)
	s := StrandID(1)
	for i := 0; i < n; i++ {
		fn := FnID(i + 2)
		child, cont := s+1, s+2
		st.Add(child, fn)
		st.Add(cont, 1)
		v.CreateFut(CreateRec{ParentFn: 1, FutFn: fn, Creator: s, FutFirst: child, ContFirst: cont})
		v.Return(ReturnRec{Fn: fn, ParentFn: 1, Last: child})
		s = cont
	}
	w := v.Stats().ClockWidth
	if w < n {
		t.Fatalf("clock width %d with %d live unjoined futures; columns of live "+
			"strands must not be recycled", w, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got := v.Precedes(StrandID(2*i+2), StrandID(2*j+2))
			if got != (i == j) {
				t.Fatalf("futures %d,%d: Precedes=%v, want %v", i, j, got, i == j)
			}
		}
	}
}

// TestClockPoolAdapts pins the adaptive free-pool scan: once the live
// high-water mark proves reusable columns exist, allocation must dig
// past the fixed compactScan window of the LIFO retire stack rather
// than mint fresh columns.
//
// Phase A forks K children off main and joins them all, leaving K
// retired slots in the pool (liveHW = K+1). Phase B creates M futures
// that are never gotten; each future internally spawns and syncs one
// child of its own. Every sync retires that child's slot onto the pool
// top — a retiree covered only by its sibling futures, not by the next
// future main forks — so the next allocation's covered candidates (the
// phase-A remnants) sink deeper and deeper under incomparable retirees.
// A fixed scan of compactScan entries would give up and mint once the
// pile exceeds the window; the pressure trigger (live stays below
// liveHW) must instead deepen the scan and reuse the phase-A columns,
// keeping clock width at the phase-A peak. Each phase-B iteration
// permanently consumes one covered column (the future's, live forever)
// and converts another into an incomparable retiree (the sub's), so K
// must exceed 2M for coverage to outlast the sweep — that is the
// regime where minting is purely a scan-depth failure.
func TestClockPoolAdapts(t *testing.T) {
	const (
		K = 40 // phase-A fan-out: sets the liveHW ceiling and the reusable pool
		M = 12 // phase-B live futures, each burying the pool under a retiree
	)
	st := NewStrandTable(8 * (K + M))
	st.Add(1, 1)
	v := NewVectorClocks(st)
	v.Init(1, 1)

	// Phase A: fan out K children, then join them all.
	s := StrandID(1)
	next := StrandID(2)
	var children []struct {
		fn          FnID
		first, cont StrandID
	}
	fn := FnID(2)
	for i := 0; i < K; i++ {
		child, cont := next, next+1
		next += 2
		st.Add(child, fn)
		st.Add(cont, 1)
		v.Spawn(SpawnRec{ParentFn: 1, ChildFn: fn, Fork: s, ChildFirst: child, ContFirst: cont})
		v.Return(ReturnRec{Fn: fn, ParentFn: 1, Last: child})
		children = append(children, struct {
			fn          FnID
			first, cont StrandID
		}{fn, child, cont})
		s = cont
		fn++
	}
	for _, c := range children {
		join := next
		next++
		st.Add(join, 1)
		v.SyncJoin(JoinRec{Fn: 1, ChildFn: c.fn, Fork: 1, ChildFirst: c.first,
			ContFirst: s, ChildLast: c.first, ContLast: s, Join: join})
		s = join
	}
	widthA := v.Stats().ClockWidth

	// Phase B: M never-gotten futures; each spawns + syncs one child
	// internally, piling an incomparable retiree on the pool top.
	for i := 0; i < M; i++ {
		futFn, subFn := fn, fn+1
		fn += 2
		futFirst, cont := next, next+1
		next += 2
		st.Add(futFirst, futFn)
		st.Add(cont, 1)
		v.CreateFut(CreateRec{ParentFn: 1, FutFn: futFn, Creator: s, FutFirst: futFirst, ContFirst: cont})
		sub, futCont, futJoin := next, next+1, next+2
		next += 3
		st.Add(sub, subFn)
		st.Add(futCont, futFn)
		st.Add(futJoin, futFn)
		v.Spawn(SpawnRec{ParentFn: futFn, ChildFn: subFn, Fork: futFirst, ChildFirst: sub, ContFirst: futCont})
		v.Return(ReturnRec{Fn: subFn, ParentFn: futFn, Last: sub})
		v.SyncJoin(JoinRec{Fn: futFn, ChildFn: subFn, Fork: futFirst, ChildFirst: sub,
			ContFirst: futCont, ContLast: futCont, ChildLast: sub, Join: futJoin})
		v.Return(ReturnRec{Fn: futFn, ParentFn: 1, Last: futJoin})
		s = cont
	}

	w := v.Stats().ClockWidth
	if w > widthA {
		t.Fatalf("clock width grew from %d to %d during phase B; pool pressure "+
			"(live <= high-water %d) must deepen the scan and reuse phase-A columns "+
			"instead of minting", widthA, w, K+1)
	}
	if w > uint64(K+1) {
		t.Fatalf("clock width %d; want at most fan-out peak %d", w, K+1)
	}
}

// TestVectorClocksCapabilities pins the back-end's identity: its name,
// and a fresh instance's zero clock width.
func TestVectorClocksCapabilities(t *testing.T) {
	if v := NewVectorClocks(newTable(8)); v.Name() != "vc" {
		t.Fatalf("Name() = %q, want vc", v.Name())
	}
	if NewVectorClocks(newTable(4)).Stats().ClockWidth != 0 {
		t.Fatal("fresh instance must report zero clock width")
	}
}
