package ds

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestUnionFindBasic(t *testing.T) {
	u := NewUnionFind(8)
	for i := uint32(0); i < 6; i++ {
		u.MakeSet(i)
	}
	if got := u.Sets(); got != 6 {
		t.Fatalf("Sets() = %d, want 6", got)
	}
	for i := uint32(0); i < 6; i++ {
		if u.Find(i) != i {
			t.Fatalf("fresh element %d not its own root", i)
		}
	}
	u.Union(0, 1)
	u.Union(2, 3)
	if !u.SameSet(0, 1) || !u.SameSet(2, 3) {
		t.Fatal("unioned pairs not in same set")
	}
	if u.SameSet(0, 2) {
		t.Fatal("disjoint pairs reported same")
	}
	u.Union(1, 3)
	if !u.SameSet(0, 2) {
		t.Fatal("transitive union failed")
	}
	if got := u.Sets(); got != 3 {
		t.Fatalf("Sets() = %d, want 3 ({0,1,2,3},{4},{5})", got)
	}
}

func TestUnionFindUnionSameSet(t *testing.T) {
	u := NewUnionFind(4)
	u.MakeSet(0)
	u.MakeSet(1)
	r1 := u.Union(0, 1)
	r2 := u.Union(0, 1) // repeat must be a no-op returning the same root
	if r1 != r2 {
		t.Fatalf("repeated union changed root: %d vs %d", r1, r2)
	}
	if u.Sets() != 1 {
		t.Fatalf("Sets() = %d, want 1", u.Sets())
	}
}

func TestUnionFindSparseIDs(t *testing.T) {
	u := NewUnionFind(0)
	u.MakeSet(1000)
	u.MakeSet(7)
	u.Union(1000, 7)
	if !u.SameSet(7, 1000) {
		t.Fatal("sparse ids broken")
	}
}

// naiveDSU is the obviously correct reference: each element stores a set
// label; union relabels.
type naiveDSU struct{ label []int }

func newNaive(n int) *naiveDSU {
	l := make([]int, n)
	for i := range l {
		l[i] = i
	}
	return &naiveDSU{l}
}

func (n *naiveDSU) union(a, b int) {
	la, lb := n.label[a], n.label[b]
	if la == lb {
		return
	}
	for i, l := range n.label {
		if l == lb {
			n.label[i] = la
		}
	}
}

func (n *naiveDSU) same(a, b int) bool { return n.label[a] == n.label[b] }

// TestUnionFindMatchesNaive drives both implementations with the same
// random operation sequence and compares every SameSet answer.
func TestUnionFindMatchesNaive(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 42))
		const n = 64
		u := NewUnionFind(n)
		for i := uint32(0); i < n; i++ {
			u.MakeSet(i)
		}
		nv := newNaive(n)
		for op := 0; op < 500; op++ {
			a := rng.IntN(n)
			b := rng.IntN(n)
			if rng.IntN(2) == 0 {
				u.Union(uint32(a), uint32(b))
				nv.union(a, b)
			}
			c, d := rng.IntN(n), rng.IntN(n)
			if got, want := u.SameSet(uint32(c), uint32(d)), nv.same(c, d); got != want {
				t.Fatalf("seed %d op %d: SameSet(%d,%d) = %v, want %v", seed, op, c, d, got, want)
			}
		}
		// Set counts must agree too.
		labels := map[int]bool{}
		for _, l := range nv.label {
			labels[l] = true
		}
		if u.Sets() != len(labels) {
			t.Fatalf("seed %d: Sets() = %d, want %d", seed, u.Sets(), len(labels))
		}
	}
}

// TestUnionFindQuickReflexive uses testing/quick for algebraic properties:
// Find is stable under repetition, union is commutative in effect.
func TestUnionFindQuickReflexive(t *testing.T) {
	f := func(pairs []uint16) bool {
		u := NewUnionFind(0)
		const n = 128
		for i := uint32(0); i < n; i++ {
			u.MakeSet(i)
		}
		for _, p := range pairs {
			a := uint32(p) % n
			b := uint32(p>>8) % n
			u.Union(a, b)
			if !u.SameSet(a, b) {
				return false
			}
			if u.Find(a) != u.Find(u.Find(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnionFindFind(b *testing.B) {
	const n = 1 << 16
	u := NewUnionFind(n)
	for i := uint32(0); i < n; i++ {
		u.MakeSet(i)
	}
	for i := uint32(1); i < n; i++ {
		u.Union(i-1, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Find(uint32(i) % n)
	}
}
