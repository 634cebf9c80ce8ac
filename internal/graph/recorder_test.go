package graph

import (
	"strings"
	"testing"

	"futurerd/internal/core"
)

// buildDiamond builds  1 → {2, 3} → 4  with strand 5 detached.
func buildDiamond() *Recorder {
	st := core.NewStrandTable()
	for s := core.StrandID(1); s <= 5; s++ {
		st.Add(s, 1)
	}
	g := NewRecorder(st)
	g.AddEdge(1, 2, SpawnEdge)
	g.AddEdge(1, 3, Continue)
	g.AddEdge(2, 4, JoinEdge)
	g.AddEdge(3, 4, Continue)
	return g
}

func TestPrecedesBasic(t *testing.T) {
	g := buildDiamond()
	cases := []struct {
		u, v core.StrandID
		want bool
	}{
		{1, 2, true}, {1, 3, true}, {1, 4, true},
		{2, 4, true}, {3, 4, true},
		{2, 3, false}, {3, 2, false},
		{4, 1, false}, {2, 1, false},
		{1, 1, true}, // reflexive by convention
		{5, 1, false}, {1, 5, false},
	}
	for _, c := range cases {
		if got := g.Precedes(c.u, c.v); got != c.want {
			t.Errorf("Precedes(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestPrecedesVia(t *testing.T) {
	g := buildDiamond()
	if !g.PrecedesVia(1, 2, SpawnEdge) {
		t.Error("spawn-only path 1→2 missing")
	}
	if g.PrecedesVia(1, 2, Continue) {
		t.Error("continue-only path 1→2 should not exist")
	}
	if !g.PrecedesVia(1, 4, Continue) {
		t.Error("continue-only path 1→3→4 missing")
	}
	if !g.PrecedesVia(2, 4, JoinEdge, Continue) {
		t.Error("join path 2→4 missing")
	}
}

func TestDegreesAndEdges(t *testing.T) {
	g := buildDiamond()
	if g.OutDegree(1) != 2 || g.InDegree(4) != 2 {
		t.Fatalf("degrees wrong: out(1)=%d in(4)=%d", g.OutDegree(1), g.InDegree(4))
	}
	if len(g.Edges()) != 4 {
		t.Fatalf("Edges() = %d, want 4", len(g.Edges()))
	}
}

func TestHasNonSPEdge(t *testing.T) {
	st := core.NewStrandTable()
	for s := core.StrandID(1); s <= 3; s++ {
		st.Add(s, 1)
	}
	g := NewRecorder(st)
	g.AddEdge(1, 2, CreateEdge)
	g.AddEdge(1, 3, Continue)
	if !g.HasNonSPEdge(1) || !g.HasNonSPEdge(2) {
		t.Error("create edge endpoints should report non-SP incidence")
	}
	if g.HasNonSPEdge(3) {
		t.Error("strand 3 has no non-SP edge")
	}
}

func TestEdgeKindString(t *testing.T) {
	kinds := []EdgeKind{Continue, SpawnEdge, JoinEdge, CreateEdge, GetEdge}
	want := []string{"continue", "spawn", "join", "create", "get"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("kind %d = %q, want %q", i, k.String(), want[i])
		}
	}
}

func TestDOT(t *testing.T) {
	g := buildDiamond()
	dot := g.DOT()
	for _, frag := range []string{"digraph", "s1 -> s2", "style=bold", "s3 -> s4"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT output missing %q:\n%s", frag, dot)
		}
	}
}

// TestLemma44PathDecomposition checks the paper's Lemma 4.4 on a recorded
// structured-future dag: whenever u ≺ v there is a node w with u →(join,
// continue)* w →(spawn/create, continue)* v. We brute-force w.
func TestLemma44PathDecomposition(t *testing.T) {
	// Reconstruct a small structured dag by hand: main creates future F,
	// continues, gets F.
	//   1 —create→ 2(F) —get→ 4;  1 —cont→ 3 —cont→ 4
	st := core.NewStrandTable()
	st.Add(1, 1)
	st.Add(2, 2)
	st.Add(3, 1)
	st.Add(4, 1)
	g := NewRecorder(st)
	g.AddEdge(1, 2, CreateEdge)
	g.AddEdge(1, 3, Continue)
	g.AddEdge(2, 4, GetEdge)
	g.AddEdge(3, 4, Continue)

	for u := core.StrandID(1); u <= 4; u++ {
		for v := core.StrandID(1); v <= 4; v++ {
			if u == v || !g.Precedes(u, v) {
				continue
			}
			found := false
			for w := core.StrandID(1); w <= 4; w++ {
				if g.PrecedesVia(u, w, JoinEdge, GetEdge, Continue) &&
					g.PrecedesVia(w, v, SpawnEdge, CreateEdge, Continue) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("no Lemma-4.4 decomposition for %d ≺ %d", u, v)
			}
		}
	}
}
