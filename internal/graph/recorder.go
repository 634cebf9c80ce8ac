// Package graph records the full computation dag Gfull as the program
// executes and answers reachability queries by explicit search. It is the
// brute-force oracle against which MultiBags and MultiBags+ are verified,
// and the basis of the structural-invariant checks from the paper's
// appendix. It intentionally trades speed for obvious correctness.
package graph

import (
	"fmt"
	"strings"

	"futurerd/internal/core"
)

// EdgeKind classifies the edges of Gfull (§5 "Notation").
type EdgeKind uint8

const (
	// Continue edges connect consecutive strands of one function instance.
	Continue EdgeKind = iota
	// SpawnEdge goes from a spawn strand to the child's first strand.
	SpawnEdge
	// JoinEdge goes from a spawned child's last strand to the sync strand.
	JoinEdge
	// CreateEdge goes from a creator strand to the future's first strand.
	CreateEdge
	// GetEdge goes from a future's last strand to the getter strand.
	GetEdge
)

// String returns a short edge-kind name for DOT output and diagnostics.
func (k EdgeKind) String() string {
	switch k {
	case Continue:
		return "continue"
	case SpawnEdge:
		return "spawn"
	case JoinEdge:
		return "join"
	case CreateEdge:
		return "create"
	case GetEdge:
		return "get"
	default:
		return "?"
	}
}

// Edge is one edge of Gfull.
type Edge struct {
	From, To core.StrandID
	Kind     EdgeKind
}

// Recorder implements core.Reach by storing Gfull verbatim.
type Recorder struct {
	st *core.StrandTable

	out  [][]outEdge // adjacency, indexed by StrandID
	in   [][]outEdge // reverse adjacency
	main core.StrandID

	// Search scratch: visited stamps avoid reallocating per query.
	stamp   []uint32
	curTick uint32
	queue   []core.StrandID

	queries uint64
}

type outEdge struct {
	to   core.StrandID
	kind EdgeKind
}

// NewRecorder returns a Recorder sharing the engine's strand table.
func NewRecorder(st *core.StrandTable) *Recorder {
	return &Recorder{st: st}
}

// Name implements core.Reach.
func (g *Recorder) Name() string { return "oracle" }

func (g *Recorder) ensure(s core.StrandID) {
	for int(s) >= len(g.out) {
		g.out = append(g.out, nil)
		g.in = append(g.in, nil)
		g.stamp = append(g.stamp, 0)
	}
}

// AddEdge inserts an edge; exported for tests that build dags by hand.
func (g *Recorder) AddEdge(from, to core.StrandID, kind EdgeKind) {
	g.ensure(from)
	g.ensure(to)
	g.out[from] = append(g.out[from], outEdge{to, kind})
	g.in[to] = append(g.in[to], outEdge{from, kind})
}

// Init implements core.Reach.
func (g *Recorder) Init(_ core.FnID, mainStrand core.StrandID) {
	g.ensure(mainStrand)
	g.main = mainStrand
}

// Spawn implements core.Reach.
func (g *Recorder) Spawn(r core.SpawnRec) {
	g.AddEdge(r.Fork, r.ChildFirst, SpawnEdge)
	g.AddEdge(r.Fork, r.ContFirst, Continue)
}

// CreateFut implements core.Reach.
func (g *Recorder) CreateFut(r core.CreateRec) {
	g.AddEdge(r.Creator, r.FutFirst, CreateEdge)
	g.AddEdge(r.Creator, r.ContFirst, Continue)
}

// Return implements core.Reach (no new edges; the join edge appears at the
// sync or get that consumes the function).
func (g *Recorder) Return(core.ReturnRec) {}

// SyncJoin implements core.Reach.
func (g *Recorder) SyncJoin(r core.JoinRec) {
	g.AddEdge(r.ChildLast, r.Join, JoinEdge)
	g.AddEdge(r.ContLast, r.Join, Continue)
}

// GetFut implements core.Reach.
func (g *Recorder) GetFut(r core.GetRec) {
	g.AddEdge(r.FutLast, r.Cont, GetEdge)
	g.AddEdge(r.Getter, r.Cont, Continue)
}

// Precedes implements core.Reach: a search from u over every edge kind.
func (g *Recorder) Precedes(u, v core.StrandID) bool {
	g.queries++
	return g.search(u, v, ^uint8(0))
}

// Stats implements core.Reach.
func (g *Recorder) Stats() core.ReachStats {
	return core.ReachStats{Queries: g.queries}
}

// NumStrands returns the number of strands recorded.
func (g *Recorder) NumStrands() int { return g.st.Len() }

// Edges returns a copy of all edges, for invariant checks and tests.
func (g *Recorder) Edges() []Edge {
	var es []Edge
	for from, outs := range g.out {
		for _, e := range outs {
			es = append(es, Edge{core.StrandID(from), e.to, e.kind})
		}
	}
	return es
}

// InDegree and OutDegree report the degrees of strand s.
func (g *Recorder) InDegree(s core.StrandID) int  { g.ensure(s); return len(g.in[s]) }
func (g *Recorder) OutDegree(s core.StrandID) int { g.ensure(s); return len(g.out[s]) }

// HasNonSPEdge reports whether strand s has an incident create or get edge.
func (g *Recorder) HasNonSPEdge(s core.StrandID) bool {
	g.ensure(s)
	for _, e := range g.out[s] {
		if e.kind == CreateEdge || e.kind == GetEdge {
			return true
		}
	}
	for _, e := range g.in[s] {
		if e.kind == CreateEdge || e.kind == GetEdge {
			return true
		}
	}
	return false
}

// PrecedesVia reports whether u reaches v using only the given edge kinds.
// It is used to check the paper's path-decomposition lemmas (e.g. Lemma
// 4.4: any u ≺ v admits a join/continue prefix followed by a
// spawn/continue suffix). Unlike Precedes it is not counted as a query.
func (g *Recorder) PrecedesVia(u, v core.StrandID, kinds ...EdgeKind) bool {
	var allowed uint8
	for _, k := range kinds {
		allowed |= 1 << k
	}
	return g.search(u, v, allowed)
}

// search reports whether u reaches v over edges whose kind bit is set in
// allowed: an explicit depth-first search on the queue stack, with
// visited marks stamped per search so nothing is cleared between
// queries.
func (g *Recorder) search(u, v core.StrandID, allowed uint8) bool {
	if u == v {
		return true
	}
	g.ensure(u)
	g.ensure(v)
	g.curTick++
	tick := g.curTick
	g.queue = append(g.queue[:0], u)
	g.stamp[u] = tick
	for len(g.queue) > 0 {
		n := g.queue[len(g.queue)-1]
		g.queue = g.queue[:len(g.queue)-1]
		for _, e := range g.out[n] {
			if allowed&(1<<e.kind) == 0 {
				continue
			}
			if e.to == v {
				return true
			}
			if g.stamp[e.to] != tick {
				g.stamp[e.to] = tick
				g.queue = append(g.queue, e.to)
			}
		}
	}
	return false
}

// DOT renders the dag in Graphviz format (used by cmd/futurerd-trace).
func (g *Recorder) DOT() string {
	var b strings.Builder
	b.WriteString("digraph gfull {\n  rankdir=TB;\n")
	for s := 1; s <= g.st.Len(); s++ {
		fmt.Fprintf(&b, "  s%d [label=\"%d (f%d)\"];\n", s, s, g.st.FnOf(core.StrandID(s)))
	}
	style := map[EdgeKind]string{
		Continue:   "solid",
		SpawnEdge:  "bold",
		JoinEdge:   "bold",
		CreateEdge: "dashed",
		GetEdge:    "dashed",
	}
	for from, outs := range g.out {
		for _, e := range outs {
			fmt.Fprintf(&b, "  s%d -> s%d [style=%s,label=\"%s\"];\n",
				from, e.to, style[e.kind], e.kind)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
