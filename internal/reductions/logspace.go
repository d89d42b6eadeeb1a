package reductions

import (
	"fmt"
	"sort"

	"github.com/querycause/querycause/internal/flow"
	"github.com/querycause/querycause/internal/rel"
)

func sortInts(xs []int) { sort.Ints(xs) }

// The Theorem 4.15 chain: UGAP → BGAP → FPMF → responsibility of the
// linear query q :- Rⁿ(x,u1,y), Sⁿ(y,u2,z), Tⁿ(z,u3,w). Undirected
// graph accessibility is LOGSPACE-complete, so Why-So responsibility —
// although PTIME for linear queries — is LOGSPACE-hard and hence not
// expressible by a first-order (SQL) query, unlike causality.

// BGAP is the Bipartite Graph Accessibility Problem instance: nodes
// 0..NX-1 on the X side, 0..NY-1 on the Y side, edges between them, a
// start node A ∈ X and a target node B ∈ Y.
type BGAP struct {
	NX, NY int
	Edges  [][2]int // (x, y) pairs
	A, B   int
}

// UGAPToBGAP encodes graph accessibility a→b into a bipartite instance:
// X = vertices, Y = edges ∪ {c}, with (x, xy) for each incident pair and
// one extra edge (b, c).
func UGAPToBGAP(g *Graph, a, b int) *BGAP {
	out := &BGAP{NX: g.N, NY: len(g.Edges) + 1, A: a, B: len(g.Edges)}
	for ei, e := range g.Edges {
		out.Edges = append(out.Edges, [2]int{e[0], ei}, [2]int{e[1], ei})
	}
	out.Edges = append(out.Edges, [2]int{b, len(g.Edges)})
	return out
}

// HasPath reports whether A reaches B by alternating X/Y steps.
func (b *BGAP) HasPath() bool {
	adjX := make([][]int, b.NX)
	adjY := make([][]int, b.NY)
	for _, e := range b.Edges {
		adjX[e[0]] = append(adjX[e[0]], e[1])
		adjY[e[1]] = append(adjY[e[1]], e[0])
	}
	seenX := make([]bool, b.NX)
	seenY := make([]bool, b.NY)
	stack := [][2]int{{0, b.A}} // (side 0=X / 1=Y, node)
	seenX[b.A] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur[0] == 0 {
			for _, y := range adjX[cur[1]] {
				if y == b.B {
					return true
				}
				if !seenY[y] {
					seenY[y] = true
					stack = append(stack, [2]int{1, y})
				}
			}
		} else {
			for _, x := range adjY[cur[1]] {
				if !seenX[x] {
					seenX[x] = true
					stack = append(stack, [2]int{0, x})
				}
			}
		}
	}
	return false
}

// FPMF is the Four-Partite Max-Flow instance built from a BGAP: unit
// edges U→X and Y→V (one per bipartite edge), capacity-2 edges X→Y, and
// the probe gadget a′ ∈ U, b′ ∈ V. Max flow is |E| when A does not
// reach B and |E|+1 when it does.
type FPMF struct {
	B *BGAP
	// Edge lists; an FPMF edge is (fromPartIdx, toPartIdx, capacity).
	UX [][3]int // (uNode=edge idx or |E| for a′, xNode, cap)
	XY [][3]int // (xNode, yNode, cap=2)
	YV [][3]int // (yNode, vNode=edge idx or |E| for b′, cap)
}

// BGAPToFPMF builds the flow instance.
func BGAPToFPMF(b *BGAP) *FPMF {
	f := &FPMF{B: b}
	for ei, e := range b.Edges {
		f.UX = append(f.UX, [3]int{ei, e[0], 1})
		f.XY = append(f.XY, [3]int{e[0], e[1], 2})
		f.YV = append(f.YV, [3]int{e[1], ei, 1})
	}
	ne := len(b.Edges)
	f.UX = append(f.UX, [3]int{ne, b.A, 1}) // a′ → a
	f.YV = append(f.YV, [3]int{b.B, ne, 1}) // b → b′
	return f
}

// MaxFlow computes the maximum flow of the four-partite network.
func (f *FPMF) MaxFlow() int64 {
	ne := len(f.B.Edges)
	// Vertex layout: 0 source, 1 target, then U (ne+1), X, Y, V (ne+1).
	uBase := 2
	xBase := uBase + ne + 1
	yBase := xBase + f.B.NX
	vBase := yBase + f.B.NY
	g := flow.NewGraph(vBase + ne + 1)
	for u := 0; u <= ne; u++ {
		mustAdd(g, 0, uBase+u, flow.Inf)
		mustAdd(g, vBase+u, 1, flow.Inf)
	}
	for _, e := range f.UX {
		mustAdd(g, uBase+e[0], xBase+e[1], int64(e[2]))
	}
	for _, e := range f.XY {
		mustAdd(g, xBase+e[0], yBase+e[1], int64(e[2]))
	}
	for _, e := range f.YV {
		mustAdd(g, yBase+e[0], vBase+e[1], int64(e[2]))
	}
	return g.MaxFlow(0, 1)
}

func mustAdd(g *flow.Graph, from, to int, c int64) {
	if _, err := g.AddEdge(from, to, c); err != nil {
		panic(err)
	}
}

// ChainInstance is the final step of Theorem 4.15: the FPMF network as
// an instance of q :- Rⁿ(x,u1,y), Sⁿ(y,u2,z), Tⁿ(z,u3,w) with a fresh
// protected chain; the target's minimum contingency equals the max
// flow.
type ChainInstance struct {
	DB     *rel.Database
	Q      *rel.Query
	Target rel.TupleID
}

// ChainQuery returns q :- R(x,u1,y), S(y,u2,z), T(z,u3,w).
func ChainQuery() *rel.Query {
	return rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("u1"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("u2"), rel.V("z")),
		rel.NewAtom("T", rel.V("z"), rel.V("u3"), rel.V("w")),
	)
}

// FPMFToChain encodes the network: capacity-c edges become c parallel
// tuples distinguished by the middle column.
func FPMFToChain(f *FPMF) *ChainInstance {
	db := rel.NewDatabase()
	uv := func(i int) rel.Value { return rel.Value(fmt.Sprintf("u%d", i)) }
	xv := func(i int) rel.Value { return rel.Value(fmt.Sprintf("x%d", i)) }
	yv := func(i int) rel.Value { return rel.Value(fmt.Sprintf("y%d", i)) }
	vv := func(i int) rel.Value { return rel.Value(fmt.Sprintf("v%d", i)) }
	for _, e := range f.UX {
		for c := 1; c <= e[2]; c++ {
			db.MustAdd("R", true, uv(e[0]), rel.Value(fmt.Sprintf("%d", c)), xv(e[1]))
		}
	}
	for _, e := range f.XY {
		for c := 1; c <= e[2]; c++ {
			db.MustAdd("S", true, xv(e[0]), rel.Value(fmt.Sprintf("%d", c)), yv(e[1]))
		}
	}
	for _, e := range f.YV {
		for c := 1; c <= e[2]; c++ {
			db.MustAdd("T", true, yv(e[0]), rel.Value(fmt.Sprintf("%d", c)), vv(e[1]))
		}
	}
	target := db.MustAdd("R", true, "p0", "1", "p1")
	db.MustAdd("S", true, "p1", "1", "p2")
	db.MustAdd("T", true, "p2", "1", "p3")
	return &ChainInstance{DB: db, Q: ChainQuery(), Target: target}
}
