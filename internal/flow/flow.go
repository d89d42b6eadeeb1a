// Package flow implements maximum flow / minimum cut on directed graphs
// with integer capacities, used by Algorithm 1 of Meliou et al.
// (VLDB 2010) to compute responsibilities of linear queries.
//
// The implementation is Dinic's algorithm (BFS level graph + blocking
// flows), adequate for the unit-capacity-dominated networks produced by
// the responsibility reduction. Capacities may be Inf; a max flow value
// of at least InfThreshold means no finite cut exists.
//
// A Graph holds only its edges and their resting capacities, and no
// solve writes it. A solve pushes flow through a residual slice the
// caller owns (a copy of the resting capacities from Residual, with any
// capacity overridden first), using a Solver for its work arrays. Once
// built, a Graph may therefore be shared by any number of goroutines,
// each solving with its own residual and Solver.
package flow

import (
	"fmt"
	"math"
)

// Inf is the capacity of uncuttable edges (exogenous tuples, protected
// path edges, source/target stubs).
const Inf int64 = math.MaxInt64 / 8

// InfThreshold classifies a flow value as "infinite" (no finite cut).
// Any real cut in our networks has capacity bounded by the number of
// tuples, far below this.
const InfThreshold int64 = Inf / 2

// Graph is a flow network on vertices 0..N()-1 in dense arrays. The
// i-th edge added is arc 2i; arc a^1 is the reverse of arc a, running
// the other way with resting capacity 0.
type Graph struct {
	head []int32 // first arc leaving each vertex, -1 if none
	next []int32 // next arc leaving the same vertex, -1 at the end
	to   []int32 // head vertex of each arc
	cap  []int64 // resting capacity of each arc
}

// NewGraph returns an empty network on n vertices.
func NewGraph(n int) *Graph {
	g := &Graph{head: make([]int32, n)}
	for v := range g.head {
		g.head[v] = -1
	}
	return g
}

// N is the number of vertices.
func (g *Graph) N() int { return len(g.head) }

// AddVertex appends a vertex and returns its index.
func (g *Graph) AddVertex() int {
	g.head = append(g.head, -1)
	return len(g.head) - 1
}

// AddEdge adds a directed edge with the given capacity and returns its
// arc, the index at which solves read and callers override its
// capacity in a residual.
func (g *Graph) AddEdge(from, to int, c int64) (int, error) {
	if from < 0 || from >= g.N() || to < 0 || to >= g.N() {
		return 0, fmt.Errorf("flow: edge (%d,%d) out of range [0,%d)", from, to, g.N())
	}
	a := len(g.to)
	g.to = append(g.to, int32(to), int32(from))
	g.cap = append(g.cap, c, 0)
	g.next = append(g.next, g.head[from], g.head[to])
	g.head[from], g.head[to] = int32(a), int32(a+1)
	return a, nil
}

// Residual copies the resting capacities into dst, reusing its backing
// array when it is large enough: the starting residual of a solve.
// Only the capacities of arcs AddEdge returned may be overridden in it.
func (g *Graph) Residual(dst []int64) []int64 { return append(dst[:0], g.cap...) }

// MaxFlow computes the maximum s-t flow at the resting capacities.
func (g *Graph) MaxFlow(s, t int) int64 {
	var sv Solver
	return sv.MaxFlow(g, g.Residual(nil), s, t)
}

// Solver holds the work arrays of Dinic's algorithm, reused across
// solves. It is not safe for concurrent use; the graphs it solves are.
type Solver struct {
	level []int32
	iter  []int32
	queue []int32
}

// MaxFlow pushes a maximum s-t flow through g, reading and updating the
// residual capacities res, and returns its value.
func (sv *Solver) MaxFlow(g *Graph, res []int64, s, t int) int64 {
	if s == t {
		return Inf
	}
	var total int64
	for {
		if sv.bfs(g, res, s); sv.level[t] < 0 {
			return total
		}
		sv.iter = append(sv.iter[:0], g.head...)
		for {
			f := sv.dfs(g, res, int32(s), int32(t), Inf)
			if f == 0 {
				break
			}
			total += f
			if total >= InfThreshold {
				return total
			}
		}
	}
}

// Cut appends to dst the arcs of the minimum cut nearest s, once
// MaxFlow has returned a finite value on res: the arcs that carry flow
// from a vertex the residual still reaches from s to one it does not.
// That is one cut for every maximum flow, and its arcs are exactly the
// saturated arcs of positive capacity crossing it.
func (sv *Solver) Cut(g *Graph, res []int64, s int, dst []int) []int {
	sv.bfs(g, res, s)
	for a := 0; a < len(g.to); a += 2 {
		if sv.level[g.to[a^1]] >= 0 && sv.level[g.to[a]] < 0 && res[a^1] > 0 {
			dst = append(dst, a)
		}
	}
	return dst
}

// bfs labels every vertex the residual reaches from s with its
// distance, and every other one -1.
func (sv *Solver) bfs(g *Graph, res []int64, s int) {
	n := g.N()
	if cap(sv.level) < n {
		sv.level = make([]int32, n)
	}
	sv.level = sv.level[:n]
	for v := range sv.level {
		sv.level[v] = -1
	}
	sv.level[s] = 0
	sv.queue = append(sv.queue[:0], int32(s))
	for i := 0; i < len(sv.queue); i++ {
		v := sv.queue[i]
		for a := g.head[v]; a >= 0; a = g.next[a] {
			if w := g.to[a]; res[a] > 0 && sv.level[w] < 0 {
				sv.level[w] = sv.level[v] + 1
				sv.queue = append(sv.queue, w)
			}
		}
	}
}

// dfs finds one augmenting path in the level graph from v, pushing at
// most f along it.
func (sv *Solver) dfs(g *Graph, res []int64, v, t int32, f int64) int64 {
	if v == t {
		return f
	}
	for ; sv.iter[v] >= 0; sv.iter[v] = g.next[sv.iter[v]] {
		a := sv.iter[v]
		w := g.to[a]
		if res[a] <= 0 || sv.level[w] != sv.level[v]+1 {
			continue
		}
		if d := sv.dfs(g, res, w, t, min(f, res[a])); d > 0 {
			res[a] -= d
			res[a^1] += d
			return d
		}
	}
	return 0
}
