// Package respflow implements Algorithm 1 of Meliou et al. (VLDB 2010):
// computing the Why-So responsibility of an endogenous tuple for a
// linear (or weakly linear) conjunctive query by reduction to
// max-flow/min-cut (Example 4.2, Theorem 4.5).
//
// # Construction
//
// Given a Boolean query q whose (possibly weakened) shape is linear with
// atom order g₁ … g_m, the flow network has one layer of nodes per
// interface Sᵢ = Var(gᵢ) ∩ Var(gᵢ₊₁) between consecutive atoms (S₀ and
// S_m are empty: single source/target nodes). Every valuation θ of q
// contributes, at each position i, an edge from θ's projection on Sᵢ₋₁
// to its projection on Sᵢ. Because every variable spans a consecutive
// atom range, agreement on consecutive interfaces stitches path edges
// into a consistent valuation, so s-t paths correspond exactly to
// valuations and finite cuts to tuple sets falsifying the query.
//
// Edges are per-tuple for endogenous tuples of endogenous atoms
// (capacity 1) and merged with capacity ∞ for exogenous tuples and for
// atoms made exogenous by weakening. Dissociated relations are never
// materialized: a dissociated exogenous atom contributes the same
// ∞-capacity interface edges either way (the weakening does not change
// the set of valuations restricted to the original variables).
//
// The responsibility of t is 1/(1+min|Γ|) where the minimum is over the
// valuations ("paths p") through t: the path's other edges are set to ∞
// (they must survive), t's edge to 0 (t is put back last), and |Γ| is
// the min-cut value. If every protected path yields an infinite cut, t
// is not an actual cause (its conjuncts are all redundant) and ρ_t = 0,
// matching Theorem 3.2.
//
// # Components
//
// Without s and t the network falls apart into connected components
// (on the genre query, one per director), and its max flow is the sum
// of theirs. Build splits the network into these components and solves
// each one's max flow and min cut nearest s once, at resting
// capacities. A (t, path) solve then re-solves only the components that
// hold the path's edges and t's edges, on a residual private to the
// call, and adds the other components' base values. On the networks
// Build lays out that is one component: a path lies in one, and the
// virtual edges of a dissociated tuple are all joined through the edge
// of the tuple of the atom that dominates it. Its contingency is the re-solved
// components' cuts plus the others' base cuts: the cut nearest s is the
// same for every maximum flow, so this is the contingency a solve of
// the whole network finds. No solve writes the network, so once Build
// returns it is read-only and may be shared by any number of
// goroutines.
package respflow

import (
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/querycause/querycause/internal/flow"
	"github.com/querycause/querycause/internal/ra"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/shape"
)

// Network is the flow network built from a linearized query and a
// database, split into its components. It is read-only once Build
// returns: Contingency and MinContingency solve on residuals private to
// the call, so concurrent calls need no lock.
type Network struct {
	comps []component
	// edgesOf maps an endogenous tuple to its edges. A tuple of an
	// endogenous atom has exactly one edge (its interface projections are
	// determined by the tuple, since weakening never adds variables to
	// endogenous atoms). An endogenous tuple whose atom was weakened to
	// exogenous and dissociated stands for several "virtual" tuples —
	// one edge per assignment of the dissociated variables.
	edgesOf map[rel.TupleID][]edgeRef
	// protectSets lists, per endogenous tuple, the deduplicated sets of
	// endogenous tuples co-occurring with it in a valuation (the path
	// edges that must be protected).
	protectSets map[rel.TupleID][][]rel.TupleID
	// finiteBase sums the finite base values of the components, and
	// infiniteBase counts the components whose base value is infinite.
	finiteBase   int64
	infiniteBase int
	vertices     int
}

// component is one connected component of the network without s and t,
// with its own vertex numbers: 0 is s, 1 is t. An edge from s straight
// to t is a component of its own.
type component struct {
	g *flow.Graph
	// tuple[i] is the endogenous tuple edge i (arc 2i) stands for, or -1
	// for an exogenous edge.
	tuple []rel.TupleID
	// base is the component's max flow at resting capacities, and cut
	// the tuples of its min cut nearest s (nil when base is infinite).
	base int64
	cut  []rel.TupleID
}

// edgeRef locates an edge: its component and arc.
type edgeRef struct {
	comp int32
	arc  int32
}

// edge is one edge of the whole network before the split, between
// global vertices (0 = s, 1 = t): its resting capacity is 1 for a tuple
// of an endogenous atom, ∞ for anything else (sound domination
// guarantees minimum contingencies never need the endogenous tuples of
// atoms weakened to exogenous, but they may still be the target).
type edge struct {
	from, to int32
	cap      int64
	tuple    rel.TupleID // -1 for exogenous tuples
}

// Build constructs the network for Boolean query q over db, using the
// weakened shape ws (atom i of ws corresponds to q.Atoms[i]) and the
// linear atom order, and solves each component's base flow. ws must
// come from shape.FromQuery(q, …), possibly weakened, or from a query
// that differs from q only in its variable names: shape variable v is
// q's v-th distinct variable in order of first occurrence.
func Build(db *rel.Database, q *rel.Query, ws *shape.Shape, order []int) (*Network, error) {
	l, err := layOut(db, q, ws, order)
	if err != nil {
		return nil, err
	}
	return split(l), nil
}

// layout is the whole network before the split into components: its
// vertex count, its edges and the protect-sets of every endogenous
// tuple.
type layout struct {
	vertices    int
	edges       []edge
	protectSets map[rel.TupleID][][]rel.TupleID
}

func layOut(db *rel.Database, q *rel.Query, ws *shape.Shape, order []int) (*layout, error) {
	if len(ws.Atoms) != len(q.Atoms) {
		return nil, fmt.Errorf("respflow: shape has %d atoms, query has %d", len(ws.Atoms), len(q.Atoms))
	}
	if len(order) != len(q.Atoms) {
		return nil, fmt.Errorf("respflow: order has %d entries, query has %d atoms", len(order), len(q.Atoms))
	}
	seen := make([]bool, len(order))
	for _, a := range order {
		if a < 0 || a >= len(order) || seen[a] {
			return nil, fmt.Errorf("respflow: invalid atom order %v", order)
		}
		seen[a] = true
	}
	if err := checkConsecutive(ws, order); err != nil {
		return nil, err
	}
	vals, err := ra.Valuations(db, q)
	if err != nil {
		return nil, err
	}
	// where[v] locates shape variable v at its first occurrence in q: the
	// atom whose witness binds it, and the column holding it. Variables
	// are numbered by first occurrence, as shape.FromQuery numbers them,
	// so a shape built from any query that differs from q only in its
	// variable names lays out the same network. Any occurrence would do,
	// since a valuation's witnesses agree on every variable.
	var where []column
	ids := make(map[string]int)
	for ai, a := range q.Atoms {
		for c, t := range a.Terms {
			if _, ok := ids[t.Var]; t.IsVar && !ok {
				ids[t.Var] = len(where)
				where = append(where, column{ai, c})
			}
		}
	}
	m := len(order)
	// ifaces[i] locates the variables of the interface between positions
	// i-1 and i (0 and m are empty).
	ifaces := make([][]column, m+1)
	for i := 1; i < m; i++ {
		prev, cur := ws.Atoms[order[i-1]], ws.Atoms[order[i]]
		for _, v := range prev.Vars {
			if !cur.HasVar(v) {
				continue
			}
			if v >= len(where) {
				return nil, fmt.Errorf("respflow: shape variable %s is not a variable of query %s", shapeVarName(ws, v), q)
			}
			ifaces[i] = append(ifaces[i], where[v])
		}
	}

	l := &layout{vertices: 2, protectSets: make(map[rel.TupleID][][]rel.TupleID)}
	// Vertex i of a valuation's path is numbered by the codes of its
	// projection on interface i, in order of first appearance.
	nodeIDs := make([]map[string]int32, m)
	for i := range nodeIDs {
		nodeIDs[i] = make(map[string]int32)
	}
	verts := make([]int32, m+1)
	verts[m] = 1
	seenEdges := make(map[edge]bool)
	seenSets := make(map[string]bool)
	var key []byte
	var codes []uint32
	var set []rel.TupleID

	for _, val := range vals {
		for i := 1; i < m; i++ {
			key = key[:0]
			for _, c := range ifaces[i] {
				codes = db.AppendCodes(codes[:0], val.Witness[c.atom])
				key = binary.LittleEndian.AppendUint32(key, codes[c.col])
			}
			id, ok := nodeIDs[i][string(key)]
			if !ok {
				id = int32(l.vertices)
				l.vertices++
				nodeIDs[i][string(key)] = id
			}
			verts[i] = id
		}
		set = set[:0]
		for pos := 0; pos < m; pos++ {
			ai := order[pos]
			id := val.Witness[ai]
			// An edge is deduped on its endpoints and tuple: a tuple of
			// an endogenous atom always projects to the same endpoints; a
			// tuple of a dissociated atom gets one virtual edge per
			// distinct endpoint pair; the exogenous tuples joining two
			// vertices merge into one ∞ edge.
			e := edge{verts[pos], verts[pos+1], flow.Inf, -1}
			if db.Endo(id) {
				set = append(set, id)
				if e.tuple = id; ws.Atoms[ai].Endo {
					e.cap = 1
				}
			}
			if !seenEdges[e] {
				seenEdges[e] = true
				l.edges = append(l.edges, e)
			}
		}
		// Record this valuation's endogenous tuple set as a protect-set
		// for each of its endogenous tuples. A set is recorded for all
		// its tuples at once, so one seen-set per network dedupes it.
		slices.Sort(set)
		key = key[:0]
		for _, id := range set {
			key = binary.LittleEndian.AppendUint64(key, uint64(id))
		}
		if seenSets[string(key)] {
			continue
		}
		seenSets[string(key)] = true
		ps := slices.Clone(set)
		for i, id := range ps {
			if i == 0 || ps[i-1] != id {
				l.protectSets[id] = append(l.protectSets[id], ps)
			}
		}
	}
	return l, nil
}

// column locates a query variable in a valuation's witnesses: the atom
// and the column of its witness.
type column struct {
	atom, col int
}

// split partitions the network into its components, numbered in the
// order their first edge was laid out, and solves each one's base flow
// and cut.
func split(l *layout) *Network {
	// Union-find over the vertices other than s and t.
	parent := make([]int32, l.vertices)
	for v := range parent {
		parent[v] = int32(v)
	}
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for _, e := range l.edges {
		if e.from > 1 && e.to > 1 {
			parent[find(e.from)] = find(e.to)
		}
	}
	// Number the components and each component's vertices (0 = s,
	// 1 = t), then add the edges.
	n := &Network{edgesOf: make(map[rel.TupleID][]edgeRef), protectSets: l.protectSets, vertices: l.vertices}
	compOf := make([]int32, l.vertices) // root vertex → component + 1
	local := make([]int32, l.vertices)  // vertex → its number in its component
	for _, e := range l.edges {
		c := int32(len(n.comps))
		if e.from > 1 || e.to > 1 {
			root := find(max(e.from, e.to))
			if compOf[root] == 0 {
				compOf[root] = c + 1
			} else {
				c = compOf[root] - 1
			}
		}
		if c == int32(len(n.comps)) {
			n.comps = append(n.comps, component{g: flow.NewGraph(2)})
		}
		cp := &n.comps[c]
		ends := [2]int32{e.from, e.to}
		for i, v := range ends {
			if v > 1 {
				if local[v] == 0 {
					local[v] = int32(cp.g.AddVertex())
				}
				ends[i] = local[v]
			}
		}
		arc, _ := cp.g.AddEdge(int(ends[0]), int(ends[1]), e.cap) // ends are in range by construction
		cp.tuple = append(cp.tuple, e.tuple)
		if e.tuple >= 0 {
			n.edgesOf[e.tuple] = append(n.edgesOf[e.tuple], edgeRef{c, int32(arc)})
		}
	}
	var sv flow.Solver
	var arcs []int
	for i := range n.comps {
		cp := &n.comps[i]
		res := cp.g.Residual(nil)
		if cp.base = sv.MaxFlow(cp.g, res, 0, 1); cp.base >= flow.InfThreshold {
			n.infiniteBase++
			continue
		}
		n.finiteBase += cp.base
		arcs = sv.Cut(cp.g, res, 0, arcs[:0])
		cp.cut = cp.tuplesOf(arcs, nil)
	}
	return n
}

// tuplesOf appends to dst the endogenous tuples of the given arcs.
func (c *component) tuplesOf(arcs []int, dst []rel.TupleID) []rel.TupleID {
	for _, a := range arcs {
		if id := c.tuple[a/2]; id >= 0 {
			dst = append(dst, id)
		}
	}
	return dst
}

func shapeVarName(ws *shape.Shape, v int) string {
	if v < len(ws.VarNames) && ws.VarNames[v] != "" {
		return ws.VarNames[v]
	}
	return fmt.Sprintf("v%d", v)
}

// checkConsecutive validates that each variable's atoms form a
// consecutive run in the order — the precondition for path/valuation
// correspondence.
func checkConsecutive(ws *shape.Shape, order []int) error {
	pos := make([]int, len(order))
	for p, a := range order {
		pos[a] = p
	}
	for _, v := range ws.UsedVars() {
		lo, hi, count := len(order), -1, 0
		for i, a := range ws.Atoms {
			if a.HasVar(v) {
				count++
				if pos[i] < lo {
					lo = pos[i]
				}
				if pos[i] > hi {
					hi = pos[i]
				}
			}
		}
		if count > 0 && hi-lo+1 != count {
			return fmt.Errorf("respflow: variable %s not consecutive in order %v", shapeVarName(ws, v), order)
		}
	}
	return nil
}

// MinContingency computes the minimum contingency size for tuple t.
// ok=false means t is not an actual cause (no finite protected cut, or t
// on no valuation).
func (n *Network) MinContingency(t rel.TupleID) (int, bool) {
	size, _ := n.solve(t, false)
	return int(size), size >= 0
}

// Responsibility computes ρ_t = 1/(1+min|Γ|), or 0 if t is not a cause.
func (n *Network) Responsibility(t rel.TupleID) float64 {
	size, ok := n.MinContingency(t)
	if !ok {
		return 0
	}
	return 1 / (1 + float64(size))
}

// Contingency returns an actual minimum contingency set for t (sorted
// tuple IDs): the tuples of a minimum protected cut. ok=false means t
// is not an actual cause.
func (n *Network) Contingency(t rel.TupleID) ([]rel.TupleID, bool) {
	size, set := n.solve(t, true)
	return set, size >= 0
}

// solve runs the protected min cut of every protect-set of t and returns
// the least value, or -1 when none is finite; with withSet, also the
// tuples of the nearest-s cut of the first protect-set reaching it.
// Protecting a path sets its endogenous edges to ∞ and t's edges to 0
// (removing a tuple removes all its virtual edges, so all of them are
// free to cut); only the components holding those edges are re-solved.
func (n *Network) solve(t rel.TupleID, withSet bool) (int64, []rel.TupleID) {
	tEdges := n.edgesOf[t]
	if len(tEdges) == 0 {
		return -1, nil
	}
	var (
		sv      flow.Solver
		touched []int32   // the re-solved components
		res     [][]int64 // their residuals, aligned with touched
		arcs    []int
		set     []rel.TupleID
	)
	slot := func(c int32) int {
		for i, x := range touched {
			if x == c {
				return i
			}
		}
		touched = append(touched, c)
		return len(touched) - 1
	}
	best := int64(-1)
	for _, ps := range n.protectSets[t] {
		touched = touched[:0]
		for _, id := range ps {
			for _, e := range n.edgesOf[id] {
				slot(e.comp)
			}
		}
		for _, e := range tEdges {
			slot(e.comp)
		}
		// The untouched components keep their base values.
		v, infinite := n.finiteBase, n.infiniteBase
		for _, c := range touched {
			if b := n.comps[c].base; b >= flow.InfThreshold {
				infinite--
			} else {
				v -= b
			}
		}
		if infinite > 0 || (best >= 0 && v >= best) {
			continue
		}
		for len(res) < len(touched) {
			res = append(res, nil)
		}
		for i, c := range touched {
			res[i] = n.comps[c].g.Residual(res[i])
		}
		for _, id := range ps {
			for _, e := range n.edgesOf[id] {
				res[slot(e.comp)][e.arc] = flow.Inf
			}
		}
		for _, e := range tEdges {
			res[slot(e.comp)][e.arc] = 0
		}
		for i, c := range touched {
			if v += sv.MaxFlow(n.comps[c].g, res[i], 0, 1); v >= flow.InfThreshold {
				break
			}
		}
		if v >= flow.InfThreshold || (best >= 0 && v >= best) {
			continue
		}
		best = v
		if withSet {
			set = set[:0]
			for i, c := range touched {
				arcs = sv.Cut(n.comps[c].g, res[i], 0, arcs[:0])
				set = n.comps[c].tuplesOf(arcs, set)
			}
			for c := range n.comps {
				if !slices.Contains(touched, int32(c)) {
					set = append(set, n.comps[c].cut...)
				}
			}
		}
		if best == 0 {
			break
		}
	}
	if best < 0 {
		return -1, nil
	}
	slices.Sort(set)
	return best, slices.Compact(set)
}

// Stats reports the network size (for tests and experiment output):
// its vertices, s and t included, and the endogenous tuples with edges.
func (n *Network) Stats() (vertices, tupleEdges int) {
	return n.vertices, len(n.edgesOf)
}
