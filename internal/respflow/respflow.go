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
package respflow

import (
	"fmt"
	"sort"
	"strings"

	"github.com/querycause/querycause/internal/flow"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/shape"
)

// Network is the flow network built from a linearized query and a
// database, reusable across target tuples.
type Network struct {
	g      *flow.Graph
	source int
	target int
	// edgeByTuple maps an endogenous tuple to its edges. A tuple of an
	// endogenous atom has exactly one edge (its interface projections are
	// determined by the tuple, since weakening never adds variables to
	// endogenous atoms). An endogenous tuple whose atom was weakened to
	// exogenous and dissociated stands for several "virtual" tuples —
	// one edge per assignment of the dissociated variables.
	edgeByTuple map[rel.TupleID][]*flow.Edge
	// defaultCap is each endogenous tuple's resting capacity: 1 for
	// tuples of endogenous atoms, ∞ for endogenous tuples whose atom was
	// weakened to exogenous (sound domination guarantees minimum
	// contingencies never need them, but they may still be the target).
	defaultCap map[rel.TupleID]int64
	// protectSets lists, per endogenous tuple, the deduplicated sets of
	// endogenous tuples co-occurring with it in a valuation (the path
	// edges that must be protected).
	protectSets map[rel.TupleID][][]rel.TupleID
}

// Build constructs the network for Boolean query q over db, using the
// weakened shape ws (atom i of ws corresponds to q.Atoms[i]) and the
// linear atom order. ws must come from shape.FromQuery(q, …) possibly
// weakened, so that ws.VarNames maps shape variable ids to q's variable
// names.
func Build(db *rel.Database, q *rel.Query, ws *shape.Shape, order []int) (*Network, error) {
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
	vals, err := rel.Valuations(db, q)
	if err != nil {
		return nil, err
	}
	m := len(order)
	// Interface variable name lists: ifaceVars[i] is between position
	// i-1 and i (0 and m are empty).
	ifaceVars := make([][]string, m+1)
	for i := 1; i < m; i++ {
		prev, cur := ws.Atoms[order[i-1]], ws.Atoms[order[i]]
		var names []string
		for _, v := range prev.Vars {
			if cur.HasVar(v) {
				names = append(names, shapeVarName(ws, v))
			}
		}
		sort.Strings(names)
		ifaceVars[i] = names
	}

	n := &Network{
		g:           flow.NewGraph(2),
		source:      0,
		target:      1,
		edgeByTuple: make(map[rel.TupleID][]*flow.Edge),
		defaultCap:  make(map[rel.TupleID]int64),
		protectSets: make(map[rel.TupleID][][]rel.TupleID),
	}
	nodeIDs := make(map[string]int)
	nodeAt := func(layer int, key string) int {
		if layer == 0 {
			return n.source
		}
		if layer == m {
			return n.target
		}
		k := fmt.Sprintf("%d|%s", layer, key)
		id, ok := nodeIDs[k]
		if !ok {
			id = n.g.AddVertex()
			nodeIDs[k] = id
		}
		return id
	}
	infEdges := make(map[string]bool)
	protDedup := make(map[rel.TupleID]map[string]bool)

	for _, val := range vals {
		var endoOnPath []rel.TupleID
		for pos := 0; pos < m; pos++ {
			ai := order[pos]
			id := val.Witness[ai]
			left := nodeAt(pos, project(val.Binding, ifaceVars[pos]))
			right := nodeAt(pos+1, project(val.Binding, ifaceVars[pos+1]))
			if db.Endo(id) {
				endoOnPath = append(endoOnPath, id)
				cap_ := int64(1)
				if !ws.Atoms[ai].Endo {
					cap_ = flow.Inf
				}
				// Dedupe per (tuple, endpoints): a tuple of an endogenous
				// atom always projects to the same endpoints; a tuple of a
				// dissociated atom gets one virtual edge per distinct
				// endpoint pair.
				k := fmt.Sprintf("t%d|%d|%d", id, left, right)
				if !infEdges[k] {
					infEdges[k] = true
					e, err := n.g.AddEdge(left, right, cap_, id)
					if err != nil {
						return nil, err
					}
					n.edgeByTuple[id] = append(n.edgeByTuple[id], e)
					n.defaultCap[id] = cap_
				}
			} else {
				k := fmt.Sprintf("x%d|%d|%d", pos, left, right)
				if !infEdges[k] {
					infEdges[k] = true
					if _, err := n.g.AddEdge(left, right, flow.Inf, nil); err != nil {
						return nil, err
					}
				}
			}
		}
		// Record this valuation's endogenous tuple set as a protect-set
		// for each of its endogenous tuples.
		set := append([]rel.TupleID(nil), endoOnPath...)
		sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
		key := tupleSetKey(set)
		for _, id := range set {
			if protDedup[id] == nil {
				protDedup[id] = make(map[string]bool)
			}
			if !protDedup[id][key] {
				protDedup[id][key] = true
				n.protectSets[id] = append(n.protectSets[id], set)
			}
		}
	}
	return n, nil
}

func shapeVarName(ws *shape.Shape, v int) string {
	if v < len(ws.VarNames) && ws.VarNames[v] != "" {
		return ws.VarNames[v]
	}
	return fmt.Sprintf("v%d", v)
}

func project(binding map[string]rel.Value, vars []string) string {
	if len(vars) == 0 {
		return ""
	}
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = string(binding[v])
	}
	return strings.Join(parts, "\x00")
}

func tupleSetKey(set []rel.TupleID) string {
	var b strings.Builder
	for _, id := range set {
		fmt.Fprintf(&b, "%d,", id)
	}
	return b.String()
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

// Clone returns an independently mutable copy of the network for use
// by a concurrent worker: MinContingency and Contingency temporarily
// rewrite edge capacities, so a Network must never be shared between
// goroutines, but clones of one base network may run in parallel. The
// graph and the per-tuple edge handles are deep-copied; protectSets and
// defaultCap are immutable after Build and are shared. Clones preserve
// edge order, so a clone's answers are identical to the original's.
func (n *Network) Clone() *Network {
	g, remap := n.g.Clone()
	ebt := make(map[rel.TupleID][]*flow.Edge, len(n.edgeByTuple))
	for id, es := range n.edgeByTuple {
		cp := make([]*flow.Edge, len(es))
		for i, e := range es {
			cp[i] = remap[e]
		}
		ebt[id] = cp
	}
	return &Network{
		g:           g,
		source:      n.source,
		target:      n.target,
		edgeByTuple: ebt,
		defaultCap:  n.defaultCap,
		protectSets: n.protectSets,
	}
}

// Reset returns the network to its post-Build resting state: every
// tuple edge back to its default capacity and all residual flow
// cleared. A Reset network answers exactly like a fresh Clone, so
// ranking workers can park a network between rankings and reuse it
// instead of cloning per call (see core's network pool).
func (n *Network) Reset() {
	for id, es := range n.edgeByTuple {
		for _, e := range es {
			n.g.SetCap(e, n.defaultCap[id])
		}
	}
	n.g.Reset()
}

// MinContingency computes the minimum contingency size for tuple t.
// ok=false means t is not an actual cause (no finite protected cut, or t
// on no valuation).
func (n *Network) MinContingency(t rel.TupleID) (int, bool) {
	tEdges := n.edgeByTuple[t]
	if len(tEdges) == 0 {
		return 0, false
	}
	sets := n.protectSets[t]
	best := int64(-1)
	for _, set := range sets {
		// Protect: all endo edges of the valuation become ∞; t becomes 0
		// (removing a tuple removes all its virtual edges, so all of
		// them are free to cut).
		for _, id := range set {
			for _, e := range n.edgeByTuple[id] {
				n.g.SetCap(e, flow.Inf)
			}
		}
		for _, e := range tEdges {
			n.g.SetCap(e, 0)
		}
		v := n.g.MaxFlow(n.source, n.target)
		// Restore.
		for _, id := range set {
			for _, e := range n.edgeByTuple[id] {
				n.g.SetCap(e, n.defaultCap[id])
			}
		}
		for _, e := range tEdges {
			n.g.SetCap(e, n.defaultCap[t])
		}
		if v >= flow.InfThreshold {
			continue
		}
		if best < 0 || v < best {
			best = v
		}
		if best == 0 {
			break
		}
	}
	if best < 0 {
		return 0, false
	}
	return int(best), true
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
	tEdges := n.edgeByTuple[t]
	if len(tEdges) == 0 {
		return nil, false
	}
	best := int64(-1)
	var bestSet []rel.TupleID
	for _, set := range n.protectSets[t] {
		for _, id := range set {
			for _, e := range n.edgeByTuple[id] {
				n.g.SetCap(e, flow.Inf)
			}
		}
		for _, e := range tEdges {
			n.g.SetCap(e, 0)
		}
		v, cut := n.g.MinCut(n.source, n.target)
		for _, id := range set {
			for _, e := range n.edgeByTuple[id] {
				n.g.SetCap(e, n.defaultCap[id])
			}
		}
		for _, e := range tEdges {
			n.g.SetCap(e, n.defaultCap[t])
		}
		if v >= flow.InfThreshold {
			continue
		}
		if best < 0 || v < best {
			best = v
			ids := make(map[rel.TupleID]bool)
			for _, e := range cut {
				if id, ok := e.Payload.(rel.TupleID); ok {
					ids[id] = true
				}
			}
			bestSet = bestSet[:0]
			for id := range ids {
				bestSet = append(bestSet, id)
			}
		}
		if best == 0 {
			break
		}
	}
	if best < 0 {
		return nil, false
	}
	sort.Slice(bestSet, func(i, j int) bool { return bestSet[i] < bestSet[j] })
	return bestSet, true
}

// Stats reports the network size (for tests and experiment output).
func (n *Network) Stats() (vertices, tupleEdges int) {
	return n.g.N, len(n.edgeByTuple)
}
