package respflow

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/querycause/querycause/internal/flow"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/shape"
)

// wholeGraph is the network in one piece, solved the way Contingency
// solved it before the split into components: per protect-set, one max
// flow from zero over the whole graph. It is the reference that the
// component-local solves must match byte for byte.
type wholeGraph struct {
	g           *flow.Graph
	tuple       []rel.TupleID // per edge, -1 for exogenous edges
	arcsOf      map[rel.TupleID][]int
	protectSets map[rel.TupleID][][]rel.TupleID
}

func newWholeGraph(l *layout) *wholeGraph {
	w := &wholeGraph{g: flow.NewGraph(l.vertices), arcsOf: make(map[rel.TupleID][]int), protectSets: l.protectSets}
	for _, e := range l.edges {
		a, err := w.g.AddEdge(int(e.from), int(e.to), e.cap)
		if err != nil {
			panic(err)
		}
		w.tuple = append(w.tuple, e.tuple)
		if e.tuple >= 0 {
			w.arcsOf[e.tuple] = append(w.arcsOf[e.tuple], a)
		}
	}
	return w
}

// contingency is the whole-graph Contingency: the first protect-set
// reaching the least finite cut value wins, and its contingency is the
// tuples of its min cut nearest s.
func (w *wholeGraph) contingency(t rel.TupleID) (int64, []rel.TupleID, bool) {
	tArcs := w.arcsOf[t]
	if len(tArcs) == 0 {
		return 0, nil, false
	}
	var sv flow.Solver
	best := int64(-1)
	var bestSet []rel.TupleID
	for _, set := range w.protectSets[t] {
		res := w.g.Residual(nil)
		for _, id := range set {
			for _, a := range w.arcsOf[id] {
				res[a] = flow.Inf
			}
		}
		for _, a := range tArcs {
			res[a] = 0
		}
		v := sv.MaxFlow(w.g, res, 0, 1)
		if v >= flow.InfThreshold {
			continue
		}
		if best < 0 || v < best {
			best = v
			ids := make(map[rel.TupleID]bool)
			for _, a := range sv.Cut(w.g, res, 0, nil) {
				if id := w.tuple[a/2]; id >= 0 {
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
		return 0, nil, false
	}
	sort.Slice(bestSet, func(i, j int) bool { return bestSet[i] < bestSet[j] })
	return best, bestSet, true
}

// checkAgainstWholeGraph compares Contingency and MinContingency of the
// split network with the whole-graph reference for every tuple in ids,
// and reports how many of them have edges in more than one component.
func checkAgainstWholeGraph(t *testing.T, l *layout, ids []rel.TupleID) (spanning int) {
	t.Helper()
	ref := newWholeGraph(l)
	net := split(l)
	for _, id := range ids {
		wantSize, wantSet, wantOK := ref.contingency(id)
		gotSet, gotOK := net.Contingency(id)
		if gotOK != wantOK || !reflect.DeepEqual(gotSet, wantSet) {
			t.Fatalf("tuple %d: Contingency = (%v, %v), whole graph (%v, %v)\nedges %v", id, gotSet, gotOK, wantSet, wantOK, l.edges)
		}
		gotSize, gotOK := net.MinContingency(id)
		if gotOK != wantOK || (wantOK && int64(gotSize) != wantSize) {
			t.Fatalf("tuple %d: MinContingency = (%d, %v), whole graph (%d, %v)", id, gotSize, gotOK, wantSize, wantOK)
		}
		comps := make(map[int32]bool)
		for _, e := range net.edgesOf[id] {
			comps[e.comp] = true
		}
		if len(comps) > 1 {
			spanning++
		}
	}
	return spanning
}

// mustLayOut lays out q over db with the weakened shape ws and order.
func mustLayOut(t *testing.T, db *rel.Database, q *rel.Query, ws *shape.Shape, order []int) *layout {
	t.Helper()
	l, err := layOut(db, q, ws, order)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func randomDB(rng *rand.Rand, rels []string, endoProb float64) *rel.Database {
	db := rel.NewDatabase()
	dom := []rel.Value{"0", "1", "2", "3"}
	for _, name := range rels {
		for i := 0; i < 6; i++ {
			db.MustAdd(name, rng.Float64() < endoProb, dom[rng.Intn(len(dom))], dom[rng.Intn(len(dom))])
		}
	}
	return db
}

// TestComponentsMatchWholeGraph: on random linear chains with mixed
// endogenous and exogenous tuples, and on Example 4.12b under the
// paper's weakening (R and T dominated by V, then dissociated, so their
// endogenous tuples have virtual edges), component-local solving
// answers every tuple exactly as the whole graph does.
func TestComponentsMatchWholeGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x, y, z, w := rel.V("x"), rel.V("y"), rel.V("z"), rel.V("w")
	chains := []*rel.Query{
		rel.NewBoolean(rel.NewAtom("R", x, y), rel.NewAtom("S", y, z)),
		rel.NewBoolean(rel.NewAtom("R", x, y), rel.NewAtom("S", y, z), rel.NewAtom("T", z, w)),
	}
	for trial := 0; trial < 60; trial++ {
		q := chains[trial%len(chains)]
		db := randomDB(rng, []string{"R", "S", "T"}[:len(q.Atoms)], 0.75)
		s := shape.FromQuery(q, endoByRelation(db))
		order, ok := s.LinearOrder()
		if !ok {
			t.Fatalf("chain %v is not linear", q)
		}
		checkAgainstWholeGraph(t, mustLayOut(t, db, q, s, order), db.EndoIDs())
	}

	q := rel.NewBoolean(rel.NewAtom("R", x, y), rel.NewAtom("S", y, z), rel.NewAtom("T", z, x), rel.NewAtom("V", x))
	virtual := 0
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, []string{"R", "S", "T"}, 0.8)
		for _, v := range []rel.Value{"0", "1", "2"} {
			db.MustAdd("V", true, v)
		}
		ws := shape.FromQuery(q, func(string) bool { return true })
		for _, op := range []shape.Op{
			{Kind: shape.Domination, Atom: 0},
			{Kind: shape.Domination, Atom: 2},
			{Kind: shape.Dissociation, Atom: 0, Var: 2},
			{Kind: shape.Dissociation, Atom: 2, Var: 1},
		} {
			var err error
			if ws, err = ws.ApplyWeakening(op); err != nil {
				t.Fatal(err)
			}
		}
		order, ok := ws.LinearOrder()
		if !ok {
			t.Fatal("the weakened Example 4.12b must be linear")
		}
		l := mustLayOut(t, db, q, ws, order)
		checkAgainstWholeGraph(t, l, db.EndoIDs())
		for _, es := range split(l).edgesOf {
			if len(es) > 1 {
				virtual++
			}
		}
	}
	if virtual == 0 {
		t.Fatal("no tuple had virtual edges; the weakened query proves nothing")
	}
}

// TestSingleAtomComponents: a single-atom query lays out only edges
// from s straight to t, each a component of its own. With an exogenous
// match among them, that component's base flow is ∞ and no tuple is a
// cause.
func TestSingleAtomComponents(t *testing.T) {
	q := rel.NewBoolean(rel.NewAtom("R", rel.C("a"), rel.V("y")))
	for _, exo := range []bool{false, true} {
		db := rel.NewDatabase()
		for _, v := range []rel.Value{"b", "c", "d"} {
			db.MustAdd("R", true, "a", v)
		}
		db.MustAdd("R", true, "z", "q")
		if exo {
			db.MustAdd("R", false, "a", "e")
		}
		s := shape.FromQuery(q, endoByRelation(db))
		l := mustLayOut(t, db, q, s, []int{0})
		n := split(l)
		if len(n.comps) != len(l.edges) || n.infiniteBase != map[bool]int{false: 0, true: 1}[exo] {
			t.Fatalf("exo=%v: %d components (%d infinite) for %d s→t edges", exo, len(n.comps), n.infiniteBase, len(l.edges))
		}
		checkAgainstWholeGraph(t, l, db.EndoIDs())
		if _, ok := n.Contingency(0); ok == exo {
			t.Fatalf("exo=%v: R(a,b) cause = %v", exo, ok)
		}
	}
}

// TestSpanningTupleComponents lays out by hand what Build never does: a tuple (11) whose virtual edges lie in two
// components, so its protect-sets touch both, next to a component that
// neither touches. A second network adds a component whose base flow is
// ∞, which makes every tuple a non-cause.
func TestSpanningTupleComponents(t *testing.T) {
	edges := []edge{
		{0, 2, 1, 10}, {2, 1, flow.Inf, 11}, // component A: path {10, 11}
		{0, 3, 1, 12}, {3, 1, flow.Inf, 11}, // component B: path {12, 11}
		{0, 4, 1, 13}, {4, 1, 1, 14}, // component C: path {13, 14}
		{0, 5, 1, 15}, {5, 1, flow.Inf, -1}, {0, 5, flow.Inf, -1}, // ∞ base
	}
	protectSets := map[rel.TupleID][][]rel.TupleID{
		10: {{10, 11}}, 11: {{10, 11}, {11, 12}}, 12: {{11, 12}},
		13: {{13, 14}}, 14: {{13, 14}}, 15: {{15}},
	}
	ids := []rel.TupleID{10, 11, 12, 13, 14, 15, 99}
	l := &layout{vertices: 6, edges: edges[:6], protectSets: protectSets}
	if spanning := checkAgainstWholeGraph(t, l, ids); spanning != 1 {
		t.Fatalf("%d tuples span components, want 1 (tuple 11)", spanning)
	}
	n := split(l)
	if set, ok := n.Contingency(11); !ok || !reflect.DeepEqual(set, []rel.TupleID{13}) {
		t.Fatalf("Contingency(11) = (%v, %v), want ([13], true)", set, ok)
	}
	l = &layout{vertices: 7, edges: edges, protectSets: protectSets}
	checkAgainstWholeGraph(t, l, ids)
	n = split(l)
	for _, id := range ids {
		if _, ok := n.Contingency(id); ok {
			t.Fatalf("tuple %d is a cause next to an ∞ component", id)
		}
	}
}
