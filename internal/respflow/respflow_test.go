package respflow

import (
	"math/rand"
	"testing"

	"github.com/querycause/querycause/internal/exact"
	"github.com/querycause/querycause/internal/lineage"
	"github.com/querycause/querycause/internal/ra"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/rewrite"
	"github.com/querycause/querycause/internal/shape"
)

// endoByRelation returns the shape flag function: a relation is
// endogenous if any of its tuples is.
func endoByRelation(db *rel.Database) func(string) bool {
	return func(name string) bool {
		r := db.Relation(name)
		return r != nil && r.HasEndo()
	}
}

// buildNet classifies q under the sound rule and builds the network from
// the certificate.
func buildNet(t *testing.T, db *rel.Database, q *rel.Query) *Network {
	t.Helper()
	s := shape.FromQuery(q, endoByRelation(db))
	cert, err := rewrite.ClassifySound(s)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Class.PTime() {
		t.Fatalf("query %v classified %v; flow inapplicable", q, cert.Class)
	}
	ws, order, err := cert.Replay()
	if err != nil {
		t.Fatal(err)
	}
	net, err := Build(db, q, ws, order)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// checkAgainstBruteForce compares flow results with the subset oracle
// for every endogenous tuple.
func checkAgainstBruteForce(t *testing.T, db *rel.Database, q *rel.Query) {
	t.Helper()
	net := buildNet(t, db, q)
	n, err := lineage.NLineageOf(db, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range db.EndoIDs() {
		got, gotOK := net.MinContingency(id)
		want, wantOK := exact.BruteForceMinContingency(n, id)
		if n.True {
			wantOK = false
		}
		if gotOK != wantOK || (gotOK && got != want) {
			t.Errorf("tuple %v: flow=(%d,%v) brute=(%d,%v)\nquery %v\ndb:\n%v",
				db.Tuple(id), got, gotOK, want, wantOK, q, db)
		}
	}
}

// TestFig4Construction reproduces Example 4.2 / Figure 4: the flow
// network for q :- R(x,y),S(y,z) with both relations endogenous.
func TestFig4Construction(t *testing.T) {
	db := rel.NewDatabase()
	// R: x1 joins y2; x2,x3 join y1; S: y2 reaches z1,z2; y1 reaches z1.
	rx1 := db.MustAdd("R", true, "x1", "y2")
	db.MustAdd("R", true, "x2", "y1")
	db.MustAdd("R", true, "x3", "y1")
	db.MustAdd("S", true, "y2", "z1")
	db.MustAdd("S", true, "y2", "z2")
	db.MustAdd("S", true, "y1", "z1")
	q := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("z")),
	)
	net := buildNet(t, db, q)
	_, tupleEdges := net.Stats()
	if tupleEdges != 6 {
		t.Errorf("tuple edges = %d, want 6", tupleEdges)
	}
	// t = R(x1,y2): protecting either of its two paths forces cutting
	// S(y2,z2) resp. S(y2,z1) — both size 1... actually protecting path
	// (x1,y2,z1) leaves S(y2,z2) to cut plus the y1 side must die:
	// R(x2,y1),R(x3,y1) or S(y1,z1). Min over paths computed below must
	// match brute force; also sanity-check the value.
	size, ok := net.MinContingency(rx1)
	if !ok {
		t.Fatal("R(x1,y2) must be a cause")
	}
	n, _ := lineage.NLineageOf(db, q)
	want, _ := exact.BruteForceMinContingency(n, rx1)
	if size != want {
		t.Errorf("min contingency = %d, want %d", size, want)
	}
	checkAgainstBruteForce(t, db, q)
}

// TestExample2_2Answer4 checks q[a4] :- R(a4,y),S(y) responsibilities:
// both S(a3) and S(a2) have ρ = 1/2 (contingency = the other S tuple),
// and the R tuples similarly.
func TestExample2_2Answer4(t *testing.T) {
	db := rel.NewDatabase()
	for _, row := range [][2]rel.Value{{"a1", "a5"}, {"a2", "a1"}, {"a3", "a3"}, {"a4", "a3"}, {"a4", "a2"}} {
		db.MustAdd("R", true, row[0], row[1])
	}
	sIDs := make(map[rel.Value]rel.TupleID)
	for _, v := range []rel.Value{"a1", "a2", "a3", "a4", "a6"} {
		sIDs[v] = db.MustAdd("S", true, v)
	}
	q := rel.NewBoolean(rel.NewAtom("R", rel.C("a4"), rel.V("y")), rel.NewAtom("S", rel.V("y")))
	net := buildNet(t, db, q)
	if rho := net.Responsibility(sIDs["a3"]); rho != 0.5 {
		t.Errorf("ρ(S(a3)) = %v, want 0.5", rho)
	}
	if rho := net.Responsibility(sIDs["a1"]); rho != 0 {
		t.Errorf("ρ(S(a1)) = %v, want 0 (not in lineage of a4)", rho)
	}
	checkAgainstBruteForce(t, db, q)
}

// TestCounterfactualViaFlow: a single-valuation query makes every tuple
// on it counterfactual (ρ = 1).
func TestCounterfactualViaFlow(t *testing.T) {
	db := rel.NewDatabase()
	r := db.MustAdd("R", true, "a", "b")
	s := db.MustAdd("S", true, "b", "c")
	q := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("z")),
	)
	net := buildNet(t, db, q)
	for _, id := range []rel.TupleID{r, s} {
		if rho := net.Responsibility(id); rho != 1 {
			t.Errorf("ρ(%v) = %v, want 1", db.Tuple(id), rho)
		}
	}
}

// TestRedundantTupleNotACause rebuilds Example 3.3 and checks the flow
// algorithm agrees that R(a3,a3) has ρ = 0 when R(a4,a3) is exogenous
// (its only conjunct is redundant).
func TestRedundantTupleNotACause(t *testing.T) {
	db := rel.NewDatabase()
	ra33 := db.MustAdd("R", true, "a3", "a3")
	db.MustAdd("R", false, "a4", "a3")
	sa3 := db.MustAdd("S", true, "a3")
	q := rel.NewBoolean(rel.NewAtom("R", rel.V("x"), rel.C("a3")), rel.NewAtom("S", rel.C("a3")))
	net := buildNet(t, db, q)
	if rho := net.Responsibility(ra33); rho != 0 {
		t.Errorf("ρ(R(a3,a3)) = %v, want 0 (redundant conjunct)", rho)
	}
	if rho := net.Responsibility(sa3); rho != 1 {
		t.Errorf("ρ(S(a3)) = %v, want 1 (counterfactual)", rho)
	}
}

// TestDissociationWeakenedQuery exercises Example 4.12a:
// Rⁿ(x,y), Sˣ(y,z), Tⁿ(z,x) is weakly linear by dissociating S; flow
// results must match brute force on random instances.
func TestDissociationWeakenedQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("z")),
		rel.NewAtom("T", rel.V("z"), rel.V("x")),
	)
	for trial := 0; trial < 40; trial++ {
		db := rel.NewDatabase()
		dom := []rel.Value{"0", "1", "2"}
		for i := 0; i < 6; i++ {
			db.MustAdd("R", true, dom[rng.Intn(3)], dom[rng.Intn(3)])
		}
		for i := 0; i < 6; i++ {
			db.MustAdd("S", false, dom[rng.Intn(3)], dom[rng.Intn(3)])
		}
		for i := 0; i < 6; i++ {
			db.MustAdd("T", true, dom[rng.Intn(3)], dom[rng.Intn(3)])
		}
		ok, err := ra.Holds(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		checkAgainstBruteForce(t, db, q)
	}
}

// TestChainQueryRandom fuzzes the three-atom chain R(x,y),S(y,z),T(z,w)
// with mixed endogenous/exogenous tuples inside each relation.
func TestChainQueryRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("z")),
		rel.NewAtom("T", rel.V("z"), rel.V("w")),
	)
	for trial := 0; trial < 40; trial++ {
		db := rel.NewDatabase()
		dom := []rel.Value{"0", "1", "2"}
		for _, relName := range []string{"R", "S", "T"} {
			for i := 0; i < 5; i++ {
				db.MustAdd(relName, rng.Intn(4) != 0, dom[rng.Intn(3)], dom[rng.Intn(3)])
			}
		}
		ok, err := ra.Holds(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		checkAgainstBruteForce(t, db, q)
	}
}

// TestSingleAtomQuery: q :- R('a',y); the minimum contingency for
// R(a,b) is all other matching tuples.
func TestSingleAtomQuery(t *testing.T) {
	db := rel.NewDatabase()
	rab := db.MustAdd("R", true, "a", "b")
	db.MustAdd("R", true, "a", "c")
	db.MustAdd("R", true, "a", "d")
	db.MustAdd("R", true, "z", "q") // does not match
	q := rel.NewBoolean(rel.NewAtom("R", rel.C("a"), rel.V("y")))
	net := buildNet(t, db, q)
	size, ok := net.MinContingency(rab)
	if !ok || size != 2 {
		t.Fatalf("size=%d ok=%v, want 2 (remove the two other matching tuples)", size, ok)
	}
}

func TestBuildValidation(t *testing.T) {
	db := rel.NewDatabase()
	db.MustAdd("R", true, "a", "b")
	db.MustAdd("S", true, "b", "c")
	q := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("z")),
	)
	s := shape.FromQuery(q, endoByRelation(db))
	if _, err := Build(db, q, s, []int{0}); err == nil {
		t.Error("expected order-length error")
	}
	if _, err := Build(db, q, s, []int{0, 0}); err == nil {
		t.Error("expected duplicate-order error")
	}
	// Non-consecutive order for a triangle shape must error.
	q3 := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("z")),
		rel.NewAtom("T", rel.V("z"), rel.V("x")),
	)
	db.MustAdd("T", true, "c", "a")
	s3 := shape.FromQuery(q3, endoByRelation(db))
	if _, err := Build(db, q3, s3, []int{0, 1, 2}); err == nil {
		t.Error("expected consecutiveness error for triangle")
	}
	// Shape/atom count mismatch.
	if _, err := Build(db, q3, s, []int{0, 1}); err == nil {
		t.Error("expected atom-count mismatch error")
	}
	// A shape joining on a variable the query does not have.
	extra := s.Clone()
	extra.Atoms[0].Vars = append(extra.Atoms[0].Vars, 3)
	extra.Atoms[1].Vars = append(extra.Atoms[1].Vars, 3)
	if _, err := Build(db, q, extra, []int{0, 1}); err == nil {
		t.Error("expected unknown-variable error")
	}
}

// TestMixedEndoExoWithinRelation: exogenous tuples inside an endogenous
// relation act as uncuttable edges.
func TestMixedEndoExoWithinRelation(t *testing.T) {
	db := rel.NewDatabase()
	ra := db.MustAdd("R", true, "a", "b")
	db.MustAdd("R", false, "a2", "b") // exogenous alternative
	db.MustAdd("S", true, "b", "c")
	sbc := rel.TupleID(2)
	q := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("z")),
	)
	net := buildNet(t, db, q)
	// R(a,b)'s conjunct {R(a,b),S(b,c)} is redundant? No: the other
	// conjunct is {S(b,c)} (R(a2,b) exogenous) which is a strict subset,
	// so R(a,b) is NOT a cause.
	if rho := net.Responsibility(ra); rho != 0 {
		t.Errorf("ρ(R(a,b)) = %v, want 0", rho)
	}
	// S(b,c) is counterfactual.
	if rho := net.Responsibility(sbc); rho != 1 {
		t.Errorf("ρ(S(b,c)) = %v, want 1", rho)
	}
	checkAgainstBruteForce(t, db, q)
}

// TestTwoVariableInterface: R(x,y), S(x,y,z), T(z) meets its first
// interface on two variables, so those vertices are keyed by a pair of
// codes. The network has s, t and one vertex per distinct projection of
// a valuation on each interface, and every contingency it finds is a
// minimum one.
func TestTwoVariableInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("x"), rel.V("y"), rel.V("z")),
		rel.NewAtom("T", rel.V("z")),
	)
	ws := shape.FromQuery(q, func(string) bool { return true })
	dom := []rel.Value{"0", "1", "2"}
	v := func() rel.Value { return dom[rng.Intn(len(dom))] }
	built := 0
	for trial := 0; trial < 40; trial++ {
		db := rel.NewDatabase()
		for i := 0; i < 6; i++ {
			db.MustAdd("R", rng.Intn(4) != 0, v(), v())
		}
		for i := 0; i < 8; i++ {
			db.MustAdd("S", rng.Intn(4) != 0, v(), v(), v())
		}
		for i := 0; i < 3; i++ {
			db.MustAdd("T", rng.Intn(4) != 0, v())
		}
		vals, err := ra.Valuations(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) == 0 {
			continue
		}
		net, err := Build(db, q, ws, []int{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		built++
		xy := make(map[[2]rel.Value]bool)
		z := make(map[rel.Value]bool)
		for _, val := range vals {
			r := db.Tuple(val.Witness[0]).Args
			xy[[2]rel.Value{r[0], r[1]}] = true
			z[db.Tuple(val.Witness[2]).Args[0]] = true
		}
		if got, _ := net.Stats(); got != 2+len(xy)+len(z) {
			t.Errorf("trial %d: %d vertices, want 2 + %d (x,y) + %d z\ndb:\n%v", trial, got, len(xy), len(z), db)
		}
		n, err := lineage.NLineageOf(db, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range db.EndoIDs() {
			got, gotOK := net.Contingency(id)
			want, wantOK := exact.MinContingencySet(n, id)
			if n.True {
				wantOK = false
			}
			if gotOK != wantOK || len(got) != len(want) {
				t.Errorf("trial %d, tuple %v: flow %v (%v), exact %v (%v)\ndb:\n%v", trial, db.Tuple(id), got, gotOK, want, wantOK, db)
				continue
			}
			if !gotOK {
				continue
			}
			removed := make(map[rel.TupleID]bool)
			for _, g := range got {
				removed[g] = true
			}
			on, _ := ra.HoldsWithout(db, q, removed)
			removed[id] = true
			off, _ := ra.HoldsWithout(db, q, removed)
			if !on || off {
				t.Errorf("trial %d, tuple %v: %v is no contingency (holds without it: %v, also without the tuple: %v)", trial, db.Tuple(id), got, on, off)
			}
		}
	}
	if built == 0 {
		t.Fatal("no instance satisfied the query")
	}
}
