package rel

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// example22DB builds the database of Example 2.2 of the paper:
// R = {(a1,a5),(a2,a1),(a3,a3),(a4,a3),(a4,a2)}, S = {a1,a2,a3,a4,a6},
// all tuples endogenous.
func example22DB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	for _, row := range [][2]Value{{"a1", "a5"}, {"a2", "a1"}, {"a3", "a3"}, {"a4", "a3"}, {"a4", "a2"}} {
		db.MustAdd("R", true, row[0], row[1])
	}
	for _, v := range []Value{"a1", "a2", "a3", "a4", "a6"} {
		db.MustAdd("S", true, v)
	}
	return db
}

func example22Query() *Query {
	// q(x) :- R(x,y), S(y)
	return &Query{
		Name: "q",
		Head: []Term{V("x")},
		Atoms: []Atom{
			NewAtom("R", V("x"), V("y")),
			NewAtom("S", V("y")),
		},
	}
}

func TestAddAndLookup(t *testing.T) {
	db := NewDatabase()
	id1 := db.MustAdd("R", true, "a", "b")
	id2 := db.MustAdd("R", false, "c", "d")
	if id1 == id2 {
		t.Fatalf("expected distinct ids, got %d twice", id1)
	}
	if got := db.Tuple(id1); got.Rel != "R" || got.Args[0] != "a" || !got.Endo {
		t.Errorf("Tuple(id1) = %v, want R^n(a,b)", got)
	}
	if got := db.Tuple(id2); got.Endo {
		t.Errorf("Tuple(id2) should be exogenous")
	}
	if db.NumTuples() != 2 {
		t.Errorf("NumTuples = %d, want 2", db.NumTuples())
	}
}

func TestAddArityMismatch(t *testing.T) {
	db := NewDatabase()
	db.MustAdd("R", true, "a", "b")
	if _, err := db.Add("R", true, "a"); err == nil {
		t.Fatal("expected arity error, got nil")
	}
}

func TestEndoIDsAndSetEndo(t *testing.T) {
	db := NewDatabase()
	a := db.MustAdd("R", true, "a")
	b := db.MustAdd("R", false, "b")
	ids := db.EndoIDs()
	if len(ids) != 1 || ids[0] != a {
		t.Fatalf("EndoIDs = %v, want [%d]", ids, a)
	}
	db.SetEndo(b, true)
	if got := len(db.EndoIDs()); got != 2 {
		t.Fatalf("after SetEndo, len(EndoIDs) = %d, want 2", got)
	}
}

func TestActiveDomain(t *testing.T) {
	db := example22DB(t)
	ad := db.ActiveDomain()
	want := []Value{"a1", "a2", "a3", "a4", "a5", "a6"}
	if len(ad) != len(want) {
		t.Fatalf("ActiveDomain = %v, want %v", ad, want)
	}
	for i := range want {
		if ad[i] != want[i] {
			t.Fatalf("ActiveDomain = %v, want %v", ad, want)
		}
	}
}

func TestClonePreservesIDsAndIndependence(t *testing.T) {
	db := example22DB(t)
	cp := db.Clone()
	if cp.NumTuples() != db.NumTuples() {
		t.Fatalf("clone has %d tuples, want %d", cp.NumTuples(), db.NumTuples())
	}
	for _, tup := range db.Tuples() {
		ct := cp.Tuple(tup.ID)
		if ct.Rel != tup.Rel || ct.Args[0] != tup.Args[0] {
			t.Fatalf("clone tuple %d mismatch: %v vs %v", tup.ID, ct, tup)
		}
	}
	cp.SetEndo(0, false)
	if !db.Tuple(0).Endo {
		t.Error("mutating clone affected original")
	}
}

func TestBindProducesBooleanQuery(t *testing.T) {
	q := example22Query()
	bq, err := q.Bind("a4")
	if err != nil {
		t.Fatal(err)
	}
	if !bq.IsBoolean() {
		t.Fatal("bound query should be Boolean")
	}
	if bq.Atoms[0].Terms[0].IsVar || bq.Atoms[0].Terms[0].Const != "a4" {
		t.Fatalf("x not substituted: %v", bq.Atoms[0])
	}
	db := example22DB(t)
	ok, err := HoldsNaive(db, bq)
	if err != nil || !ok {
		t.Fatalf("q[a4] should hold: ok=%v err=%v", ok, err)
	}
	bq2, _ := q.Bind("a1")
	ok, _ = HoldsNaive(db, bq2)
	if ok {
		t.Error("q[a1] should not hold (a5 not in S)")
	}
}

func TestBindArityError(t *testing.T) {
	q := example22Query()
	if _, err := q.Bind("a", "b"); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestValuationsWitnesses(t *testing.T) {
	db := example22DB(t)
	q := example22Query()
	bq, _ := q.Bind("a4")
	vals, err := EvalNaive(db, bq)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 {
		t.Fatalf("got %d valuations, want 2", len(vals))
	}
	for _, v := range vals {
		if len(v.Witness) != 2 {
			t.Fatalf("witness len = %d, want 2", len(v.Witness))
		}
		rt := db.Tuple(v.Witness[0])
		st := db.Tuple(v.Witness[1])
		if rt.Rel != "R" || st.Rel != "S" {
			t.Fatalf("witnesses in wrong order: %v %v", rt, st)
		}
		if rt.Args[1] != st.Args[0] {
			t.Errorf("join key mismatch: %v vs %v", rt, st)
		}
	}
}

func TestValuationsConstantsAndRepeatedVars(t *testing.T) {
	db := NewDatabase()
	db.MustAdd("R", true, "a3", "a3")
	db.MustAdd("R", true, "a4", "a3")
	db.MustAdd("R", true, "a4", "a2")
	// q :- R(x,x): only (a3,a3) matches.
	q := NewBoolean(NewAtom("R", V("x"), V("x")))
	vals, err := EvalNaive(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || !witnessesAgree(db, q, vals[0]) || db.Tuple(vals[0].Witness[0]).Args[0] != "a3" {
		t.Fatalf("R(x,x) valuations = %v", vals)
	}
	// q :- R(x,'a3'): two matches.
	q2 := NewBoolean(NewAtom("R", V("x"), C("a3")))
	vals2, _ := EvalNaive(db, q2)
	if len(vals2) != 2 {
		t.Fatalf("R(x,'a3') has %d valuations, want 2", len(vals2))
	}
	for _, v := range vals2 {
		if !witnessesAgree(db, q2, v) {
			t.Errorf("R(x,'a3') witness %v does not carry the constant", v.Witness)
		}
	}
}

func TestHoldsMissingRelation(t *testing.T) {
	db := NewDatabase()
	db.MustAdd("R", true, "a")
	q := NewBoolean(NewAtom("R", V("x")), NewAtom("Missing", V("x")))
	ok, err := HoldsNaive(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("query over missing relation should be false")
	}
}

func TestHoldsWithout(t *testing.T) {
	db := example22DB(t)
	q := example22Query()
	bq, _ := q.Bind("a2")
	// S(a1) is the only way to satisfy q[a2]; removing it kills the answer.
	var sa1 TupleID = -1
	for _, tup := range db.Tuples() {
		if tup.Rel == "S" && tup.Args[0] == "a1" {
			sa1 = tup.ID
		}
	}
	ok, err := HoldsWithoutNaive(db, bq, map[TupleID]bool{sa1: true})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("q[a2] should be false without S(a1)")
	}
	ok, _ = HoldsWithoutNaive(db, bq, nil)
	if !ok {
		t.Error("q[a2] should hold with no removals")
	}
}

func TestHasSelfJoin(t *testing.T) {
	q := NewBoolean(NewAtom("R", V("x")), NewAtom("S", V("x"), V("y")), NewAtom("R", V("y")))
	if !q.HasSelfJoin() {
		t.Error("expected self-join")
	}
	q2 := example22Query()
	if q2.HasSelfJoin() {
		t.Error("unexpected self-join")
	}
}

func TestQueryStringAndVars(t *testing.T) {
	q := example22Query()
	s := q.String()
	if !strings.Contains(s, "R(x,y)") || !strings.Contains(s, "S(y)") {
		t.Errorf("String() = %q", s)
	}
	vars := q.Vars()
	sort.Strings(vars)
	if len(vars) != 2 || vars[0] != "x" || vars[1] != "y" {
		t.Errorf("Vars() = %v", vars)
	}
}

func TestValidate(t *testing.T) {
	db := example22DB(t)
	bad := &Query{Name: "q", Head: []Term{V("z")}, Atoms: []Atom{NewAtom("R", V("x"), V("y"))}}
	if err := bad.Validate(db); err == nil {
		t.Error("expected head-variable error")
	}
	bad2 := NewBoolean(NewAtom("S", V("x"), V("y")))
	if err := bad2.Validate(db); err == nil {
		t.Error("expected arity error")
	}
}

func TestTupleString(t *testing.T) {
	db := NewDatabase()
	id := db.MustAdd("Movie", true, "526338", "Sweeney Todd")
	if got := db.Tuple(id).String(); got != "Movie^n(526338,Sweeney Todd)" {
		t.Errorf("String = %q", got)
	}
}

// TestConcurrentCodeIndexBuild: two evaluators sharing one frozen
// database may race to build the same lazy column index. Under -race
// this pins the copy-on-write publication in ensureIndex; functionally,
// every goroutine must observe the identical index.
func TestConcurrentCodeIndexBuild(t *testing.T) {
	db := NewDatabase()
	for i := 0; i < 200; i++ {
		db.MustAdd("R", i%3 == 0, Value(fmt.Sprintf("a%d", i%17)), Value(fmt.Sprintf("b%d", i%5)))
	}
	r := db.Relation("R")
	const goroutines = 8
	results := make([][]map[uint32][]int32, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Interleave column order so builders collide on both columns.
			if g%2 == 0 {
				results[g] = []map[uint32][]int32{r.CodeIndex(0), r.CodeIndex(1)}
			} else {
				idx1 := r.CodeIndex(1)
				results[g] = []map[uint32][]int32{r.CodeIndex(0), idx1}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for col := 0; col < 2; col++ {
			a, b := results[0][col], results[g][col]
			if len(a) != len(b) {
				t.Fatalf("goroutine %d col %d: %d codes vs %d", g, col, len(b), len(a))
			}
			for code, rows := range a {
				brows := b[code]
				if len(rows) != len(brows) {
					t.Fatalf("goroutine %d col %d code %d: row counts differ", g, col, code)
				}
				for i := range rows {
					if rows[i] != brows[i] {
						t.Fatalf("goroutine %d col %d code %d: rows differ at %d", g, col, code, i)
					}
				}
			}
		}
	}
}

// TestConcurrentReaders: Tuple, Tuples, Render, EvalNaive and the first
// probe of each code index run at once on one database, which must
// answer every goroutine as it answers a lone reader.
func TestConcurrentReaders(t *testing.T) {
	db := NewDatabase()
	for i := 0; i < 50; i++ {
		db.MustAdd("R", i%3 == 0, Value(fmt.Sprintf("x%d", i%7)), Value(fmt.Sprintf("y%d", i%11)))
		db.MustAdd("S", i%2 == 0, Value(fmt.Sprintf("y%d", i%11)), Value(fmt.Sprintf("z%d", i%5)))
	}
	if err := db.Delete(4); err != nil {
		t.Fatal(err)
	}
	q := NewBoolean(NewAtom("R", V("x"), V("y")), NewAtom("S", V("y"), V("z")))
	// The reference answers come from a clone, so the shared database's
	// code indexes are still unbuilt when the goroutines start.
	ref := db.Clone()
	wantVals, err := EvalNaive(ref, q)
	if err != nil {
		t.Fatal(err)
	}
	wantRender := make([]string, ref.NumTuples())
	for i := range wantRender {
		wantRender[i] = ref.Render(TupleID(i))
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, name := range []string{"R", "S"} {
				r := db.Relation(name)
				if idx := r.CodeIndex(g % r.Arity); len(idx) == 0 {
					t.Errorf("goroutine %d: %s column %d index is empty", g, name, g%r.Arity)
				}
			}
			vals, err := EvalNaive(db, q)
			if err != nil || !reflect.DeepEqual(vals, wantVals) {
				t.Errorf("goroutine %d: EvalNaive gave %d valuations (%v), want %d", g, len(vals), err, len(wantVals))
			}
			all := db.Tuples()
			for i, want := range wantRender {
				id := TupleID(i)
				if db.Render(id) != want || db.Tuple(id).String() != want || all[i].String() != want {
					t.Errorf("goroutine %d: tuple %d does not render %q", g, id, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
