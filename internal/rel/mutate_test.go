package rel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func TestDeleteBasics(t *testing.T) {
	db := example22DB(t)
	n := db.NumTuples()
	if got := db.Version(); got != uint64(n) {
		t.Fatalf("Version after %d adds = %d", n, got)
	}

	// Delete a middle row of R: R(a3,a3) has ID 2.
	victim := db.Tuple(2)
	if victim.Rel != "R" || victim.Args[0] != "a3" {
		t.Fatalf("tuple 2 = %v, want R(a3,a3)", victim)
	}
	if err := db.Delete(2); err != nil {
		t.Fatalf("Delete(2): %v", err)
	}
	if db.Live(2) {
		t.Error("Live(2) true after delete")
	}
	if db.NumTuples() != n {
		t.Errorf("NumTuples shrank to %d; the ID space must not shrink", db.NumTuples())
	}
	if db.NumLive() != n-1 {
		t.Errorf("NumLive = %d, want %d", db.NumLive(), n-1)
	}
	if got := db.Version(); got != uint64(n+1) {
		t.Errorf("Version after delete = %d, want %d", got, n+1)
	}

	// The husk still renders, exogenous.
	husk := db.Tuple(2)
	if husk.Rel != "R" || husk.Args[0] != "a3" || husk.Endo {
		t.Errorf("husk = %v, want exogenous R(a3,a3)", husk)
	}

	// The relation's rows and refs re-align after the shift.
	r := db.Relation("R")
	if r.Len() != 4 {
		t.Fatalf("R.Len = %d, want 4", r.Len())
	}
	for row, id := range r.RowIDs() {
		if got := db.Tuple(id); got.Rel != "R" || got.ID != id {
			t.Fatalf("row %d id %d resolves to %v (ID %d)", row, id, got, got.ID)
		}
	}
	// Shifted tuples keep their columnar data intact.
	if got := db.Tuple(3); got.Args[0] != "a4" || got.Args[1] != "a3" {
		t.Errorf("Tuple(3) = %v, want R(a4,a3)", got)
	}

	// Deleted IDs drop out of the endogenous set.
	for _, id := range db.EndoIDs() {
		if id == 2 {
			t.Error("EndoIDs still lists deleted tuple 2")
		}
	}
	// And stay exogenous even through SetEndo.
	db.SetEndo(2, true)
	if db.Endo(2) || db.Tuple(2).Endo {
		t.Error("SetEndo revived a deleted tuple")
	}
}

func TestDeleteErrors(t *testing.T) {
	db := example22DB(t)
	if err := db.Delete(99); err == nil {
		t.Error("Delete(99) succeeded on out-of-range ID")
	}
	if err := db.Delete(-1); err == nil {
		t.Error("Delete(-1) succeeded")
	}
	if err := db.Delete(0); err != nil {
		t.Fatalf("Delete(0): %v", err)
	}
	if err := db.Delete(0); err == nil {
		t.Error("double Delete(0) succeeded")
	}
}

func TestDeleteEvaluation(t *testing.T) {
	db := example22DB(t)
	q := example22Query()
	before, err := EvalNaive(db, q)
	if err != nil || len(before) == 0 {
		t.Fatalf("query has no answers before delete (%v)", err)
	}
	// Kill every S tuple: the join must go empty.
	for _, id := range append([]TupleID(nil), db.Relation("S").RowIDs()...) {
		if err := db.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
	}
	if got, err := EvalNaive(db, q); err != nil || len(got) != 0 {
		t.Fatalf("answers after deleting all of S: %v (%v)", got, err)
	}
	if db.Relation("S").Len() != 0 {
		t.Errorf("S.Len = %d, want 0", db.Relation("S").Len())
	}
	if db.Relation("S").HasEndo() {
		t.Error("empty S still reports HasEndo")
	}
}

// TestMutationReplayIdentity is the core metamorphic property the whole
// PR builds on: replaying the same add/delete sequence into a fresh
// database reproduces dictionary, columns, IDs, endo flags, and
// version bit-for-bit.
func TestMutationReplayIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type add struct {
		rel  string
		endo bool
		args []Value
	}
	var adds []add
	var deletes []TupleID

	db := NewDatabase()
	rels := []string{"R", "S", "T"}
	for i := 0; i < 200; i++ {
		if rng.Intn(4) == 0 && db.NumLive() > 0 {
			// Delete a random live tuple.
			for {
				id := TupleID(rng.Intn(db.NumTuples()))
				if db.Live(id) {
					if err := db.Delete(id); err != nil {
						t.Fatal(err)
					}
					deletes = append(deletes, id)
					break
				}
			}
			continue
		}
		name := rels[rng.Intn(len(rels))]
		var args []Value
		n := 2
		if name == "S" {
			n = 1
		}
		for j := 0; j < n; j++ {
			args = append(args, Value(string(rune('a'+rng.Intn(8)))))
		}
		endo := rng.Intn(2) == 0
		db.MustAdd(name, endo, args...)
		adds = append(adds, add{name, endo, args})
	}

	// Cold rebuild: all adds in ID order, then the deletes.
	cold := NewDatabase()
	for _, a := range adds {
		cold.MustAdd(a.rel, a.endo, a.args...)
	}
	for _, id := range deletes {
		if err := cold.Delete(id); err != nil {
			t.Fatalf("cold Delete(%d): %v", id, err)
		}
	}

	if db.Version() != cold.Version() {
		t.Fatalf("version: incremental %d, cold %d", db.Version(), cold.Version())
	}
	if !reflect.DeepEqual(db.dict.vals, cold.dict.vals) {
		t.Fatalf("dictionaries differ:\n%v\n%v", db.dict.vals, cold.dict.vals)
	}
	for name, r := range db.Relations {
		cr := cold.Relation(name)
		if cr == nil {
			t.Fatalf("cold rebuild lost relation %s", name)
		}
		if !reflect.DeepEqual(r.rowIDs, cr.rowIDs) {
			t.Fatalf("%s rowIDs differ:\n%v\n%v", name, r.rowIDs, cr.rowIDs)
		}
		if !reflect.DeepEqual(r.cols, cr.cols) {
			t.Fatalf("%s columns differ", name)
		}
	}
	if !reflect.DeepEqual(db.endo, cold.endo) {
		t.Fatal("endo vectors differ")
	}
	for id := 0; id < db.NumTuples(); id++ {
		if db.Live(TupleID(id)) != cold.Live(TupleID(id)) {
			t.Fatalf("liveness of %d differs", id)
		}
		a, b := db.Tuple(TupleID(id)), cold.Tuple(TupleID(id))
		if a.Rel != b.Rel || !reflect.DeepEqual(a.Args, b.Args) || a.Endo != b.Endo {
			t.Fatalf("tuple %d differs: %v vs %v", id, a, b)
		}
	}
}

func TestCloneCarriesDeletions(t *testing.T) {
	db := example22DB(t)
	if err := db.Delete(1); err != nil {
		t.Fatal(err)
	}
	cl := db.Clone()
	if cl.Live(1) {
		t.Error("clone revived deleted tuple")
	}
	if cl.Version() != db.Version() {
		t.Errorf("clone version %d != %d", cl.Version(), db.Version())
	}
	if got := cl.Tuple(1); got.Rel != "R" || got.Endo {
		t.Errorf("clone husk = %v", got)
	}
	// Clone is deep: mutating the clone leaves the original alone.
	if err := cl.Delete(0); err != nil {
		t.Fatal(err)
	}
	if !db.Live(0) {
		t.Error("clone delete leaked into original")
	}
}

// TestDeleteKeepsAdapterPointers: after a Delete the tuple's ID still
// resolves, to the exogenous husk of its row (same ID, relation and
// arguments), while a copy taken before the delete keeps what it read;
// adds after a delete keep extending the ID space. (The name dates from
// the cached row adapter, whose *Tuple a Delete used to reuse; Tuple and
// Tuples now build fresh copies.)
func TestDeleteKeepsAdapterPointers(t *testing.T) {
	db := example22DB(t)
	before := db.Tuples()
	p := before[2]
	kept := *p
	if err := db.Delete(2); err != nil {
		t.Fatal(err)
	}
	husk := db.Tuples()[2]
	if husk.ID != 2 || husk.Rel != p.Rel || !reflect.DeepEqual(husk.Args, p.Args) {
		t.Errorf("husk = %+v, want the row of %+v", husk, p)
	}
	if husk.Endo {
		t.Error("husk still flagged endogenous")
	}
	if !reflect.DeepEqual(*p, kept) || !p.Endo {
		t.Errorf("delete changed a copy taken before it: %+v", p)
	}
	// Adding after a delete keeps extending the same ID space.
	n := db.NumTuples()
	id := db.MustAdd("R", true, "z1", "z2")
	if got := db.Tuple(id); int(id) != n || got.Args[0] != "z1" {
		t.Fatalf("post-delete add = %v (id %d, want %d)", got, id, n)
	}
	if got := db.Render(2); got != husk.String() {
		t.Errorf("husk renders %q after the add, want %q", got, husk.String())
	}
}

// TestTupleRenderAgree applies seeded random inserts, deletes and endo
// flips, then checks that every tuple ID, live or deleted, reads the
// same through Tuple, Tuples, Render, RelName, AppendCodes and Endo (a
// deleted one as the exogenous husk of its last row), on the database
// and again on its clone.
func TestTupleRenderAgree(t *testing.T) {
	vals := []Value{"a", "b", "a, b", "Sweeney Todd", ""}
	arity := map[string]int{"R": 2, "S": 1, "T": 3}
	names := []string{"R", "S", "T"}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDatabase()
		husks := make(map[TupleID]string)
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 3 && db.NumLive() > 0:
				id := TupleID(rng.Intn(db.NumTuples()))
				for !db.Live(id) {
					id = TupleID(rng.Intn(db.NumTuples()))
				}
				husk := *db.Tuple(id)
				husk.Endo = false
				husks[id] = husk.String()
				if err := db.Delete(id); err != nil {
					t.Fatal(err)
				}
			case op < 4 && db.NumTuples() > 0:
				db.SetEndo(TupleID(rng.Intn(db.NumTuples())), rng.Intn(2) == 0)
			default:
				name := names[rng.Intn(len(names))]
				args := make([]Value, arity[name])
				for i := range args {
					args[i] = vals[rng.Intn(len(vals))]
				}
				db.MustAdd(name, rng.Intn(2) == 0, args...)
			}
		}
		checkTupleForms(t, db, husks, fmt.Sprintf("seed %d", seed))
		checkTupleForms(t, db.Clone(), husks, fmt.Sprintf("seed %d clone", seed))
	}
}

func checkTupleForms(t *testing.T, db *Database, husks map[TupleID]string, what string) {
	t.Helper()
	all := db.Tuples()
	if len(all) != db.NumTuples() {
		t.Fatalf("%s: Tuples has %d entries for %d ids", what, len(all), db.NumTuples())
	}
	numEndo := 0
	for i := range all {
		id := TupleID(i)
		tup := db.Tuple(id)
		rendered := db.Render(id)
		if !reflect.DeepEqual(tup, all[i]) || tup.ID != id {
			t.Fatalf("%s: Tuple(%d) = %+v, Tuples()[%d] = %+v", what, id, tup, i, all[i])
		}
		if rendered != tup.String() {
			t.Fatalf("%s: Render(%d) = %q, Tuple(%d).String() = %q", what, id, rendered, id, tup.String())
		}
		if tup.Endo != db.Endo(id) || tup.Rel != db.RelName(id) {
			t.Fatalf("%s: tuple %d: Tuple says %s endo=%v, database says %s endo=%v", what, id, tup.Rel, tup.Endo, db.RelName(id), db.Endo(id))
		}
		var codes []uint32
		for _, v := range tup.Args {
			c, _ := db.Dict().Code(v)
			codes = append(codes, c)
		}
		if got := db.AppendCodes(nil, id); !reflect.DeepEqual(got, codes) {
			t.Fatalf("%s: AppendCodes(%d) = %v, Tuple's args intern to %v", what, id, got, codes)
		}
		if want, dead := husks[id]; dead != !db.Live(id) {
			t.Fatalf("%s: tuple %d: deleted=%v but Live=%v", what, id, dead, db.Live(id))
		} else if dead && rendered != want {
			t.Fatalf("%s: husk %d renders %q, want %q", what, id, rendered, want)
		}
		if tup.Endo {
			numEndo++
		}
		// A returned tuple is a copy: changing it leaves the database alone.
		tup.Endo, tup.Rel = !tup.Endo, "Changed"
		if got := db.Render(id); got != rendered {
			t.Fatalf("%s: editing Tuple(%d) changed Render to %q", what, id, got)
		}
	}
	if numEndo != db.NumEndo() {
		t.Fatalf("%s: NumEndo = %d, Tuple counts %d", what, db.NumEndo(), numEndo)
	}
}
