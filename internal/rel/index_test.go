package rel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// freshIndex builds a column's code index from scratch: the reference
// a maintained index must equal, bucket order included.
func freshIndex(r *Relation, col int) map[uint32][]int32 {
	idx := make(map[uint32][]int32)
	for row, code := range r.cols[col] {
		idx[code] = append(idx[code], int32(row))
	}
	return idx
}

// checkIndexes requires every built code index of every relation to
// equal a fresh rebuild.
func checkIndexes(t *testing.T, db *Database, step string) {
	t.Helper()
	for name, r := range db.Relations {
		tbl := r.index.Load()
		if tbl == nil {
			continue
		}
		for col, idx := range *tbl {
			if idx == nil {
				continue
			}
			if want := freshIndex(r, col); !reflect.DeepEqual(idx, want) {
				t.Fatalf("%s: %s column %d index\n  maintained %v\n  fresh      %v", step, name, col, idx, want)
			}
		}
	}
}

// TestIndexesMaintainedUnderMutation applies random Add/Delete/SetEndo
// sequences across relations with some columns indexed, indexing more
// columns along the way, and checks every built index against a fresh
// rebuild after every step.
func TestIndexesMaintainedUnderMutation(t *testing.T) {
	vals := []Value{"a", "b", "c", "d", "e"}
	arity := map[string]int{"R": 2, "S": 3, "T": 1}
	names := []string{"R", "S", "T"}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDatabase()
		add := func() {
			name := names[rng.Intn(len(names))]
			args := make([]Value, arity[name])
			for i := range args {
				args[i] = vals[rng.Intn(len(vals))]
			}
			db.MustAdd(name, rng.Intn(2) == 0, args...)
		}
		for i := 0; i < 15; i++ {
			add()
		}
		db.Relation("R").CodeIndex(1)
		db.Relation("S").CodeIndex(0)
		db.Relation("S").CodeIndex(2)
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				add()
			case op < 8:
				if db.NumLive() == 0 {
					add()
					break
				}
				for {
					id := TupleID(rng.Intn(db.NumTuples()))
					if db.Live(id) {
						if err := db.Delete(id); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
			case op < 9:
				db.SetEndo(TupleID(rng.Intn(db.NumTuples())), rng.Intn(2) == 0)
			default:
				// Index one more column mid-stream.
				name := names[rng.Intn(len(names))]
				if r := db.Relation(name); r != nil {
					r.CodeIndex(rng.Intn(r.Arity))
				}
			}
			checkIndexes(t, db, fmt.Sprintf("seed %d step %d", seed, step))
		}
	}
}

// TestDeleteKeepsIndexBucketsCompact: deleting the last row carrying a
// code drops the bucket, as a fresh build would never create it.
func TestDeleteKeepsIndexBucketsCompact(t *testing.T) {
	db := NewDatabase()
	a := db.MustAdd("R", true, "a", "x")
	db.MustAdd("R", true, "b", "x")
	r := db.Relation("R")
	idx := r.CodeIndex(0)
	if err := db.Delete(a); err != nil {
		t.Fatal(err)
	}
	code, _ := db.Dict().Code("a")
	if rows, ok := idx[code]; ok {
		t.Fatalf("bucket of a deleted code survives as %v", rows)
	}
	checkIndexes(t, db, "after delete")
}

// TestRenderWithoutAdapter: Render, RelName, AppendCodes and NumEndo
// answer straight from the code vectors, equal to the materialized
// Tuple forms for live and deleted tuples alike. (The name dates from
// the cached row adapter these readers used to bypass; the code vectors
// are now the only stored form.)
func TestRenderWithoutAdapter(t *testing.T) {
	db := NewDatabase()
	db.MustAdd("Movie", true, "526338", "Sweeney Todd")
	db.MustAdd("R", false, "a", "b")
	db.MustAdd("R", true, "a, b", "c")
	db.MustAdd("T", true, "z")
	db.MustAdd("R", true, "q", "q")
	if err := db.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(3); err != nil {
		t.Fatal(err)
	}
	db.MustAdd("T", false, "y")
	db.SetEndo(4, false)

	type forms struct {
		render, rel string
		codes       []uint32
	}
	got := make([]forms, db.NumTuples())
	for i := range got {
		id := TupleID(i)
		got[i] = forms{db.Render(id), db.RelName(id), db.AppendCodes(nil, id)}
	}
	numEndo := db.NumEndo()

	wantEndo := 0
	for i, g := range got {
		tup := db.Tuple(TupleID(i))
		var codes []uint32
		for _, v := range tup.Args {
			c, _ := db.Dict().Code(v)
			codes = append(codes, c)
		}
		want := forms{tup.String(), tup.Rel, codes}
		if !reflect.DeepEqual(g, want) {
			t.Errorf("tuple %d (live=%v): got %+v, Tuple says %+v", i, db.Live(TupleID(i)), g, want)
		}
		if tup.Endo {
			wantEndo++
		}
	}
	if numEndo != wantEndo {
		t.Errorf("NumEndo = %d, Tuple counts %d", numEndo, wantEndo)
	}
}
