package persist

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"github.com/querycause/querycause/internal/parser"
	"github.com/querycause/querycause/internal/rel"
)

// TestRoundTripWithDeletions checks a mutated database snapshots and
// restores bit-for-bit: deleted IDs stay deleted, the ID space and
// dictionary keep their gaps, and the version carries over.
func TestRoundTripWithDeletions(t *testing.T) {
	db := testDB(t)
	id := db.MustAdd("S", true, "zz") // value only this tuple interns
	if err := db.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(0); err != nil { // R(a,b)
		t.Fatal(err)
	}

	snap := &Snapshot{ID: "d1"}
	snap.SetDatabase(db)
	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Database()
	if err != nil {
		t.Fatal(err)
	}
	assertSameDatabase(t, db, got)
	if got.Live(0) || got.Live(id) {
		t.Fatal("restore revived deleted tuples")
	}
	if got.Version() != db.Version() || back.Version() != db.Version() {
		t.Fatalf("version: want %d, got %d (snapshot reports %d)", db.Version(), got.Version(), back.Version())
	}
	if got.NumLive() != db.NumLive() {
		t.Fatalf("live count: want %d, got %d", db.NumLive(), got.NumLive())
	}
	// The husk's dictionary value survived the replay (codes stay stable).
	if _, ok := got.Dict().Code(rel.Value("zz")); !ok {
		t.Fatal("dictionary lost the deleted tuple's value")
	}
}

// v1Tuple and v1Snapshot are the payload types of a version 1
// snapshot, written before the Deleted flag existed.
type v1Tuple struct {
	Rel  int32
	Endo bool
	Args []uint32
}

type v1Snapshot struct {
	ID        string
	Values    []string
	Relations []string
	Tuples    []v1Tuple
}

// TestDecodeAcceptsV1 checks this binary still reads version-1
// snapshots: Decode turns their per-tuple list into columns, and the
// bulk load restores the database the list was written from.
func TestDecodeAcceptsV1(t *testing.T) {
	db, err := parser.ParseDatabase(strings.NewReader(dbText))
	if err != nil {
		t.Fatal(err)
	}
	old := v1Snapshot{ID: "d1"}
	for c := range db.Dict().Len() {
		old.Values = append(old.Values, string(db.Dict().Value(uint32(c))))
	}
	relIdx := make(map[string]int32)
	for id := range db.NumTuples() {
		name := db.RelName(rel.TupleID(id))
		ri, ok := relIdx[name]
		if !ok {
			ri = int32(len(old.Relations))
			relIdx[name] = ri
			old.Relations = append(old.Relations, name)
		}
		old.Tuples = append(old.Tuples, v1Tuple{Rel: ri, Endo: db.Endo(rel.TupleID(id)), Args: db.AppendCodes(nil, rel.TupleID(id))})
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(old); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(frame(1, payload.Bytes()))
	if err != nil {
		t.Fatalf("Decode of v1 frame: %v", err)
	}
	if !reflect.DeepEqual(back.Columns, db.Columns()) {
		t.Fatal("v1 snapshot converts to other columns than its database exports")
	}
	got, err := back.Database()
	if err != nil {
		t.Fatal(err)
	}
	assertSameDatabase(t, db, got)
	if back.ID != "d1" || back.Version() != db.Version() {
		t.Fatalf("v1 snapshot decoded as %s at version %d, want d1 at %d", back.ID, back.Version(), db.Version())
	}
}

// TestSnapshotOfMutatedDatabase pins the snapshot's columns, a copy of
// the code vectors, to the Tuples reading of the same database:
// per tuple ID its relation, endo flag, liveness and argument codes,
// husks included. Snapshotting the restored database then encodes
// byte-identically.
func TestSnapshotOfMutatedDatabase(t *testing.T) {
	db := testDB(t)
	husk := db.MustAdd("U", true, "zz", "yy")
	db.MustAdd("S", false, "zz")
	if err := db.Delete(husk); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(1); err != nil {
		t.Fatal(err)
	}
	db.SetEndo(0, false)

	snap := &Snapshot{ID: "d1"}
	snap.SetDatabase(db)
	c := snap.Columns
	type row struct {
		rel   string
		endo  bool
		live  bool
		codes []uint32
	}
	fromColumns := make([]row, len(c.Endo))
	for _, r := range c.Relations {
		for i, id := range r.IDs {
			codes := make([]uint32, r.Arity)
			for j := range codes {
				codes[j] = r.Cols[j][i]
			}
			fromColumns[id] = row{r.Name, c.Endo[id], true, codes}
		}
	}
	for _, h := range c.Husks {
		fromColumns[h.ID] = row{h.Rel, c.Endo[h.ID], false, h.Codes}
	}
	var fromTuples []row
	for _, tp := range db.Tuples() {
		codes := make([]uint32, len(tp.Args))
		for i, v := range tp.Args {
			codes[i], _ = db.Dict().Code(v)
		}
		fromTuples = append(fromTuples, row{tp.Rel, tp.Endo, db.Live(tp.ID), codes})
	}
	if !reflect.DeepEqual(fromColumns, fromTuples) {
		t.Fatalf("tuples:\n  columns %+v\n  Tuples  %+v", fromColumns, fromTuples)
	}

	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	back, err := snap.Database()
	if err != nil {
		t.Fatal(err)
	}
	again := &Snapshot{ID: "d1"}
	again.SetDatabase(back)
	data2, err := Encode(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("snapshot of the restored database encodes differently")
	}
}
