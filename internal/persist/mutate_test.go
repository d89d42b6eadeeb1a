package persist

import (
	"bytes"
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

// TestDecodeAcceptsV1 checks this binary still reads version-1
// snapshots (written before the Deleted flag existed): the frame
// version is not checksummed, so rewriting the byte stands in for a
// file written by an old binary.
func TestDecodeAcceptsV1(t *testing.T) {
	db, err := parser.ParseDatabase(strings.NewReader(dbText))
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{ID: "d1"}
	snap.SetDatabase(db)
	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len("QCSN")] = 1
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode of v1 frame: %v", err)
	}
	got, err := back.Database()
	if err != nil {
		t.Fatal(err)
	}
	assertSameDatabase(t, db, got)
	for _, tp := range back.Tuples {
		if tp.Deleted {
			t.Fatal("v1 snapshot decoded with Deleted set")
		}
	}
}

// TestSnapshotOfMutatedDatabase pins SetDatabase, which reads the code
// vectors, to the Tuples reading of the same database: relation
// table in first-appearance order, and per tuple its relation, endo
// flag, deleted flag and argument codes, husks included. Snapshotting
// the restored database then encodes byte-identically.
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

	var rels []string
	relIdx := make(map[string]int32)
	var tuples []Tuple
	for _, tp := range db.Tuples() {
		ri, ok := relIdx[tp.Rel]
		if !ok {
			ri = int32(len(rels))
			relIdx[tp.Rel] = ri
			rels = append(rels, tp.Rel)
		}
		args := make([]uint32, len(tp.Args))
		for i, v := range tp.Args {
			args[i], _ = db.Dict().Code(v)
		}
		tuples = append(tuples, Tuple{Rel: ri, Endo: tp.Endo, Deleted: !db.Live(tp.ID), Args: args})
	}
	if !reflect.DeepEqual(snap.Relations, rels) {
		t.Fatalf("relations: snapshot %v, Tuples %v", snap.Relations, rels)
	}
	if !reflect.DeepEqual(snap.Tuples, tuples) {
		t.Fatalf("tuples:\n  snapshot %+v\n  Tuples   %+v", snap.Tuples, tuples)
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
