package persist

import (
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
