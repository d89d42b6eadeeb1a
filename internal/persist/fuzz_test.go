package persist

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/querycause/querycause/internal/rel"
)

// FuzzDecodeDatabase: decoding a snapshot payload plus the bulk load of
// its columns must never panic on arbitrary bytes, and whatever they
// accept must be a database rel could have built: replaying its tuples
// through Add and Delete in ID order builds the same state, and it
// re-encodes to a snapshot that loads back equal and encodes again to
// the same bytes. The input is the payload inside the frame, so the
// fuzzer need not forge checksums.
func FuzzDecodeDatabase(f *testing.F) {
	dbs := []*rel.Database{rel.NewDatabase()}
	for seed := range int64(8) {
		dbs = append(dbs, randomDB(rand.New(rand.NewSource(seed)), seed%2 == 0))
	}
	for _, db := range dbs {
		snap := &Snapshot{}
		snap.SetDatabase(db)
		data, err := Encode(snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data[headerLen : len(data)-4])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		snap, err := Decode(frame(Version, payload))
		if err != nil {
			return
		}
		version := snap.Version()
		db, err := snap.Database()
		if err != nil {
			return
		}
		if db.Version() != version {
			t.Fatalf("snapshot reports version %d of a database at %d", version, db.Version())
		}
		replay := rel.NewDatabase()
		for id := range db.NumTuples() {
			tp := db.Tuple(rel.TupleID(id))
			replay.MustAdd(tp.Rel, tp.Endo, tp.Args...)
		}
		for id := range db.NumTuples() {
			if !db.Live(rel.TupleID(id)) {
				if err := replay.Delete(rel.TupleID(id)); err != nil {
					t.Fatal(err)
				}
			}
		}
		assertSameState(t, replay, db)
		got, data := roundTrip(t, db)
		assertSameState(t, db, got)
		if _, again := roundTrip(t, got); !bytes.Equal(again, data) {
			t.Fatal("a re-encoded database encodes differently once loaded")
		}
	})
}
