package persist

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/querycause/querycause/internal/parser"
	"github.com/querycause/querycause/internal/rel"
)

// randomDB builds a database by a random run of adds, deletes and endo
// flips over values that need quoting in text. With deletions false it
// never deletes, so the text path can carry it too. Some code indexes
// are probed mid-run, so the sender holds indexes that Add and Delete
// maintained rather than built.
func randomDB(rng *rand.Rand, deletions bool) *rel.Database {
	vals := []rel.Value{"a", "b", "c", "", " pad ", "x,y", "it's", `say "hi"`, "#", "(p)", "é", "1"}
	names := []string{"R", "S", "T", "Ü"}
	arity := map[string]int{"R": 2, "S": 1, "T": 3, "Ü": 1}
	db := rel.NewDatabase()
	for range 1 + rng.Intn(60) {
		switch op := rng.Intn(10); {
		case deletions && op < 3 && db.NumLive() > 0:
			for {
				if id := rel.TupleID(rng.Intn(db.NumTuples())); db.Live(id) {
					if err := db.Delete(id); err != nil {
						panic(err)
					}
					break
				}
			}
		case op < 4 && db.NumTuples() > 0:
			db.SetEndo(rel.TupleID(rng.Intn(db.NumTuples())), rng.Intn(2) == 0)
		case op < 5:
			for _, r := range db.Relations {
				r.CodeIndex(rng.Intn(r.Arity))
			}
		default:
			name := names[rng.Intn(len(names))]
			args := make([]rel.Value, arity[name])
			for i := range args {
				args[i] = vals[rng.Intn(len(vals))]
			}
			db.MustAdd(name, rng.Intn(2) == 0, args...)
		}
	}
	return db
}

// assertSameState extends assertSameDatabase to what a restore must
// also carry: version, liveness and the rendered form of every tuple
// ID (husks included), and every code index once probed.
func assertSameState(t *testing.T, want, got *rel.Database) {
	t.Helper()
	assertSameDatabase(t, want, got)
	if want.Version() != got.Version() || want.NumLive() != got.NumLive() {
		t.Fatalf("version/live %d/%d, want %d/%d", got.Version(), got.NumLive(), want.Version(), want.NumLive())
	}
	for id := range want.NumTuples() {
		tid := rel.TupleID(id)
		if want.Live(tid) != got.Live(tid) || want.Render(tid) != got.Render(tid) {
			t.Fatalf("tuple %d: %s (live %v), want %s (live %v)", id, got.Render(tid), got.Live(tid), want.Render(tid), want.Live(tid))
		}
	}
	for name, wr := range want.Relations {
		for c := range wr.Arity {
			if w, g := wr.CodeIndex(c), got.Relation(name).CodeIndex(c); !reflect.DeepEqual(w, g) {
				t.Fatalf("relation %s column %d index %v, want %v", name, c, g, w)
			}
		}
	}
}

// roundTrip does what an upload, restore or handoff does with db: it
// encodes db's columns in a snapshot envelope, then decodes and loads
// them. It returns the loaded database and the envelope.
func roundTrip(t *testing.T, db *rel.Database) (*rel.Database, []byte) {
	t.Helper()
	snap := &Snapshot{}
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
	return got, data
}

// TestBulkLoadEqualsSender: on random mutated databases the decoded,
// bulk-loaded database equals the encoded one in dictionary order,
// tuple IDs, husks, endo flags, version and code indexes, and
// re-encodes to the same bytes. Without deletions it also equals what
// the text path builds from the same database.
func TestBulkLoadEqualsSender(t *testing.T) {
	for seed := range int64(200) {
		rng := rand.New(rand.NewSource(seed))
		deletions := seed%2 == 0
		db := randomDB(rng, deletions)
		got, data := roundTrip(t, db)
		assertSameState(t, db, got)
		if _, again := roundTrip(t, got); !bytes.Equal(again, data) {
			t.Fatalf("seed %d: the loaded database encodes differently", seed)
		}
		if deletions {
			continue
		}
		text, err := parser.FormatDatabase(db)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		parsed, err := parser.ParseDatabase(strings.NewReader(text))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertSameState(t, parsed, got)
	}
}

func TestColumnsEncodeDeterministic(t *testing.T) {
	db := randomDB(rand.New(rand.NewSource(7)), true)
	_, data := roundTrip(t, db)
	for range 5 {
		_, again := roundTrip(t, db)
		_, clone := roundTrip(t, db.Clone())
		if !bytes.Equal(again, data) || !bytes.Equal(clone, data) {
			t.Fatal("the same database encoded to different bytes")
		}
	}
}

// TestForgedColumnsCostTheirInput: a relation's arity is a number, not
// a length, so columns claiming many huge-arity relations with no rows
// are refused by the load without anything sized by those arities.
func TestForgedColumnsCostTheirInput(t *testing.T) {
	var c rel.Columns
	for k := range 10000 {
		c.Relations = append(c.Relations, rel.RelColumns{Name: fmt.Sprintf("R%05d", k), Arity: 1 << 40})
	}
	data, err := Encode(&Snapshot{Columns: c})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Database(); err == nil || !strings.Contains(err.Error(), "with 0 columns") {
		t.Fatalf("forged columns loaded (err %v)", err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+1<<20 {
		t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
	}
}
