package persist

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/parser"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/rewrite"
	"github.com/querycause/querycause/internal/shape"
)

const dbText = `
+R(a,b)
+R(b,c)
-S(b)
+S(c)
+T(a,b,c)
`

func testDB(t *testing.T) *rel.Database {
	t.Helper()
	db, err := parser.ParseDatabase(strings.NewReader(dbText))
	if err != nil {
		t.Fatalf("parsing test database: %v", err)
	}
	return db
}

func testCerts(t *testing.T, db *rel.Database, query string) (*rewrite.Certificate, *rewrite.Certificate) {
	t.Helper()
	q, err := parser.ParseQuery(query)
	if err != nil {
		t.Fatalf("parsing query: %v", err)
	}
	sh := shape.FromQuery(q, core.EndoFn(db))
	sound, err := rewrite.ClassifySound(sh)
	if err != nil {
		t.Fatalf("ClassifySound: %v", err)
	}
	paper, err := rewrite.Classify(sh)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	return sound, paper
}

// assertSameDatabase compares two databases down to the interned
// representation: dictionary tables, per-column code vectors, row→ID
// maps, and endogenous flags must all be byte-identical.
func assertSameDatabase(t *testing.T, want, got *rel.Database) {
	t.Helper()
	wd, gd := want.Dict(), got.Dict()
	if wd.Len() != gd.Len() {
		t.Fatalf("dict length: want %d, got %d", wd.Len(), gd.Len())
	}
	for c := 0; c < wd.Len(); c++ {
		if wv, gv := wd.Value(uint32(c)), gd.Value(uint32(c)); wv != gv {
			t.Fatalf("dict code %d: want %q, got %q", c, wv, gv)
		}
	}
	if len(want.Relations) != len(got.Relations) {
		t.Fatalf("relation count: want %d, got %d", len(want.Relations), len(got.Relations))
	}
	for name, wr := range want.Relations {
		gr := got.Relation(name)
		if gr == nil {
			t.Fatalf("relation %s missing after restore", name)
		}
		if wr.Arity != gr.Arity || wr.Len() != gr.Len() {
			t.Fatalf("relation %s: want %d/%d rows/arity, got %d/%d", name, wr.Len(), wr.Arity, gr.Len(), gr.Arity)
		}
		for c := 0; c < wr.Arity; c++ {
			if !slices.Equal(wr.Col(c), gr.Col(c)) {
				t.Fatalf("relation %s column %d code vectors differ:\nwant %v\ngot  %v", name, c, wr.Col(c), gr.Col(c))
			}
		}
		if !slices.Equal(wr.RowIDs(), gr.RowIDs()) {
			t.Fatalf("relation %s row IDs differ: want %v, got %v", name, wr.RowIDs(), gr.RowIDs())
		}
	}
	if want.NumTuples() != got.NumTuples() {
		t.Fatalf("tuple count: want %d, got %d", want.NumTuples(), got.NumTuples())
	}
	for id := 0; id < want.NumTuples(); id++ {
		if we, ge := want.Endo(rel.TupleID(id)), got.Endo(rel.TupleID(id)); we != ge {
			t.Fatalf("tuple %d endo flag: want %v, got %v", id, we, ge)
		}
	}
}

func TestRoundTripByteIdentical(t *testing.T) {
	db := testDB(t)
	sound, paper := testCerts(t, db, "q() :- R(x,y), S(y)")

	snap := &Snapshot{
		ID:          "d7",
		Queries:     []Query{{ID: "q1", Text: "q() :- R(x,y), S(y)", Program: "prog"}},
		NextQueryID: 1,
		Certs:       []Certificate{{Key: "R(v0,v1,)|S(v1,)|", Sound: sound, Paper: paper}},
	}
	snap.SetDatabase(db)

	data, err := Encode(snap)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}

	// gob legitimately collapses empty-but-non-nil slices to nil and
	// duplicates aliased pointers, so whole-struct DeepEqual is too
	// strict; re-encoding the decoded snapshot must reproduce the exact
	// bytes instead (byte-identity of the serialized form).
	data2, err := Encode(back)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if string(data) != string(data2) {
		t.Fatalf("snapshot is not byte-stable across a round-trip (%d vs %d bytes)", len(data), len(data2))
	}
	if back.ID != snap.ID || back.NextQueryID != snap.NextQueryID ||
		!reflect.DeepEqual(back.Columns, snap.Columns) ||
		!reflect.DeepEqual(back.Queries, snap.Queries) {
		t.Fatalf("snapshot did not round-trip:\nwant %#v\ngot  %#v", snap, back)
	}
	restored, err := back.Database()
	if err != nil {
		t.Fatalf("rebuilding database: %v", err)
	}
	assertSameDatabase(t, db, restored)

	// The restored certificates must be usable as-is: identical class,
	// rule, orders, and shapes.
	for i, pair := range [][2]*rewrite.Certificate{{sound, back.Certs[0].Sound}, {paper, back.Certs[0].Paper}} {
		w, g := pair[0], pair[1]
		if w.Class != g.Class || w.Rule != g.Rule || w.Hard != g.Hard ||
			!reflect.DeepEqual(w.LinearOrder, g.LinearOrder) ||
			!reflect.DeepEqual(*w.Input, *g.Input) {
			t.Fatalf("certificate %d did not round-trip:\nwant %#v\ngot  %#v", i, w, g)
		}
		if (w.Weakened == nil) != (g.Weakened == nil) || (w.Weakened != nil && !reflect.DeepEqual(*w.Weakened, *g.Weakened)) {
			t.Fatalf("certificate %d weakened shape did not round-trip", i)
		}
	}
}

func TestStoreSaveLoadDelete(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	db := testDB(t)
	snap := &Snapshot{ID: "d1"}
	snap.SetDatabase(db)
	if err := st.Save(snap); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := st.Load("d1")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if back.ID != "d1" || back.Version() != db.Version() {
		t.Fatalf("loaded snapshot mismatch: %+v", back)
	}
	ids, err := st.IDs()
	if err != nil || len(ids) != 1 || ids[0] != "d1" {
		t.Fatalf("IDs = %v, %v", ids, err)
	}
	if err := st.Delete("d1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := st.Load("d1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load after delete: %v, want ErrNotFound", err)
	}
	if err := st.Delete("d1"); err != nil {
		t.Fatalf("double Delete: %v", err)
	}
}

func TestStoreRejectsInvalidID(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, id := range []string{"", "../escape", "a/b", ".hidden"} {
		if err := st.Save(&Snapshot{ID: id}); err == nil {
			t.Fatalf("Save accepted invalid id %q", id)
		}
	}
}

func TestCorruptedChecksumRejected(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	snap := &Snapshot{ID: "d1"}
	snap.SetDatabase(testDB(t))
	if err := st.Save(snap); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := st.Path("d1")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading snapshot: %v", err)
	}
	// Flip one bit in the middle of the payload.
	data[headerLen+len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("writing corrupted snapshot: %v", err)
	}
	if _, err := st.Load("d1"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Load of corrupted snapshot: %v, want ErrChecksum", err)
	}
	// LoadAll must skip the corrupt file and report it.
	snaps, errs := st.LoadAll()
	if len(snaps) != 0 || len(errs) != 1 || !errors.Is(errs[0], ErrChecksum) {
		t.Fatalf("LoadAll = %d snaps, errs %v", len(snaps), errs)
	}
}

func TestFutureFormatVersionRejected(t *testing.T) {
	snap := &Snapshot{ID: "d1"}
	snap.SetDatabase(testDB(t))
	data, err := Encode(snap)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	data[len(magic)] = Version + 1
	if _, err := Decode(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("Decode of future version: %v, want ErrVersion", err)
	}
}

func TestTruncatedAndGarbageRejected(t *testing.T) {
	snap := &Snapshot{ID: "d1"}
	snap.SetDatabase(testDB(t))
	data, err := Encode(snap)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := Decode(data[:len(data)-3]); err == nil {
		t.Fatalf("Decode accepted truncated snapshot")
	}
	if _, err := Decode(data[:8]); err == nil {
		t.Fatalf("Decode accepted header-only snapshot")
	}
	if _, err := Decode([]byte("not a snapshot at all........")); err == nil {
		t.Fatalf("Decode accepted garbage")
	}
}

func TestWriteBehindCoalescesAndFlushes(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	wb := NewWriteBehind(st, 0) // manual flush only
	defer wb.Close()

	db := testDB(t)
	calls := 0
	snapshot := func() (*Snapshot, error) {
		calls++
		snap := &Snapshot{ID: "d1"}
		snap.SetDatabase(db)
		return snap, nil
	}
	wb.Mark("d1", snapshot)
	wb.Mark("d1", snapshot) // coalesces with the first
	if got := wb.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
	if err := wb.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if calls != 1 {
		t.Fatalf("snapshot called %d times, want 1 (coalesced)", calls)
	}
	if wb.Writes() != 1 {
		t.Fatalf("Writes = %d, want 1", wb.Writes())
	}
	if _, err := st.Load("d1"); err != nil {
		t.Fatalf("Load after flush: %v", err)
	}
	// Clean flush with nothing dirty is a no-op.
	if err := wb.Flush(); err != nil || wb.Writes() != 1 {
		t.Fatalf("idle Flush: err=%v writes=%d", err, wb.Writes())
	}
}

func TestWriteBehindKeepsFailedSessionsDirty(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	wb := NewWriteBehind(st, 0)
	defer wb.Close()

	boom := errors.New("snapshot exploded")
	fail := true
	wb.Mark("d1", func() (*Snapshot, error) {
		if fail {
			return nil, boom
		}
		snap := &Snapshot{ID: "d1"}
		snap.SetDatabase(testDB(t))
		return snap, nil
	})
	if err := wb.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush error = %v, want %v", err, boom)
	}
	if got := wb.Pending(); got != 1 {
		t.Fatalf("failed session not kept dirty: Pending = %d", got)
	}
	fail = false
	if err := wb.Flush(); err != nil {
		t.Fatalf("retry Flush: %v", err)
	}
	if _, err := st.Load("d1"); err != nil {
		t.Fatalf("Load after retry: %v", err)
	}
}

func TestWriteBehindBackgroundLoop(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	wb := NewWriteBehind(st, 5*time.Millisecond)
	defer wb.Close()
	wb.Mark("d1", func() (*Snapshot, error) {
		snap := &Snapshot{ID: "d1"}
		snap.SetDatabase(testDB(t))
		return snap, nil
	})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := st.Load("d1"); err == nil {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("background flusher never wrote the snapshot; path %s", filepath.Join(st.Dir(), "d1"+ext))
}
