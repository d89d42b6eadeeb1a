package persist

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/parser"
	"github.com/querycause/querycause/internal/rel"
)

// v2Text is the upload behind testdata/v2-mutated.qcs, a version 2
// snapshot that querycaused wrote (at commit 57ab412) after preparing
// the queries of v2Queries, explaining them, and mutating the session
// as v2History does.
const v2Text = `+R(a1, a5)
+R(a4, a3)
+R(a4, a2)
-R(a2, a3)
+S(a2)
+S(a3)
-S('x, y')
+T(a4, "it's")
+A(c1)
+B(c1)
+C(c1)
+W(c1, c1, c1)
+A(c2)
+W(c2, c1, c1)
`

// v2Queries are the snapshot's prepared queries with an answer each.
var v2Queries = []struct {
	text   string
	answer []rel.Value
}{
	{"q(x) :- R(x,y), S(y)", []rel.Value{"a6"}},
	{"h :- A(x), B(y), C(z), W(x,y,z)", nil},
}

func v2History(t *testing.T) *rel.Database {
	t.Helper()
	db, err := parser.ParseDatabase(strings.NewReader(v2Text))
	if err != nil {
		t.Fatal(err)
	}
	db.MustAdd("R", true, "a6", "a3")
	db.MustAdd("S", false, "a9")
	for _, id := range []rel.TupleID{1, 6} {
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	db.MustAdd("T", true, "b 7", "z")
	return db
}

// TestV2SnapshotRestores: a snapshot written in format version 2
// restores through the columns and the bulk load to the database its
// history builds today, with the same dictionary, IDs, husks and
// version, and ranks byte-identically.
func TestV2SnapshotRestores(t *testing.T) {
	data, err := os.ReadFile("testdata/v2-mutated.qcs")
	if err != nil {
		t.Fatal(err)
	}
	if v := data[len(magic)]; v != 2 {
		t.Fatalf("fixture is format version %d, want 2", v)
	}
	snap, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := snap.Database()
	if err != nil {
		t.Fatal(err)
	}
	want := v2History(t)
	assertSameState(t, want, got)
	if snap.Version() != want.Version() || snap.Version() != 19 {
		t.Fatalf("snapshot version %d, want %d", snap.Version(), want.Version())
	}
	if len(snap.Queries) != len(v2Queries) || len(snap.Certs) == 0 {
		t.Fatalf("snapshot holds %d queries and %d certificates", len(snap.Queries), len(snap.Certs))
	}
	for i, vq := range v2Queries {
		if snap.Queries[i].Text != vq.text {
			t.Fatalf("query %d is %q, want %q", i, snap.Queries[i].Text, vq.text)
		}
		q, err := parser.ParseQuery(vq.text)
		if err != nil {
			t.Fatal(err)
		}
		if w, g := renderRanking(t, want, q, vq.answer), renderRanking(t, got, q, vq.answer); w != g {
			t.Fatalf("%s ranks differently after restore:\nwant %s\ngot  %s", vq.text, w, g)
		}
	}
}

func renderRanking(t *testing.T, db *rel.Database, q *rel.Query, answer []rel.Value) string {
	t.Helper()
	eng, err := core.NewWhySo(db, q, answer...)
	if err != nil {
		t.Fatal(err)
	}
	exps, err := eng.Rank(context.Background(), core.ModeAuto, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) == 0 {
		t.Fatalf("%s has no causes", q)
	}
	var b strings.Builder
	for _, e := range exps {
		fmt.Fprintf(&b, "%s %.6f %d %v;", db.Render(e.Tuple), e.Rho, e.ContingencySize, e.Method)
		for _, id := range e.Contingency {
			b.WriteString(db.Render(id))
		}
	}
	return b.String()
}
