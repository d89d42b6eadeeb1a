package parser

import (
	"strings"
	"testing"

	"github.com/querycause/querycause/internal/rel"
)

func TestParseQueryWithHead(t *testing.T) {
	q, err := ParseQuery("q(x) :- R(x,y), S(y)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "q" || len(q.Head) != 1 || !q.Head[0].IsVar || q.Head[0].Var != "x" {
		t.Fatalf("head = %v", q.Head)
	}
	if len(q.Atoms) != 2 || q.Atoms[0].Pred != "R" || q.Atoms[1].Pred != "S" {
		t.Fatalf("atoms = %v", q.Atoms)
	}
}

func TestParseBooleanQuery(t *testing.T) {
	q, err := ParseQuery("q :- R(x,'a3'), S('a3')")
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsBoolean() {
		t.Fatal("want Boolean query")
	}
	if q.Atoms[0].Terms[1].IsVar || q.Atoms[0].Terms[1].Const != "a3" {
		t.Fatalf("constant not parsed: %v", q.Atoms[0])
	}
	if q.Atoms[1].Terms[0].Const != "a3" {
		t.Fatalf("constant not parsed: %v", q.Atoms[1])
	}
}

func TestParseQueryConstantsVariants(t *testing.T) {
	q, err := ParseQuery(`q :- Movie(mid, "Sweeney Todd", 2007)`)
	if err != nil {
		t.Fatal(err)
	}
	ts := q.Atoms[0].Terms
	if ts[0].IsVar != true || ts[1].Const != "Sweeney Todd" || ts[2].Const != "2007" {
		t.Fatalf("terms = %v", ts)
	}
}

func TestParseQueryErrors(t *testing.T) {
	for _, bad := range []string{
		"q(x) R(x)",        // no :-
		"q :- r(x)",        // lower-case relation
		"q :- R(x",         // unbalanced
		"q :- ",            // empty body
		"q :- R()",         // no args
		"q :- R(x,@)",      // bad term
		"(x) :- R(x)",      // empty name
		"q :- R(x,'a)",     // unbalanced quote
		"q :- R(x)), S(y)", // stray paren
	} {
		if _, err := ParseQuery(bad); err == nil {
			t.Errorf("ParseQuery(%q) should fail", bad)
		}
	}
}

func TestParseTupleLine(t *testing.T) {
	relName, endo, args, err := ParseTupleLine("+R(a1, a5)")
	if err != nil {
		t.Fatal(err)
	}
	if relName != "R" || !endo || len(args) != 2 || args[0] != "a1" || args[1] != "a5" {
		t.Fatalf("got %s %v %v", relName, endo, args)
	}
	_, endo, _, err = ParseTupleLine("-S('hello world')")
	if err != nil {
		t.Fatal(err)
	}
	if endo {
		t.Fatal("want exogenous")
	}
	for _, bad := range []string{"R(a)", "+r(a)", "+R", "+R()", ""} {
		if _, _, _, err := ParseTupleLine(bad); err == nil {
			t.Errorf("ParseTupleLine(%q) should fail", bad)
		}
	}
}

func TestParseDatabase(t *testing.T) {
	src := `
# Example 2.2
+R(a1, a5)
+R(a2, a1)   # trailing comment
-S(a3)
`
	db, err := ParseDatabase(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if db.NumTuples() != 3 {
		t.Fatalf("tuples = %d, want 3", db.NumTuples())
	}
	if db.Relation("R").Arity != 2 || db.Relation("S").Arity != 1 {
		t.Fatal("arities wrong")
	}
	if db.Tuple(2).Endo {
		t.Fatal("S(a3) should be exogenous")
	}
}

func TestParseDatabaseErrors(t *testing.T) {
	if _, err := ParseDatabase(strings.NewReader("+R(a)\n+R(a,b)\n")); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := ParseDatabase(strings.NewReader("R(a)\n")); err == nil {
		t.Error("missing +/- should fail")
	}
}

func TestRoundTripWithRel(t *testing.T) {
	q, err := ParseQuery("q(x) :- R(x,y), S(y)")
	if err != nil {
		t.Fatal(err)
	}
	db, err := ParseDatabase(strings.NewReader("+R(a,b)\n+S(b)\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(db); err != nil {
		t.Fatal(err)
	}
	bq, err := q.Bind("a")
	if err != nil {
		t.Fatal(err)
	}
	if bq.Atoms[0].Terms[0].Const != "a" {
		t.Fatalf("bind failed: %v", bq)
	}
}

func TestFormatDatabaseRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		add  func(db *rel.Database)
	}{
		{"plain", func(db *rel.Database) {
			db.MustAdd("R", true, "a1", "a2")
			db.MustAdd("S", false, "a2")
		}},
		{"syntax characters quoted", func(db *rel.Database) {
			db.MustAdd("R", true, "with space", "comma,inside")
			db.MustAdd("R", false, "paren(s)", "hash#tag")
			db.MustAdd("T", true, "double\"quote", "single'quote")
		}},
		{"numeric and underscore", func(db *rel.Database) {
			db.MustAdd("N", true, "42", "_x")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := rel.NewDatabase()
			tc.add(db)
			text, err := FormatDatabase(db)
			if err != nil {
				t.Fatal(err)
			}
			back, err := ParseDatabase(strings.NewReader(text))
			if err != nil {
				t.Fatalf("parse of formatted output failed: %v\n%s", err, text)
			}
			if back.NumTuples() != db.NumTuples() {
				t.Fatalf("tuple count %d != %d", back.NumTuples(), db.NumTuples())
			}
			for i := 0; i < db.NumTuples(); i++ {
				a, b := db.Tuple(rel.TupleID(i)), back.Tuple(rel.TupleID(i))
				if a.String() != b.String() || a.Endo != b.Endo {
					t.Errorf("tuple %d: %v (endo %v) != %v (endo %v)", i, a, a.Endo, b, b.Endo)
				}
			}
		})
	}
}

// TestParseDatabaseErrorTable enumerates the malformed inputs the
// explanation server must answer with 4xx; each must fail cleanly here.
func TestParseDatabaseErrorTable(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"unterminated args", "+R(a,"},
		{"no sign", "R(a,b)"},
		{"lower-case relation", "+r(a)"},
		{"empty relation name", "+(a)"},
		{"no arguments", "+R()"},
		{"arity drift", "+R(a)\n+R(a,b)"},
		{"garbage line", "hello world"},
		{"unbalanced quote", "+R('a,b)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseDatabase(strings.NewReader(tc.in)); err == nil {
				t.Errorf("ParseDatabase(%q) succeeded; want error", tc.in)
			}
		})
	}
}

// TestStripCommentQuoteAware: '#' inside a quoted value is data, not a
// comment delimiter.
func TestStripCommentQuoteAware(t *testing.T) {
	db, err := ParseDatabase(strings.NewReader("+R('a#b') # trailing comment\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Tuple(0).Args[0]; got != "a#b" {
		t.Errorf("value = %q; want a#b", got)
	}
}

// TestFormatDatabaseUnrepresentable: values the escape-free line format
// cannot carry must be reported, not silently emitted as garbage.
func TestFormatDatabaseUnrepresentable(t *testing.T) {
	cases := []struct {
		name string
		val  string
	}{
		{"newline", "a\nb"},
		{"carriage return", "a\rb"},
		{"both quote characters", "both'and\"quotes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := rel.NewDatabase()
			db.MustAdd("R", true, rel.Value(tc.val))
			if out, err := FormatDatabase(db); err == nil {
				t.Errorf("FormatDatabase succeeded with %q; output:\n%s", tc.val, out)
			}
		})
	}
}

// TestFormatDatabaseWithDeletions: deleted tuples are omitted, live
// ones keep insertion order and their endo flags, and re-parsing yields
// the live tuples under compacted IDs, which format back to the same
// text.
func TestFormatDatabaseWithDeletions(t *testing.T) {
	db := rel.NewDatabase()
	db.MustAdd("R", true, "a1", "a2")
	gone := db.MustAdd("S", false, "only here")
	db.MustAdd("R", false, "with space", "comma,inside")
	db.MustAdd("T", true, "x")
	if err := db.Delete(gone); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(0); err != nil {
		t.Fatal(err)
	}
	db.MustAdd("S", true, "b")
	text, err := FormatDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	const want = "-R('with space', 'comma,inside')\n+T(x)\n+S(b)\n"
	if text != want {
		t.Fatalf("FormatDatabase = %q, want %q", text, want)
	}
	back, err := ParseDatabase(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTuples() != db.NumLive() {
		t.Fatalf("re-parsed %d tuples, want the %d live ones", back.NumTuples(), db.NumLive())
	}
	again, err := FormatDatabase(back)
	if err != nil {
		t.Fatal(err)
	}
	if again != text {
		t.Fatalf("round trip changed the text:\n%q\n%q", text, again)
	}
}
