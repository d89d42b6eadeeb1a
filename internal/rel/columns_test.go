package rel

import (
	"reflect"
	"strings"
	"testing"
)

// columnsDB is a mutated database whose columns exercise every part of
// the form: a relation with live rows and a husk (R), one with live rows
// only (S), and one holding nothing but a husk (T).
func columnsDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	db.MustAdd("R", true, "a", "b")
	db.MustAdd("R", true, "b", "c")
	db.MustAdd("S", false, "c")
	db.MustAdd("T", true, "d")
	db.MustAdd("S", true, "e")
	for _, id := range []TupleID{1, 3} {
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// sameState compares two databases through every read the rest of the
// program makes: exported columns, version, live and rendered form of
// every tuple ID, and every code index once probed.
func sameState(t *testing.T, want, got *Database, what string) {
	t.Helper()
	if !reflect.DeepEqual(want.Columns(), got.Columns()) {
		t.Fatalf("%s: columns differ:\nwant %+v\ngot  %+v", what, want.Columns(), got.Columns())
	}
	if want.Version() != got.Version() || want.NumLive() != got.NumLive() {
		t.Fatalf("%s: version/live %d/%d, want %d/%d", what, got.Version(), got.NumLive(), want.Version(), want.NumLive())
	}
	for id := range want.NumTuples() {
		tid := TupleID(id)
		if want.Live(tid) != got.Live(tid) || want.Render(tid) != got.Render(tid) {
			t.Fatalf("%s: tuple %d is %s (live %v), want %s (live %v)", what, id, got.Render(tid), got.Live(tid), want.Render(tid), want.Live(tid))
		}
	}
	for name, wr := range want.Relations {
		for c := range wr.Arity {
			if w, g := wr.CodeIndex(c), got.Relation(name).CodeIndex(c); !reflect.DeepEqual(w, g) {
				t.Fatalf("%s: %s column %d index %v, want %v", what, name, c, g, w)
			}
		}
	}
}

func TestLoadEqualsExport(t *testing.T) {
	db := columnsDB(t)
	db.Relation("S").CodeIndex(0) // the sender maintains a built index from here on
	db.MustAdd("S", false, "f")
	got, err := Load(db.Columns())
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, db, got, "loaded")
	// The loaded database mutates like its source.
	for _, d := range []*Database{db, got} {
		d.MustAdd("R", true, "f", "a")
		d.MustAdd("U", false, "g")
		if err := d.Delete(0); err != nil {
			t.Fatal(err)
		}
		d.SetEndo(2, true)
	}
	sameState(t, db, got, "mutated after load")
}

// TestColumnsIsACopy: an export is unaffected by its source's later
// mutations, which rewrite code vectors and flags in place.
func TestColumnsIsACopy(t *testing.T) {
	db := columnsDB(t)
	before := db.Clone()
	c := db.Columns()
	if err := db.Delete(0); err != nil {
		t.Fatal(err)
	}
	db.SetEndo(2, true)
	db.MustAdd("S", true, "a")
	got, err := Load(c)
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, before, got, "loaded")
}

// TestLoadAcceptsWhatAddAccepts: Load refuses only what Add and Delete
// could not have built, so a database holding values and relation names
// the text format cannot carry, or a nullary relation, still loads.
func TestLoadAcceptsWhatAddAccepts(t *testing.T) {
	db := NewDatabase()
	db.MustAdd("r", true, "x\ny")
	db.MustAdd("", false, `'both"`, "\r")
	db.MustAdd("N", true)
	db.MustAdd("N", false)
	if err := db.Delete(3); err != nil {
		t.Fatal(err)
	}
	got, err := Load(db.Columns())
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, db, got, "loaded")
}

func TestLoadEmpty(t *testing.T) {
	db, err := Load(Columns{})
	if err != nil || db.NumTuples() != 0 || db.Version() != 0 {
		t.Fatalf("Load of no columns = %v, %v", db, err)
	}
}

func TestLoadRejects(t *testing.T) {
	rel := func(c *Columns, name string) *RelColumns {
		for i := range c.Relations {
			if c.Relations[i].Name == name {
				return &c.Relations[i]
			}
		}
		panic(name)
	}
	cases := []struct {
		name, want string
		edit       func(c *Columns)
	}{
		{"row code out of range", "out of range", func(c *Columns) { rel(c, "S").Cols[0][1] = 5 }},
		{"husk code out of range", "out of range", func(c *Columns) { c.Husks[0].Codes[1] = 9 }},
		{"duplicate value", "two codes", func(c *Columns) { c.Values[4] = "a" }},
		{"relations out of order", "listed after", func(c *Columns) { c.Relations[0], c.Relations[1] = c.Relations[1], c.Relations[0] }},
		{"duplicate relation", "listed after", func(c *Columns) { rel(c, "T").Name = "S" }},
		{"arity against columns", "arity 2 with 1 columns", func(c *Columns) { rel(c, "S").Arity = 2 }},
		{"short column", "a column of 1 codes for 2 rows", func(c *Columns) { r := rel(c, "S"); r.Cols[0] = r.Cols[0][:1] }},
		{"id out of range", "out of range", func(c *Columns) { rel(c, "S").IDs[1] = 5 }},
		{"negative id", "out of range", func(c *Columns) { rel(c, "R").IDs[0] = -1 }},
		{"id stored twice", "stored twice", func(c *Columns) { c.Husks[0].ID = 0 }},
		{"id stored by no tuple", "5 rows and husks for 6 tuple ids", func(c *Columns) { c.Endo = append(c.Endo, false) }},
		{"row ids descend", "do not ascend", func(c *Columns) {
			r := rel(c, "S")
			r.IDs[0], r.IDs[1] = r.IDs[1], r.IDs[0]
			r.Cols[0][0], r.Cols[0][1] = r.Cols[0][1], r.Cols[0][0]
		}},
		{"husk ids descend", "do not ascend", func(c *Columns) { c.Husks[0], c.Husks[1] = c.Husks[1], c.Husks[0] }},
		{"endogenous husk", "endogenous", func(c *Columns) { c.Endo[3] = true }},
		{"husk of an unlisted relation", "not a listed relation", func(c *Columns) { c.Husks[1].Rel = "U" }},
		{"husk of another arity", "not a listed relation", func(c *Columns) { c.Husks[1].Rel = "R" }},
		{"dictionary out of first-use order", "before code", func(c *Columns) {
			c.Values[3], c.Values[4] = c.Values[4], c.Values[3]
			rel(c, "S").Cols[0][1] = 3
			c.Husks[1].Codes[0] = 4
		}},
		{"unused value", "unused", func(c *Columns) { c.Values = append(c.Values, "z") }},
		{"relation holding nothing", "holds no tuple", func(c *Columns) {
			c.Relations = append(c.Relations, RelColumns{Name: "V", Arity: 1, Cols: [][]uint32{nil}})
		}},
	}
	base := columnsDB(t)
	if _, err := Load(base.Columns()); err != nil {
		t.Fatalf("base columns rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base.Columns()
			tc.edit(&c)
			_, err := Load(c)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}
