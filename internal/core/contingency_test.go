package core

import (
	"math/rand"
	"testing"

	"github.com/querycause/querycause/internal/imdb"
	"github.com/querycause/querycause/internal/ra"
	"github.com/querycause/querycause/internal/rel"
)

// validWhySoContingency checks Definition 2.1: q holds on D−Γ and fails
// on D−Γ−{t}.
func validWhySoContingency(t *testing.T, db *rel.Database, q *rel.Query, tuple rel.TupleID, gamma []rel.TupleID) bool {
	t.Helper()
	removed := make(map[rel.TupleID]bool, len(gamma)+1)
	for _, id := range gamma {
		if id == tuple {
			return false
		}
		if !db.Tuple(id).Endo {
			t.Fatalf("contingency contains exogenous tuple %v", db.Tuple(id))
		}
		removed[id] = true
	}
	on, err := ra.HoldsWithout(db, q, removed)
	if err != nil {
		t.Fatal(err)
	}
	if !on {
		return false
	}
	removed[tuple] = true
	off, err := ra.HoldsWithout(db, q, removed)
	if err != nil {
		t.Fatal(err)
	}
	return !off
}

// TestContingencyWitnessesFig2: the witness sets on the IMDB instance
// are valid and match Example 2.4 (Sweeney Todd's contingency is the
// two other directors).
func TestContingencyWitnessesFig2(t *testing.T) {
	db, keys := imdb.Micro()
	eng, err := NewWhySo(db, imdb.GenreQuery(), "Musical")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeAuto, ModeExact} {
		ex, err := eng.Responsibility(keys[imdb.KeySweeney], mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.Contingency) != 2 {
			t.Fatalf("mode %d: |Γ| = %d, want 2", mode, len(ex.Contingency))
		}
		if !validWhySoContingency(t, db, eng.Query(), keys[imdb.KeySweeney], ex.Contingency) {
			t.Fatalf("mode %d: invalid contingency %v", mode, ex.Contingency)
		}
		// Example 2.4: the minimal contingency is the two non-Tim
		// directors.
		got := map[rel.TupleID]bool{ex.Contingency[0]: true, ex.Contingency[1]: true}
		if !got[keys[imdb.KeyDavid]] || !got[keys[imdb.KeyHumphrey]] {
			t.Errorf("mode %d: Γ = %v, want {David, Humphrey}", mode, ex.Contingency)
		}
	}
}

// TestContingencyWitnessesFuzz: flow- and exact-produced witnesses are
// valid by definition and have the claimed size, across query families.
func TestContingencyWitnessesFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	families := []*rel.Query{
		rel.NewBoolean(
			rel.NewAtom("R", rel.V("x"), rel.V("y")),
			rel.NewAtom("S", rel.V("y"), rel.V("z")),
		),
		rel.NewBoolean( // NP-hard family: exercises the exact path
			rel.NewAtom("R", rel.V("x"), rel.V("y")),
			rel.NewAtom("S", rel.V("y"), rel.V("z")),
			rel.NewAtom("T", rel.V("z"), rel.V("x")),
		),
	}
	dom := []rel.Value{"0", "1", "2"}
	for fi, q := range families {
		for trial := 0; trial < 20; trial++ {
			db := rel.NewDatabase()
			for _, a := range q.Atoms {
				for i := 0; i < 5; i++ {
					db.MustAdd(a.Pred, rng.Intn(5) != 0, dom[rng.Intn(3)], dom[rng.Intn(3)])
				}
			}
			holds, err := ra.Holds(db, q)
			if err != nil {
				t.Fatal(err)
			}
			if !holds {
				continue
			}
			eng, err := NewWhySo(db, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range eng.Causes() {
				for _, mode := range []Mode{ModeAuto, ModeExact} {
					ex, err := eng.Responsibility(id, mode)
					if err != nil {
						t.Fatal(err)
					}
					if len(ex.Contingency) != ex.ContingencySize {
						t.Fatalf("family %d: |Γ|=%d size=%d", fi, len(ex.Contingency), ex.ContingencySize)
					}
					if !validWhySoContingency(t, db, q, id, ex.Contingency) {
						t.Fatalf("family %d mode %d tuple %v: invalid Γ=%v\ndb:\n%v",
							fi, mode, db.Tuple(id), ex.Contingency, db)
					}
				}
			}
		}
	}
}

// TestWhyNoContingencyWitness: Why-No witnesses are valid insertion
// sets (q false on Dˣ∪Γ, true on Dˣ∪Γ∪{t}).
func TestWhyNoContingencyWitness(t *testing.T) {
	db := rel.NewDatabase()
	db.MustAdd("R", true, "a", "b") // candidate
	db.MustAdd("S", true, "b")      // candidate
	db.MustAdd("S", true, "z")      // useless candidate
	q := rel.NewBoolean(rel.NewAtom("R", rel.V("x"), rel.V("y")), rel.NewAtom("S", rel.V("y")))
	eng, err := NewWhyNo(db, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range eng.Causes() {
		ex, err := eng.Responsibility(id, ModeAuto)
		if err != nil {
			t.Fatal(err)
		}
		// Insertion semantics: present = exogenous ∪ Γ ∪ {t}; all other
		// endogenous tuples removed.
		removed := make(map[rel.TupleID]bool)
		inGamma := make(map[rel.TupleID]bool)
		for _, g := range ex.Contingency {
			inGamma[g] = true
		}
		for _, cand := range db.EndoIDs() {
			if !inGamma[cand] {
				removed[cand] = true
			}
		}
		// Without t: must be false.
		removed[id] = true
		on, err := ra.HoldsWithout(db, q, removed)
		if err != nil {
			t.Fatal(err)
		}
		if on {
			t.Fatalf("tuple %v: q holds on Dˣ∪Γ without t (Γ=%v)", db.Tuple(id), ex.Contingency)
		}
		// With t: must be true.
		delete(removed, id)
		on, err = ra.HoldsWithout(db, q, removed)
		if err != nil {
			t.Fatal(err)
		}
		if !on {
			t.Fatalf("tuple %v: q fails on Dˣ∪Γ∪{t} (Γ=%v)", db.Tuple(id), ex.Contingency)
		}
	}
}
