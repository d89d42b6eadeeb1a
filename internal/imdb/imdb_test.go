package imdb

import (
	"testing"

	"github.com/querycause/querycause/internal/ra"
	"github.com/querycause/querycause/internal/rel"
)

func TestMicroShape(t *testing.T) {
	db, keys := Micro()
	if len(keys) != 9 {
		t.Fatalf("keys = %d, want 9 endogenous tuples", len(keys))
	}
	if db.Relation("Director") == nil || db.Relation("Director").Len() != 3 {
		t.Fatal("want 3 directors")
	}
	if db.Relation("Movie").Len() != 6 {
		t.Fatal("want 6 movies")
	}
	for _, id := range db.Relation("MovieDirectors").RowIDs() {
		if db.Endo(id) {
			t.Fatal("MovieDirectors must be exogenous")
		}
	}
	for _, id := range db.Relation("Genre").RowIDs() {
		if db.Endo(id) {
			t.Fatal("Genre must be exogenous")
		}
	}
}

func TestMicroMusicalAnswer(t *testing.T) {
	db, _ := Micro()
	ans, err := ra.Answers(db, GenreQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || ans[0].Values[0] != "Musical" {
		t.Fatalf("answers = %v, want just Musical", ans)
	}
	// Six valuations: one per movie.
	if len(ans[0].Valuations) != 6 {
		t.Errorf("valuations = %d, want 6", len(ans[0].Valuations))
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(Config{Seed: 1, Directors: 10})
	b := Synthetic(Config{Seed: 1, Directors: 10})
	if a.NumTuples() != b.NumTuples() {
		t.Fatalf("same seed, different sizes: %d vs %d", a.NumTuples(), b.NumTuples())
	}
	for i := 0; i < a.NumTuples(); i++ {
		ta, tb := a.Tuple(rel.TupleID(i)), b.Tuple(rel.TupleID(i))
		if ta.Rel != tb.Rel || ta.Args[0] != tb.Args[0] {
			t.Fatalf("tuple %d differs: %v vs %v", i, ta, tb)
		}
	}
	c := Synthetic(Config{Seed: 2, Directors: 10})
	if c.NumTuples() == a.NumTuples() {
		t.Log("different seeds produced equal sizes (possible but unusual)")
	}
}

func TestSyntheticHasBurtonAnswers(t *testing.T) {
	db := Synthetic(Config{Seed: 7, Directors: 30})
	ans, err := ra.Answers(db, GenreQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) == 0 {
		t.Fatal("synthetic instance has no Burton genres; generator must guarantee one Burton")
	}
	// Endogenous split per the paper's default.
	for _, tup := range db.Tuples() {
		wantEndo := tup.Rel == "Director" || tup.Rel == "Movie"
		if tup.Endo != wantEndo {
			t.Fatalf("tuple %v endo=%v, want %v", tup, tup.Endo, wantEndo)
		}
	}
}

// TestSyntheticScales: the generator reaches the ~100k-tuple scale in
// one test-budget-friendly call, and the bound genre query explains
// end-to-end on it. The full 1M-tuple point is exercised by
// `experiments -run evalcurve` (nightly CI) and recorded in
// BENCH_eval.json.
func TestSyntheticScales(t *testing.T) {
	db := Synthetic(Config{Seed: 7, Directors: 10300, BurtonShare: 0.02})
	if n := db.NumTuples(); n < 90000 {
		t.Fatalf("10300 directors produced only %d tuples, want ≈100k", n)
	}
	bq, err := GenreQuery().Bind("Musical")
	if err != nil {
		t.Fatal(err)
	}
	held, err := ra.Holds(db, bq)
	if err != nil {
		t.Fatal(err)
	}
	if !held {
		t.Fatal("Musical is not an answer on the 100k-tuple instance")
	}
}
