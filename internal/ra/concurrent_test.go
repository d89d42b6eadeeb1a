package ra

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/querycause/querycause/internal/rel"
)

// TestConcurrentEvaluationSharedDB: engines evaluating over one shared
// database (the explanation server's session pattern) run Valuations,
// HoldsWithout and NLineageConjuncts at once. The database is fresh, so
// the goroutines race to build its code indexes on their first probes;
// each must still get what a lone run gets.
func TestConcurrentEvaluationSharedDB(t *testing.T) {
	db := rel.NewDatabase()
	for i := 0; i < 50; i++ {
		db.MustAdd("R", i%3 != 0, rel.Value(fmt.Sprintf("x%d", i%7)), rel.Value(fmt.Sprintf("y%d", i%11)))
		db.MustAdd("S", i%2 == 0, rel.Value(fmt.Sprintf("y%d", i%11)), rel.Value(fmt.Sprintf("z%d", i%5)))
	}
	for i := 0; i < 5; i += 2 {
		db.MustAdd("T", true, rel.Value(fmt.Sprintf("z%d", i)))
	}
	q := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("z")),
		rel.NewAtom("T", rel.V("z")),
	)
	removed := map[rel.TupleID]bool{}
	for _, id := range db.Relation("T").RowIDs()[1:] {
		removed[id] = true
	}

	type result struct {
		vals      []rel.Valuation
		holds     bool
		conjuncts [][]rel.TupleID
		isTrue    bool
	}
	run := func(db *rel.Database) (r result, err error) {
		if r.vals, err = Valuations(db, q); err != nil {
			return r, err
		}
		if r.holds, err = HoldsWithout(db, q, removed); err != nil {
			return r, err
		}
		r.conjuncts, r.isTrue, err = NLineageConjuncts(db, q)
		return r, err
	}
	// The lone run evaluates a clone, so the shared database's code
	// indexes are still unbuilt when the goroutines start.
	want, err := run(db.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if len(want.vals) == 0 || !want.holds || len(want.conjuncts) == 0 {
		t.Fatalf("lone run is degenerate: %d valuations, holds=%v, %d conjuncts", len(want.vals), want.holds, len(want.conjuncts))
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := run(db)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("goroutine %d: %d valuations, holds=%v, %d conjuncts; a lone run: %d, %v, %d",
					g, len(got.vals), got.holds, len(got.conjuncts), len(want.vals), want.holds, len(want.conjuncts))
			}
		}(g)
	}
	wg.Wait()
}
