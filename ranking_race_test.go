package querycause_test

import (
	"context"
	"sync"
	"testing"

	qc "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/imdb"
)

// TestLocalRankRacesDelete ranks fresh in-process rankings while
// another goroutine deletes Movie tuples from the same session. A
// ranking builds its flow network from the database, so that build
// must be ordered against the session's mutations; run under -race
// this fails if it is not (and with the code indexes maintained in
// place, an unordered build is a concurrent map access).
func TestLocalRankRacesDelete(t *testing.T) {
	db := imdb.Synthetic(imdb.Config{Seed: 3, Directors: 120, BurtonShare: 0.2})
	movies := append([]qc.TupleID(nil), db.Relation("Movie").RowIDs()...)
	if len(movies) < 50 {
		t.Fatalf("fixture has %d Movie tuples, want at least 50", len(movies))
	}
	sess := openLocal(t, db)
	q := imdb.GenreQuery()
	ctx := context.Background()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, id := range movies[len(movies)-50:] {
			if err := sess.Delete(ctx, id); err != nil {
				t.Errorf("Delete(%d): %v", id, err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		r, err := sess.WhySo(ctx, q, "Musical")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Rank(ctx, qc.WithParallelism(1)); err != nil {
			t.Fatal(err)
		}
		for _, err := range r.RankStream(ctx, qc.WithParallelism(2), qc.WithMode(qc.ModePaper)) {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
}
