package querycause_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	qc "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/imdb"
	"github.com/querycause/querycause/internal/server"
)

// bothTransportsFresh is bothTransports with a fresh database per
// transport: mutation tests need it, because the remote transport
// mirrors every acknowledged mutation into the database it was dialed
// with — sharing one *Database across subtests would double-apply.
func bothTransportsFresh(t *testing.T, mkDB func() *qc.Database, body func(t *testing.T, sess qc.Session)) {
	t.Helper()
	bothTransportsSettled(t, mkDB, func(t *testing.T, sess qc.Session, _ func()) { body(t, sess) })
}

// bothTransportsSettled is bothTransportsFresh whose body also gets a
// settle func that blocks until no watch stream is open. In-process
// watches unsubscribe as their range ends; a remote watch dropped by
// breaking out of its range is unsubscribed only once the server
// notices the closed connection.
func bothTransportsSettled(t *testing.T, mkDB func() *qc.Database, body func(t *testing.T, sess qc.Session, settle func())) {
	t.Helper()
	t.Run("local", func(t *testing.T) {
		sess, err := qc.Open(mkDB())
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		body(t, sess, func() {})
	})
	t.Run("remote", func(t *testing.T) {
		srv := server.New(server.Config{ReapInterval: -1})
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			ts.Close()
			srv.Close()
		}()
		sess, err := qc.Dial(context.Background(), ts.URL, mkDB())
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		settle := func() {
			t.Helper()
			c := qc.NewClient(ts.URL, nil)
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				st, err := c.Stats(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if st.WatchesActive == 0 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d watch streams still open on the server", st.WatchesActive)
				}
			}
		}
		body(t, sess, settle)
	})
}

func mutateChainDB() *qc.Database {
	db := qc.NewDatabase()
	db.MustAdd("R", true, "a4", "a3") // 0
	db.MustAdd("S", true, "a3")       // 1
	db.MustAdd("S", true, "a2")       // 2
	db.MustAdd("R", true, "a5", "a2") // 3
	return db
}

// TestRankAfterMutation: a ranking opened before a mutation and ranked
// after it ranks the database as it stands at Rank time, on both
// transports: Rank and a drained RankStream of the stale ranking equal
// the Rank of one opened after the mutation. Causes keeps reporting the
// causes as of WhySo.
func TestRankAfterMutation(t *testing.T) {
	q := imdb.GenreQuery()
	mkDB := func() *qc.Database {
		db, _ := imdb.Micro()
		return db
	}
	_, keys := imdb.Micro()
	manon := keys[imdb.KeyManon]
	bothTransportsFresh(t, mkDB, func(t *testing.T, sess qc.Session) {
		ctx := context.Background()
		stale, err := sess.WhySo(ctx, q, "Musical")
		if err != nil {
			t.Fatal(err)
		}
		before, err := stale.Causes(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Delete(ctx, manon); err != nil {
			t.Fatalf("Delete Manon Lescaut: %v", err)
		}
		got, err := stale.Rank(ctx, qc.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		var streamed []qc.Explanation
		for ex, err := range stale.RankStream(ctx) {
			if err != nil {
				t.Fatal(err)
			}
			streamed = append(streamed, ex)
		}
		qc.SortExplanations(streamed)
		fresh, err := sess.WhySo(ctx, q, "Musical")
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Rank(ctx, qc.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range want {
			if ex.Tuple == manon {
				t.Fatalf("the deleted tuple %d is in the fresh ranking", manon)
			}
		}
		if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
			t.Errorf("Rank after Delete ranks a stale state:\n got %s\nwant %s", g, w)
		}
		if s, w := mustJSON(t, streamed), mustJSON(t, want); s != w {
			t.Errorf("RankStream after Delete ranks a stale state:\n got %s\nwant %s", s, w)
		}
		if after, err := stale.Causes(ctx); err != nil || mustJSON(t, after) != mustJSON(t, before) {
			t.Errorf("Causes after Delete = %v (%v), want the causes as of WhySo %v", after, err, before)
		}
	})
}

// TestSessionMutate: Insert and Delete behave identically on both
// transports — ids assigned in order from a never-reused sequence, and
// post-mutation rankings byte-identical to an in-process replay of the
// same mutation sequence.
func TestSessionMutate(t *testing.T) {
	q, err := qc.ParseQuery("q(x) :- R(x,y), S(y)")
	if err != nil {
		t.Fatal(err)
	}
	// The reference: replay the same mutations directly on a database
	// and rank in-process. A fresh upload of the final state would
	// renumber the tuples — the sequence is part of the contract.
	ref := mutateChainDB()
	ref.MustAdd("R", true, "a6", "a9") // 4
	ref.MustAdd("S", true, "a9")       // 5
	if err := ref.Delete(2); err != nil {
		t.Fatal(err)
	}
	rank := func(t *testing.T, db *qc.Database, answer qc.Value) string {
		t.Helper()
		return mustJSON(t, localRank(t, db, q, answer))
	}
	wantA4, wantA6 := rank(t, ref, "a4"), rank(t, ref, "a6")

	bothTransportsFresh(t, mutateChainDB, func(t *testing.T, sess qc.Session) {
		ctx := context.Background()
		ids, err := sess.Insert(ctx,
			qc.TupleSpec{Rel: "R", Args: []string{"a6", "a9"}, Endo: true},
			qc.TupleSpec{Rel: "S", Args: []string{"a9"}, Endo: true})
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if len(ids) != 2 || ids[0] != 4 || ids[1] != 5 {
			t.Fatalf("Insert ids = %v, want [4 5]", ids)
		}
		if err := sess.Delete(ctx, 2); err != nil { // S(a2): kills answer a5
			t.Fatalf("Delete: %v", err)
		}
		for _, tc := range []struct {
			answer qc.Value
			want   string
		}{{"a4", wantA4}, {"a6", wantA6}} {
			r, err := sess.WhySo(ctx, q, tc.answer)
			if err != nil {
				t.Fatalf("WhySo %s after mutations: %v", tc.answer, err)
			}
			got, err := r.Rank(ctx)
			if err != nil {
				t.Fatalf("Rank %s: %v", tc.answer, err)
			}
			if s := mustJSON(t, got); s != tc.want {
				t.Errorf("ranking of %s diverges from in-process replay:\n got %s\nwant %s", tc.answer, s, tc.want)
			}
		}

		// Dead and unknown ids fail with the tuple-not-found sentinel.
		if err := sess.Delete(ctx, 2); !errors.Is(err, qc.ErrTupleNotFound) {
			t.Errorf("double Delete: err = %v; want ErrTupleNotFound", err)
		}
		if err := sess.Delete(ctx, 99); !errors.Is(err, qc.ErrTupleNotFound) {
			t.Errorf("Delete of unknown id: err = %v; want ErrTupleNotFound", err)
		}
		// Bad batches fail atomically with ErrBadInstance...
		if _, err := sess.Insert(ctx); !errors.Is(err, qc.ErrBadInstance) {
			t.Errorf("empty Insert: err = %v; want ErrBadInstance", err)
		}
		if _, err := sess.Insert(ctx,
			qc.TupleSpec{Rel: "S", Args: []string{"ok"}, Endo: true},
			qc.TupleSpec{Rel: "S", Args: []string{"too", "wide"}, Endo: true},
		); !errors.Is(err, qc.ErrBadInstance) {
			t.Errorf("arity-mismatch Insert: err = %v; want ErrBadInstance", err)
		}
		// ...so the next id proves the half-good batch applied nothing.
		ids, err = sess.Insert(ctx, qc.TupleSpec{Rel: "S", Args: []string{"a8"}, Endo: true})
		if err != nil {
			t.Fatalf("Insert after rejected batch: %v", err)
		}
		if len(ids) != 1 || ids[0] != 6 {
			t.Fatalf("Insert after rejected batch ids = %v, want [6]", ids)
		}

		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Insert(ctx, qc.TupleSpec{Rel: "S", Args: []string{"x"}}); !errors.Is(err, qc.ErrSessionClosed) {
			t.Errorf("Insert after Close: err = %v; want ErrSessionClosed", err)
		}
		if err := sess.Delete(ctx, 0); !errors.Is(err, qc.ErrSessionClosed) {
			t.Errorf("Delete after Close: err = %v; want ErrSessionClosed", err)
		}
	})
}

// TestDialMutatedDatabase: Dial of a database with deletions keeps the
// shared tuple-ID space. The upload carries the husk of the deleted
// R(a), so both transports rank the same tuple IDs byte-identically,
// and Insert and Delete mirror: the server assigns the IDs the local
// database does.
func TestDialMutatedDatabase(t *testing.T) {
	q, err := qc.ParseQuery("q :- R(x), S(x)")
	if err != nil {
		t.Fatal(err)
	}
	mkDB := func() *qc.Database {
		db := qc.NewDatabase()
		db.MustAdd("R", true, "a") // 0, deleted
		db.MustAdd("R", true, "b") // 1
		db.MustAdd("S", true, "b") // 2
		if err := db.Delete(0); err != nil {
			t.Fatal(err)
		}
		return db
	}
	mutated := func() *qc.Database {
		db := mkDB()
		db.MustAdd("R", true, "c") // 3
		db.MustAdd("S", true, "c") // 4
		if err := db.Delete(1); err != nil {
			t.Fatal(err)
		}
		return db
	}
	want, wantAfter := mustJSON(t, localRank(t, mkDB(), q)), mustJSON(t, localRank(t, mutated(), q))
	rank := func(t *testing.T, sess qc.Session) string {
		t.Helper()
		r, err := sess.WhySo(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		exps, err := r.Rank(context.Background(), qc.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		return mustJSON(t, exps)
	}
	bothTransportsFresh(t, mkDB, func(t *testing.T, sess qc.Session) {
		ctx := context.Background()
		if got := rank(t, sess); got != want {
			t.Fatalf("ranking of the mutated database:\n got %s\nwant %s", got, want)
		}
		ids, err := sess.Insert(ctx,
			qc.TupleSpec{Rel: "R", Args: []string{"c"}, Endo: true},
			qc.TupleSpec{Rel: "S", Args: []string{"c"}, Endo: true})
		if err != nil || !slices.Equal(ids, []qc.TupleID{3, 4}) {
			t.Fatalf("Insert = %v, %v; want ids [3 4]", ids, err)
		}
		if err := sess.Delete(ctx, 1); err != nil {
			t.Fatalf("Delete(1): %v", err)
		}
		if got := rank(t, sess); got != wantAfter {
			t.Fatalf("ranking after Insert and Delete:\n got %s\nwant %s", got, wantAfter)
		}
	})
}
