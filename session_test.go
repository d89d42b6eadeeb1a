package querycause_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	qc "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/imdb"
	"github.com/querycause/querycause/internal/server"
	"github.com/querycause/querycause/internal/workload"
)

// bothTransports opens an in-process and a Dial'ed session over the
// same database and runs the test body against each.
func bothTransports(t *testing.T, db *qc.Database, opts []qc.Option, body func(t *testing.T, sess qc.Session)) {
	t.Helper()
	t.Run("local", func(t *testing.T) {
		sess, err := qc.Open(db, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		body(t, sess)
	})
	t.Run("remote", func(t *testing.T) {
		srv := server.New(server.Config{ReapInterval: -1})
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			ts.Close()
			srv.Close()
		}()
		sess, err := qc.Dial(context.Background(), ts.URL, db, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		body(t, sess)
	})
}

// openLocal opens an in-process session over db, closed when the test
// ends.
func openLocal(t testing.TB, db *qc.Database, opts ...qc.Option) qc.Session {
	t.Helper()
	sess, err := qc.Open(db, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

// localRank is the in-process reference ranking of one answer: WhySo
// on a fresh local session, ranked on one worker.
func localRank(t testing.TB, db *qc.Database, q *qc.Query, answer ...qc.Value) []qc.Explanation {
	t.Helper()
	r, err := openLocal(t, db).WhySo(context.Background(), q, answer...)
	if err != nil {
		t.Fatal(err)
	}
	exps, err := r.Rank(context.Background(), qc.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	return exps
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestSessionTransportEquivalence: the same instance explained through
// Open and Dial must agree byte-for-byte — causes, blocking rankings,
// and drained streams — on both sides of the dichotomy and for
// Why-No.
func TestSessionTransportEquivalence(t *testing.T) {
	micro, _ := imdb.Micro()
	starDB, starQ, _ := workload.Star(3, 5)
	whyNoDB, whyNoQ := workload.WhyNoChain(11, 8)

	cases := []struct {
		name   string
		db     *qc.Database
		q      *qc.Query
		answer []qc.Value
		whyNo  bool
	}{
		{name: "flow/imdb-musical", db: micro, q: imdb.GenreQuery(), answer: []qc.Value{"Musical"}},
		{name: "exact/star-h1", db: starDB, q: starQ},
		{name: "whyno/chain", db: whyNoDB, q: whyNoQ, whyNo: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// The in-process ranking on one worker is the reference both
			// transports must reproduce at every parallelism.
			ref := openLocal(t, tc.db)
			var refRanking qc.Ranking
			var err error
			if tc.whyNo {
				refRanking, err = ref.WhyNo(context.Background(), tc.q, tc.answer...)
			} else {
				refRanking, err = ref.WhySo(context.Background(), tc.q, tc.answer...)
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := refRanking.Rank(context.Background(), qc.WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			wantJSON := mustJSON(t, want)
			wantCauses, _ := refRanking.Causes(context.Background())

			bothTransports(t, tc.db, nil, func(t *testing.T, sess qc.Session) {
				ctx := context.Background()
				var r qc.Ranking
				var err error
				if tc.whyNo {
					r, err = sess.WhyNo(ctx, tc.q, tc.answer...)
				} else {
					r, err = sess.WhySo(ctx, tc.q, tc.answer...)
				}
				if err != nil {
					t.Fatal(err)
				}
				causes, err := r.Causes(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(causes, wantCauses) {
					t.Errorf("Causes = %v; want %v", causes, wantCauses)
				}
				for _, par := range []int{0, 1, 4} {
					got, err := r.Rank(ctx, qc.WithParallelism(par))
					if err != nil {
						t.Fatal(err)
					}
					if gotJSON := mustJSON(t, got); gotJSON != wantJSON {
						t.Errorf("parallelism %d: Rank differs from reference\ngot:  %s\nwant: %s", par, gotJSON, wantJSON)
					}
				}
				// Drained stream sorted = Rank, byte-for-byte, in both
				// emission orders.
				for _, deterministic := range []bool{true, false} {
					var streamed []qc.Explanation
					for ex, serr := range r.RankStream(ctx, qc.WithDeterministic(deterministic), qc.WithParallelism(3)) {
						if serr != nil {
							t.Fatalf("deterministic=%v: stream error: %v", deterministic, serr)
						}
						streamed = append(streamed, ex)
					}
					qc.SortExplanations(streamed)
					if gotJSON := mustJSON(t, streamed); gotJSON != wantJSON {
						t.Errorf("deterministic=%v: drained stream differs\ngot:  %s\nwant: %s", deterministic, gotJSON, wantJSON)
					}
				}
				// Deterministic stream emission follows cause order.
				i := 0
				for ex, serr := range r.RankStream(ctx) {
					if serr != nil {
						t.Fatal(serr)
					}
					if ex.Tuple != causes[i] {
						t.Fatalf("deterministic emission %d = tuple %d; want %d", i, ex.Tuple, causes[i])
					}
					i++
				}
				// ExplainAll over the same request matches Rank.
				batch, err := sess.ExplainAll(ctx, []qc.BatchRequest{{Query: tc.q, Answer: tc.answer, WhyNo: tc.whyNo}})
				if err != nil {
					t.Fatal(err)
				}
				if len(batch) != 1 || batch[0].Err != nil {
					t.Fatalf("ExplainAll = %+v", batch)
				}
				if gotJSON := mustJSON(t, batch[0].Explanations); gotJSON != wantJSON {
					t.Errorf("ExplainAll differs from Rank\ngot:  %s\nwant: %s", gotJSON, wantJSON)
				}
			})
		})
	}
}

// TestSessionErrorParity: the same invalid inputs must fail with
// errors.Is-equal sentinels on both transports.
func TestSessionErrorParity(t *testing.T) {
	// The real (exogenous) database already satisfies q(a), so a
	// Why-No request for "a" is invalid; +S(c) keeps one candidate
	// tuple around so the database has an endogenous part.
	db := qc.NewDatabase()
	db.MustAdd("R", false, "a", "b")
	db.MustAdd("S", false, "b")
	db.MustAdd("S", true, "c")
	chain, err := qc.ParseQuery("q(x) :- R(x,y), S(y)")
	if err != nil {
		t.Fatal(err)
	}

	bothTransports(t, db, nil, func(t *testing.T, sess qc.Session) {
		ctx := context.Background()
		// Binding arity mismatch → ErrBadInstance.
		if _, err := sess.WhySo(ctx, chain, "a", "extra"); !errors.Is(err, qc.ErrBadInstance) {
			t.Errorf("WhySo arity mismatch: err = %v; want ErrBadInstance (code %q)", err, qc.ErrorCode(err))
		}
		// The query holds already, so it is not a valid Why-No instance
		// → ErrInvalidWhyNo.
		if _, err := sess.WhyNo(ctx, chain, "a"); !errors.Is(err, qc.ErrInvalidWhyNo) {
			t.Errorf("WhyNo on an answer: err = %v; want ErrInvalidWhyNo (code %q)", err, qc.ErrorCode(err))
		}
		// Per-item batch failures carry the same sentinels.
		batch, err := sess.ExplainAll(ctx, []qc.BatchRequest{
			{Query: chain, Answer: []qc.Value{"a"}},
			{Query: chain, Answer: []qc.Value{"a"}, WhyNo: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if batch[0].Err != nil {
			t.Errorf("valid batch item failed: %v", batch[0].Err)
		}
		if !errors.Is(batch[1].Err, qc.ErrInvalidWhyNo) {
			t.Errorf("batch why-no item: err = %v; want ErrInvalidWhyNo", batch[1].Err)
		}
		// Close, then every call fails with ErrSessionClosed.
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.WhySo(ctx, chain, "a"); !errors.Is(err, qc.ErrSessionClosed) {
			t.Errorf("WhySo after Close: err = %v; want ErrSessionClosed", err)
		}
		if _, err := sess.ExplainAll(ctx, nil); !errors.Is(err, qc.ErrSessionClosed) {
			t.Errorf("ExplainAll after Close: err = %v; want ErrSessionClosed", err)
		}
	})
}

// TestDialSessionEvicted: a server-side eviction surfaces as
// ErrSessionNotFound on the next call.
func TestDialSessionEvicted(t *testing.T) {
	srv := server.New(server.Config{ReapInterval: -1})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	db, _ := imdb.Micro()
	sess, err := qc.Dial(context.Background(), ts.URL, db)
	if err != nil {
		t.Fatal(err)
	}
	// Evict everything behind the session's back.
	srv.EvictIdle()
	for _, id := range []string{"d1"} {
		_ = id
	}
	// Directly drop via a second client.
	c := qc.NewClient(ts.URL, nil)
	dbs, err := c.ListDatabases(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range dbs {
		if err := c.DropDatabase(context.Background(), info.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.WhySo(context.Background(), imdb.GenreQuery(), "Musical"); !errors.Is(err, qc.ErrSessionNotFound) {
		t.Errorf("WhySo on evicted session: err = %v; want ErrSessionNotFound", err)
	}
	// Close on an already-dropped session is not an error.
	if err := sess.Close(); err != nil {
		t.Errorf("Close after server-side drop: %v", err)
	}
}

// TestSessionOptions: WithMode reaches the engine, WithTimeout bounds
// calls on both transports.
func TestSessionOptions(t *testing.T) {
	starDB, starQ, _ := workload.Star(3, 5)
	bothTransports(t, starDB, []qc.Option{qc.WithMode(qc.ModeExact)}, func(t *testing.T, sess qc.Session) {
		r, err := sess.WhySo(context.Background(), starQ)
		if err != nil {
			t.Fatal(err)
		}
		exps, err := r.Rank(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range exps {
			if ex.Method != qc.MethodExact && ex.Method != qc.MethodCounterfactual {
				t.Errorf("ModeExact session produced method %v", ex.Method)
			}
		}
	})

	// A nanosecond per-call budget must kill the call with a deadline
	// error on the local transport and a deadline/budget error
	// remotely.
	bothTransports(t, starDB, nil, func(t *testing.T, sess qc.Session) {
		r, err := sess.WhySo(context.Background(), starQ)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Rank(context.Background(), qc.WithTimeout(time.Nanosecond)); err == nil {
			t.Fatal("nanosecond-budget Rank succeeded")
		} else if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, qc.ErrBudgetExceeded) {
			t.Errorf("err = %v; want deadline or budget error", err)
		}
	})
}

// TestRemoteStreamEarlyBreak: breaking out of a remote stream closes
// the response and leaves the session usable.
func TestRemoteStreamEarlyBreak(t *testing.T) {
	srv := server.New(server.Config{ReapInterval: -1})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	starDB, starQ, _ := workload.Star(3, 8)
	sess, err := qc.Dial(context.Background(), ts.URL, starDB, qc.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	r, err := sess.WhySo(context.Background(), starQ)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, serr := range r.RankStream(context.Background()) {
		if serr != nil {
			t.Fatal(serr)
		}
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("consumed %d explanations before break", n)
	}
	// The session keeps working after the abandoned stream.
	if _, err := r.Rank(context.Background()); err != nil {
		t.Fatal(err)
	}
}
