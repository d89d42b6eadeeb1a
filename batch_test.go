package querycause_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	qc "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/imdb"
	"github.com/querycause/querycause/internal/ra"
)

// TestExplainAllMatchesSerial batches every answer of the genre query
// on a synthetic IMDB and checks each ranking against the one-worker
// WhySo+Rank path, at several parallelism degrees.
func TestExplainAllMatchesSerial(t *testing.T) {
	db := imdb.Synthetic(imdb.Config{Seed: 7, Directors: 40})
	q := imdb.GenreQuery()
	ans, err := ra.Answers(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) < 2 {
		t.Fatalf("want a multi-answer workload, got %d answers", len(ans))
	}
	var reqs []qc.BatchRequest
	want := make([][]qc.Explanation, len(ans))
	for i, a := range ans {
		reqs = append(reqs, qc.BatchRequest{Query: q, Answer: a.Values})
		want[i] = localRank(t, db, q, a.Values...)
	}
	sess := openLocal(t, db)
	for _, par := range []int{0, 1, 3} {
		results, err := sess.ExplainAll(context.Background(), reqs, qc.WithParallelism(par))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(results) != len(reqs) {
			t.Fatalf("parallelism %d: got %d results, want %d", par, len(results), len(reqs))
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("parallelism %d, request %d: %v", par, i, r.Err)
			}
			if !reflect.DeepEqual(r.Explanations, want[i]) {
				t.Fatalf("parallelism %d, request %d: batch ranking differs from serial", par, i)
			}
		}
	}
}

// TestExplainAllMixedAndErrors mixes Why-So, Why-No and an invalid
// request in one batch: the bad request must fail alone.
func TestExplainAllMixedAndErrors(t *testing.T) {
	whyNoDB, err := qc.ParseDatabase(strings.NewReader("-R(a, b)\n+S(b)\n+S(c)\n"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := qc.ParseQuery("q :- R(x,y), S(y)")
	if err != nil {
		t.Fatal(err)
	}
	boolQ, err := qc.ParseQuery("q :- S(y)")
	if err != nil {
		t.Fatal(err)
	}
	headQ, err := qc.ParseQuery("q(x) :- R(x,y), S(y)")
	if err != nil {
		t.Fatal(err)
	}
	reqs := []qc.BatchRequest{
		{Query: q, WhyNo: true},
		{Query: boolQ},
		{Query: headQ, Answer: []qc.Value{"a", "b"}}, // arity mismatch
	}
	results, err := openLocal(t, whyNoDB).ExplainAll(context.Background(), reqs, qc.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || len(results[0].Explanations) == 0 {
		t.Fatalf("why-no request: err=%v, %d explanations", results[0].Err, len(results[0].Explanations))
	}
	if results[1].Err != nil {
		t.Fatalf("boolean request: %v", results[1].Err)
	}
	if results[2].Err == nil {
		t.Fatal("arity-mismatch request: expected a per-request error")
	}
}

// TestExplainAllSingleRequest checks the degenerate one-request batch
// (which hands its whole worker budget to ranking that request's
// causes) and empty batches.
func TestExplainAllSingleRequest(t *testing.T) {
	db, _ := imdb.Micro()
	q := imdb.GenreQuery()
	want := localRank(t, db, q, "Musical")

	sess := openLocal(t, db)
	results, err := sess.ExplainAll(context.Background(),
		[]qc.BatchRequest{{Query: q, Answer: []qc.Value{"Musical"}}}, qc.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || !reflect.DeepEqual(results[0].Explanations, want) {
		t.Fatalf("single-request batch diverged from serial (err=%v)", results[0].Err)
	}

	empty, err := sess.ExplainAll(context.Background(), nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(empty))
	}
}

// TestExplainAllCancellation: a canceled context aborts the batch.
func TestExplainAllCancellation(t *testing.T) {
	db, _ := imdb.Micro()
	q := imdb.GenreQuery()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []qc.BatchRequest{
		{Query: q, Answer: []qc.Value{"Musical"}},
		{Query: q, Answer: []qc.Value{"Musical"}},
	}
	if _, err := openLocal(t, db).ExplainAll(ctx, reqs, qc.WithParallelism(2)); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
