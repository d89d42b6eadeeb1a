package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/rewrite"
)

func chainDB(t *testing.T) (*rel.Database, *rel.Query) {
	t.Helper()
	db := rel.NewDatabase()
	db.MustAdd("R", true, "x1", "y2")
	db.MustAdd("R", true, "x2", "y1")
	db.MustAdd("S", true, "y2", "z1")
	db.MustAdd("S", true, "y1", "z1")
	q := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("z")),
	)
	return db, q
}

// TestPrimeSkipsReclassification checks that a primed engine hands back
// the seeded certificate object rather than re-running the classifier,
// and that primed and lazy engines agree on the ranking.
func TestPrimeSkipsReclassification(t *testing.T) {
	db, q := chainDB(t)

	lazy, err := NewWhySo(db, q)
	if err != nil {
		t.Fatal(err)
	}
	sound, err := lazy.Classification()
	if err != nil {
		t.Fatal(err)
	}
	paper, err := lazy.PaperClassification()
	if err != nil {
		t.Fatal(err)
	}

	primed, err := NewWhySo(db, q)
	if err != nil {
		t.Fatal(err)
	}
	primed.Prime(sound, paper)
	got, err := primed.Classification()
	if err != nil {
		t.Fatal(err)
	}
	if got != sound {
		t.Errorf("Classification() = %p; want the primed certificate %p", got, sound)
	}
	gotPaper, err := primed.PaperClassification()
	if err != nil {
		t.Fatal(err)
	}
	if gotPaper != paper {
		t.Errorf("PaperClassification() = %p; want the primed certificate %p", gotPaper, paper)
	}

	want, err := lazy.RankAll(ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	gotRank, err := primed.RankAll(ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(want) != fmt.Sprint(gotRank) {
		t.Errorf("primed ranking diverged:\n got %v\nwant %v", gotRank, want)
	}
}

// TestPrimeDoesNotOverwrite checks Prime is first-writer-wins: once a
// certificate is computed or seeded, later Prime calls are no-ops.
func TestPrimeDoesNotOverwrite(t *testing.T) {
	db, q := chainDB(t)
	e, err := NewWhySo(db, q)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Classification()
	if err != nil {
		t.Fatal(err)
	}
	other := &rewrite.Certificate{}
	e.Prime(other, nil)
	got, err := e.Classification()
	if err != nil {
		t.Fatal(err)
	}
	if got != first {
		t.Error("Prime overwrote an already-computed certificate")
	}
}

// TestExplainBatchFactory checks that a custom EngineFactory is used
// for every request (e.g. a server cache handing out shared engines)
// and that its results match the default factory's.
func TestExplainBatchFactory(t *testing.T) {
	db, q := chainDB(t)
	reqs := []BatchRequest{{Query: q}, {Query: q}, {Query: q, WhyNo: false}}

	def, err := ExplainBatch(context.Background(), db, reqs, BatchRunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	shared, err := NewWhySo(db, q)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	got, err := ExplainBatch(context.Background(), db, reqs, BatchRunOptions{
		Workers: 2,
		NewEngine: func(d *rel.Database, i int, r BatchRequest) (*Engine, error) {
			calls.Add(1)
			return shared, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(calls.Load()) != len(reqs) {
		t.Errorf("factory called %d times; want %d", calls.Load(), len(reqs))
	}
	if fmt.Sprint(got) != fmt.Sprint(def) {
		t.Errorf("factory-backed batch diverged:\n got %v\nwant %v", got, def)
	}
}

// TestExplainBatchPerRequestError checks an invalid request fails alone.
func TestExplainBatchPerRequestError(t *testing.T) {
	db, q := chainDB(t)
	bad := rel.NewBoolean(rel.NewAtom("R", rel.V("x"))) // arity mismatch
	res, err := ExplainBatch(context.Background(), db, []BatchRequest{{Query: q}, {Query: bad}}, BatchRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Errorf("good request failed: %v", res[0].Err)
	}
	if res[1].Err == nil {
		t.Error("bad request did not fail")
	}
}

// TestPrimeFromRenamedQuery: a server caches certificates per shape,
// so an engine may be primed with the certificates of a query that
// differs from its own only in variable names. The flow network is laid
// out by variable position, not name, so the ranking must equal an
// unprimed engine's — also when the names are permuted, so that a
// lookup by name would land on the other interface.
func TestPrimeFromRenamedQuery(t *testing.T) {
	chain := func(r, s1, s2, tv string) *rel.Query {
		return &rel.Query{Name: "q", Head: []rel.Term{rel.V(r)}, Atoms: []rel.Atom{
			rel.NewAtom("R", rel.V(r), rel.V(s1)),
			rel.NewAtom("S", rel.V(s1), rel.V(s2)),
			rel.NewAtom("T", rel.V(tv)),
		}}
	}
	q := chain("x", "y", "z", "z")
	others := map[string]*rel.Query{
		"renamed":  chain("a", "b", "c", "c"),
		"permuted": chain("x", "z", "y", "y"),
	}
	rng := rand.New(rand.NewSource(5))
	dom := []rel.Value{"0", "1", "2", "3"}
	v := func() rel.Value { return dom[rng.Intn(len(dom))] }
	flowed := 0
	for trial := 0; trial < 60; trial++ {
		db := rel.NewDatabase()
		for i := 0; i < 8; i++ {
			db.MustAdd("R", rng.Intn(4) != 0, "a", v())
			db.MustAdd("S", rng.Intn(4) != 0, v(), v())
		}
		for i := 0; i < 3; i++ {
			db.MustAdd("T", rng.Intn(4) != 0, v())
		}
		lazy, err := NewWhySo(db, q, "a")
		if err != nil {
			t.Fatal(err)
		}
		want, err := lazy.RankAll(ModeAuto)
		if err != nil {
			t.Fatal(err)
		}
		if lazy.nets[ModeAuto] == nil {
			continue // no cause, or all counterfactual: no network
		}
		flowed++
		for name, other := range others {
			src, err := NewWhySo(db, other, "a")
			if err != nil {
				t.Fatal(err)
			}
			sound, err := src.Classification()
			if err != nil {
				t.Fatal(err)
			}
			primed, err := NewWhySo(db, q, "a")
			if err != nil {
				t.Fatal(err)
			}
			primed.Prime(sound, nil)
			got, err := primed.RankAll(ModeAuto)
			if err != nil {
				t.Errorf("trial %d %s: %v", trial, name, err)
				continue
			}
			if primed.nets[ModeAuto] == nil {
				t.Errorf("trial %d %s: primed engine built no network", trial, name)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("trial %d %s: primed ranking diverged:\n got %v\nwant %v", trial, name, got, want)
			}
		}
	}
	if flowed < 10 {
		t.Fatalf("only %d instances reached the flow path", flowed)
	}
}
