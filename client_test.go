package querycause_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	qc "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/imdb"
	"github.com/querycause/querycause/internal/server"
)

func startServer(t *testing.T) *qc.Client {
	t.Helper()
	srv := server.New(server.Config{ReapInterval: -1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return qc.NewClient(ts.URL, nil)
}

// TestClientRoundTrip drives the full client surface against an
// in-process server and cross-validates the wire ranking with the
// library: the paper's Fig. 2b Musical ranking must come back over
// HTTP byte-for-byte.
func TestClientRoundTrip(t *testing.T) {
	ctx := context.Background()
	c := startServer(t)
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}

	db, _ := imdb.Micro()
	info, err := c.UploadDB(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if info.Tuples != db.NumTuples() {
		t.Fatalf("uploaded %d tuples; db has %d", info.Tuples, db.NumTuples())
	}

	q := imdb.GenreQuery()
	prep, err := c.PrepareQuery(ctx, info.ID, q.String())
	if err != nil {
		t.Fatal(err)
	}

	got, err := c.WhySo(ctx, info.ID, prep.ID, qc.ExplainRequest{Answer: []string{"Musical"}})
	if err != nil {
		t.Fatal(err)
	}

	want := localRank(t, db, q, "Musical")
	if len(got.Explanations) != len(want) {
		t.Fatalf("wire ranking has %d causes; library has %d", len(got.Explanations), len(want))
	}
	for i, e := range got.Explanations {
		w := want[i]
		if e.Rho != w.Rho || e.TupleID != int(w.Tuple) || e.ContingencySize != w.ContingencySize {
			t.Errorf("cause %d: wire %+v vs library %+v", i, e, w)
		}
	}

	// Warm repeat skips engine construction.
	warm, err := c.WhySo(ctx, info.ID, prep.ID, qc.ExplainRequest{Answer: []string{"Musical"}})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.EngineCached {
		t.Error("repeat explain did not hit the engine cache")
	}

	// Batch over every genre answer matches ExplainAll semantics.
	batch, err := c.Batch(ctx, info.ID, qc.BatchExplainRequest{Requests: []qc.BatchItem{
		{QueryID: prep.ID, Answer: []string{"Musical"}},
		{Query: "q :- Director(d, f, l)"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range batch.Results {
		if r.Error != "" || r.Causes == 0 {
			t.Errorf("batch item %d: %+v", i, r)
		}
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 1 || st.EngineCache.Hits == 0 {
		t.Errorf("stats = %+v; want 1 session with engine-cache hits", st)
	}

	dbs, err := c.ListDatabases(ctx)
	if err != nil || len(dbs) != 1 {
		t.Fatalf("ListDatabases = %v, %v; want 1 session", dbs, err)
	}
	if err := c.DropDatabase(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PrepareQuery(ctx, info.ID, q.String()); err == nil {
		t.Error("prepare against dropped session succeeded")
	}
}

// TestClientWhyNo exercises the why-no path over the wire.
func TestClientWhyNo(t *testing.T) {
	ctx := context.Background()
	c := startServer(t)

	// Candidate insertions are endogenous; the real database exogenous.
	text := "-R(a,b)\n+S(b)\n+S(c)\n"
	info, err := c.UploadDatabase(ctx, text)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.WhyNo(ctx, info.ID, "", qc.ExplainRequest{Query: "q :- R(x,y), S(y)"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.WhyNo || len(resp.Explanations) == 0 {
		t.Fatalf("whyno response = %+v; want explanations", resp)
	}
	if resp.Explanations[0].Method != "why-no-closed-form" {
		t.Errorf("method = %q; want why-no-closed-form", resp.Explanations[0].Method)
	}
}

// TestClientAPIError checks 4xx surfaces as a typed APIError.
func TestClientAPIError(t *testing.T) {
	ctx := context.Background()
	c := startServer(t)
	_, err := c.UploadDatabase(ctx, "not a database")
	var apiErr *qc.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v; want *APIError", err)
	}
	if apiErr.StatusCode != 400 || !strings.Contains(apiErr.Message, "parser") {
		t.Errorf("APIError = %+v; want 400 with parser message", apiErr)
	}
}

// TestFormatDatabaseRoundTrip checks the serialization the client uses
// to upload in-memory databases.
func TestFormatDatabaseRoundTrip(t *testing.T) {
	db := qc.NewDatabase()
	db.MustAdd("R", true, "a1", "a2")
	db.MustAdd("R", false, "with space", "comma,value")
	db.MustAdd("S", true, "quote'd", "hash#tag")
	text, err := qc.FormatDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	back, err := qc.ParseDatabase(strings.NewReader(text))
	if err != nil {
		t.Fatalf("round trip parse: %v\ntext:\n%s", err, text)
	}
	if back.NumTuples() != db.NumTuples() {
		t.Fatalf("round trip lost tuples: %d vs %d", back.NumTuples(), db.NumTuples())
	}
	for i := 0; i < db.NumTuples(); i++ {
		a, b := db.Tuple(qc.TupleID(i)), back.Tuple(qc.TupleID(i))
		if a.String() != b.String() || a.Endo != b.Endo {
			t.Errorf("tuple %d: %v vs %v", i, a, b)
		}
	}
}
