package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"testing"

	"github.com/querycause/querycause/internal/imdb"
	"github.com/querycause/querycause/internal/rel"
)

// checkTuples asserts the compact-wire contract on one response or
// frame: tuples holds exactly the ids the explanations' contingency_ids
// name, each rendered as db renders it. It reports how many tuples the
// table holds.
func checkTuples(t *testing.T, what string, db *rel.Database, tuples map[int]string, exps ...ExplanationDTO) int {
	t.Helper()
	want := make(map[int]string)
	for _, d := range exps {
		if d.Tuple != db.Tuple(rel.TupleID(d.TupleID)).String() {
			t.Fatalf("%s: cause %d renders %q, want %q", what, d.TupleID, d.Tuple, db.Tuple(rel.TupleID(d.TupleID)))
		}
		for _, id := range d.ContingencyIDs {
			want[id] = db.Tuple(rel.TupleID(id)).String()
		}
	}
	if !maps.Equal(tuples, want) {
		t.Fatalf("%s: tuples = %v\nwant %v", what, tuples, want)
	}
	return len(tuples)
}

// TestTupleTables: whyso, batch, the stream's done event, and watch
// snapshot and diff frames each render every contingency tuple they
// name exactly once, in one tuples table, and nothing else.
func TestTupleTables(t *testing.T) {
	_, ts := newStreamTestServer(t)
	dbID := uploadMicro(t, ts)
	db, _ := imdb.Micro() // the upload keeps tuple order, so ids agree
	q := imdb.GenreQuery().String()
	musical := []string{"Musical"}
	base := ts.URL + "/v1/databases/" + dbID

	var exp ExplainResponse
	if code := call(t, http.MethodPost, base+"/whyso", ExplainRequest{Query: q, Answer: musical}, &exp); code != 200 {
		t.Fatalf("whyso: status %d", code)
	}
	if checkTuples(t, "whyso", db, exp.Tuples, exp.Explanations...) == 0 {
		t.Fatal("whyso: Fig. 2b ranking names no contingency tuples; the check proves nothing")
	}

	var batch BatchExplainResponse
	if code := call(t, http.MethodPost, base+"/batch", BatchExplainRequest{Requests: []BatchItem{
		{Query: q, Answer: musical},
		{Query: q, Answer: musical, WhyNo: true},
		{Query: "not a query"},
	}}, &batch); code != 200 {
		t.Fatalf("batch: status %d", code)
	}
	if batch.Results[0].Error != "" || batch.Results[1].Error != "" || batch.Results[2].Error == "" {
		t.Fatalf("batch results = %+v; want items 0 and 1 ranked, item 2 failed", batch.Results)
	}
	for i, res := range batch.Results {
		checkTuples(t, fmt.Sprintf("batch item %d", i), db, res.Tuples, res.Explanations...)
	}
	if !maps.Equal(batch.Results[0].Tuples, exp.Tuples) {
		t.Fatalf("batch table %v != whyso table %v", batch.Results[0].Tuples, exp.Tuples)
	}

	resp := postJSON(t, ts, "/v1/databases/"+dbID+"/explain/stream",
		StreamExplainRequest{Query: q, Answer: musical, Parallelism: 2, CompletionOrder: true})
	defer resp.Body.Close()
	var streamed []ExplanationDTO
	var done *StreamDone
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("malformed event %q: %v", sc.Text(), err)
		}
		switch {
		case ev.Explanation != nil:
			streamed = append(streamed, *ev.Explanation)
		case ev.Done != nil:
			done = ev.Done
		default:
			t.Fatalf("unexpected stream event %s", sc.Text())
		}
	}
	if done == nil {
		t.Fatal("stream ended without a done event")
	}
	checkTuples(t, "stream done", db, done.Tuples, streamed...)
	if !maps.Equal(done.Tuples, exp.Tuples) {
		t.Fatalf("stream table %v != whyso table %v", done.Tuples, exp.Tuples)
	}

	ws := openWatch(t, ts.URL, dbID, WatchRequest{Query: q, Answer: musical})
	snap := ws.next()
	if snap.Type != "snapshot" {
		t.Fatalf("first frame = %+v; want snapshot", snap)
	}
	checkTuples(t, "watch snapshot", db, snap.Tuples, snap.Ranking...)

	// A second Tim Burton musical adds a witness: causes join and every
	// contingency moves, so the diff names contingency tuples. The local
	// replica takes the same inserts to keep ids aligned.
	specs := []TupleSpec{
		{Rel: "Movie", Args: []string{"999", "Beetlejuice", "1988", "0"}, Endo: true},
		{Rel: "MovieDirectors", Args: []string{"23488", "999"}},
		{Rel: "Genre", Args: []string{"999", "Musical"}},
	}
	for _, s := range specs {
		args := make([]rel.Value, len(s.Args))
		for i, a := range s.Args {
			args[i] = rel.Value(a)
		}
		db.MustAdd(s.Rel, s.Endo, args...)
	}
	insertTuples(t, ts.URL, dbID, specs...)
	diff := ws.next()
	if diff.Type != "diff" {
		t.Fatalf("mutation frame = %+v; want diff", diff)
	}
	named := append([]ExplanationDTO(nil), diff.CausesAdded...)
	for _, c := range diff.RankChanged {
		named = append(named, c.New)
	}
	if checkTuples(t, "watch diff", db, diff.Tuples, named...) == 0 {
		t.Fatalf("diff %+v names no contingency tuples; the check proves nothing", diff)
	}
}
