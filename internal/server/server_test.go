package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/parser"
	"github.com/querycause/querycause/internal/workload"
)

// chainDBText is Example 2.2-style data for q(x) :- R(x,y), S(y).
const chainDBText = `
# chain instance
+R(a4, a3)
+S(a3)
+S(a2)
+R(a5, a2)
`

func newTest(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.ReapInterval == 0 {
		cfg.ReapInterval = -1 // tests drive EvictIdle directly
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// call sends a JSON (or raw text) request and decodes the response into
// out when non-nil, returning the status code.
func call(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	contentType := ""
	switch b := body.(type) {
	case nil:
	case string:
		rd = strings.NewReader(b)
		contentType = "text/plain"
	default:
		raw, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
		contentType = "application/json"
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s %s response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

func stats(t *testing.T, ts *httptest.Server) StatsResponse {
	t.Helper()
	var st StatsResponse
	if code := call(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	return st
}

func upload(t *testing.T, ts *httptest.Server, text string) DatabaseInfo {
	t.Helper()
	var info DatabaseInfo
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases", CreateDatabaseRequest{Database: text}, &info); code != 201 {
		t.Fatalf("upload: status %d", code)
	}
	return info
}

// TestExplainMatchesLibrary uploads a database over the wire, explains
// an answer, and checks the ranking matches the engine invoked
// directly.
func TestExplainMatchesLibrary(t *testing.T) {
	_, ts := newTest(t, Config{})
	info := upload(t, ts, chainDBText)
	if info.Tuples != 4 || info.Endogenous != 4 {
		t.Fatalf("info = %+v", info)
	}

	var prep PrepareQueryResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries",
		PrepareQueryRequest{Query: "q(x) :- R(x,y), S(y)"}, &prep); code != 201 {
		t.Fatalf("prepare: status %d", code)
	}
	if !strings.Contains(prep.Class, "PTIME") {
		t.Errorf("class = %q; want PTIME", prep.Class)
	}
	// Cause programs (Theorem 3.4) are generated for Boolean queries;
	// non-Boolean prepares carry none.
	var boolPrep PrepareQueryResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries",
		PrepareQueryRequest{Query: "q :- R(x,y), S(y)"}, &boolPrep); code != 201 {
		t.Fatalf("boolean prepare: status %d", code)
	}
	if boolPrep.Program == "" {
		t.Error("boolean prepare: missing cause program")
	}

	var got ExplainResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries/"+prep.ID+"/whyso",
		ExplainRequest{Answer: []string{"a4"}}, &got); code != 200 {
		t.Fatalf("whyso: status %d", code)
	}

	db, err := parser.ParseDatabase(strings.NewReader(chainDBText))
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery("q(x) :- R(x,y), S(y)")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewWhySo(db, q, "a4")
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.RankAll(core.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Explanations) != len(want) {
		t.Fatalf("got %d explanations; want %d", len(got.Explanations), len(want))
	}
	for i, e := range got.Explanations {
		if e.Rho != want[i].Rho || e.TupleID != int(want[i].Tuple) || e.ContingencySize != want[i].ContingencySize {
			t.Errorf("explanation %d = %+v; want %+v", i, e, want[i])
		}
	}
}

// TestWarmCertificateAndEngineCaches asserts the acceptance criterion:
// a warm-certificate explain measurably skips re-classification,
// observed through the /v1/stats cache-hit counters.
func TestWarmCertificateAndEngineCaches(t *testing.T) {
	_, ts := newTest(t, Config{})
	info := upload(t, ts, chainDBText)

	var prep PrepareQueryResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries",
		PrepareQueryRequest{Query: "q(x) :- R(x,y), S(y)"}, &prep); code != 201 {
		t.Fatalf("prepare: status %d", code)
	}
	if prep.CertificateCached {
		t.Error("first prepare unexpectedly hit the certificate cache")
	}
	st := stats(t, ts)
	if st.CertCache.Misses != 1 || st.CertCache.Hits != 0 {
		t.Fatalf("after prepare: cert cache %+v; want 1 miss, 0 hits", st.CertCache)
	}

	// Cold explain: engine miss, but the certificate is warm — the
	// classification computed at prepare time is reused.
	var cold ExplainResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries/"+prep.ID+"/whyso",
		ExplainRequest{Answer: []string{"a4"}}, &cold); code != 200 {
		t.Fatalf("cold whyso: status %d", code)
	}
	if cold.EngineCached || !cold.CertificateCached {
		t.Errorf("cold explain: engine_cached=%v certificate_cached=%v; want false,true", cold.EngineCached, cold.CertificateCached)
	}
	st = stats(t, ts)
	if st.CertCache.Hits != 1 || st.EngineCache.Misses != 1 || st.EngineCache.Hits != 0 {
		t.Fatalf("after cold explain: cert %+v engine %+v", st.CertCache, st.EngineCache)
	}

	// Warm explain: same answer — the per-answer engine (lineage) is
	// served from the LRU; the request skips straight to ranking.
	var warm ExplainResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries/"+prep.ID+"/whyso",
		ExplainRequest{Answer: []string{"a4"}}, &warm); code != 200 {
		t.Fatalf("warm whyso: status %d", code)
	}
	if !warm.EngineCached || !warm.CertificateCached {
		t.Errorf("warm explain: engine_cached=%v certificate_cached=%v; want true,true", warm.EngineCached, warm.CertificateCached)
	}
	st = stats(t, ts)
	if st.EngineCache.Hits != 1 {
		t.Fatalf("after warm explain: engine cache %+v; want 1 hit", st.EngineCache)
	}
	if fmt.Sprint(warm.Explanations) != fmt.Sprint(cold.Explanations) {
		t.Errorf("warm ranking diverged from cold:\nwarm %v\ncold %v", warm.Explanations, cold.Explanations)
	}

	// A different answer of the same prepared query still reuses the
	// certificate (classification is constant-immaterial).
	var other ExplainResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries/"+prep.ID+"/whyso",
		ExplainRequest{Answer: []string{"a5"}}, &other); code != 200 {
		t.Fatalf("other whyso: status %d", code)
	}
	if other.EngineCached || !other.CertificateCached {
		t.Errorf("other answer: engine_cached=%v certificate_cached=%v; want false,true", other.EngineCached, other.CertificateCached)
	}

	// An inline query of the same shape also hits the certificate
	// cache, even with different variable names.
	var inline ExplainResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/whyso",
		ExplainRequest{Query: "q(u) :- R(u,v), S(v)", Answer: []string{"a4"}}, &inline); code != 200 {
		t.Fatalf("inline whyso: status %d", code)
	}
	if !inline.CertificateCached {
		t.Error("inline same-shape query missed the certificate cache")
	}
}

// TestClientErrors4xx drives every malformed-input path and checks the
// server answers 4xx — parser errors must not surface as 500s.
func TestClientErrors4xx(t *testing.T) {
	_, ts := newTest(t, Config{})
	info := upload(t, ts, chainDBText)
	// A database whose exogenous part already satisfies the query, so
	// why-no against it is semantically invalid (not a non-answer).
	whyNoInfo := upload(t, ts, "-R(a,b)\n-S(b)\n+S(c)")
	var prep PrepareQueryResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries",
		PrepareQueryRequest{Query: "q(x) :- R(x,y), S(y)"}, &prep); code != 201 {
		t.Fatalf("prepare: status %d", code)
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"malformed tuple line", http.MethodPost, "/v1/databases", CreateDatabaseRequest{Database: "+R(a,"}, 400},
		{"tuple without sign", http.MethodPost, "/v1/databases", CreateDatabaseRequest{Database: "R(a,b)"}, 400},
		{"lower-case relation", http.MethodPost, "/v1/databases", CreateDatabaseRequest{Database: "+r(a)"}, 400},
		{"arity drift", http.MethodPost, "/v1/databases", CreateDatabaseRequest{Database: "+R(a)\n+R(a,b)"}, 400},
		{"empty database", http.MethodPost, "/v1/databases", CreateDatabaseRequest{Database: "# only comments"}, 400},
		{"bad JSON body", http.MethodPost, "/v1/databases", "{not json", 400},
		{"unknown session", http.MethodPost, "/v1/databases/nope/queries", PrepareQueryRequest{Query: "q :- R(x,y)"}, 404},
		{"bad query syntax", http.MethodPost, "/v1/databases/" + info.ID + "/queries", PrepareQueryRequest{Query: "q(x) = R(x)"}, 400},
		{"unbalanced parens", http.MethodPost, "/v1/databases/" + info.ID + "/queries", PrepareQueryRequest{Query: "q :- R(x,y"}, 400},
		{"query arity mismatch", http.MethodPost, "/v1/databases/" + info.ID + "/queries", PrepareQueryRequest{Query: "q :- R(x)"}, 422},
		{"unknown prepared query", http.MethodPost, "/v1/databases/" + info.ID + "/queries/zzz/whyso", ExplainRequest{Answer: []string{"a4"}}, 404},
		{"bad mode", http.MethodPost, "/v1/databases/" + info.ID + "/queries/" + prep.ID + "/whyso", ExplainRequest{Answer: []string{"a4"}, Mode: "quantum"}, 400},
		{"bad binding arity", http.MethodPost, "/v1/databases/" + info.ID + "/queries/" + prep.ID + "/whyso", ExplainRequest{Answer: []string{"a4", "extra"}}, 422},
		{"missing inline query", http.MethodPost, "/v1/databases/" + info.ID + "/whyso", ExplainRequest{}, 400},
		{"inline bad syntax", http.MethodPost, "/v1/databases/" + info.ID + "/whyso", ExplainRequest{Query: "nonsense"}, 400},
		{"whyno on a holding query", http.MethodPost, "/v1/databases/" + whyNoInfo.ID + "/whyno", ExplainRequest{Query: "q :- R(x,y), S(y)"}, 422},
		{"empty batch", http.MethodPost, "/v1/databases/" + info.ID + "/batch", BatchExplainRequest{}, 400},
		{"delete unknown session", http.MethodDelete, "/v1/databases/nope", nil, 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := call(t, tc.method, ts.URL+tc.path, tc.body, nil)
			if got != tc.want {
				t.Errorf("status = %d; want %d", got, tc.want)
			}
			if got >= 500 {
				t.Errorf("client error surfaced as server error %d", got)
			}
		})
	}
}

// TestQueryReferenceErrors pins one error taxonomy for query references
// across the explain family: giving both a prepared id and an inline
// query, giving neither, and bad syntax are 400 bad_query, an unknown
// prepared id is 404 query_not_found. Each route gets the cases it can
// express: the prepared whyso/whyno routes carry their id in the path
// (so "neither" cannot happen and bad syntax is also "both"), the
// inline ones take no query_id, and batch reports per item in a 200.
func TestQueryReferenceErrors(t *testing.T) {
	_, ts := newTest(t, Config{})
	info := upload(t, ts, chainDBText)
	const good, bad = "q(x) :- R(x,y), S(y)", "q(x) = R(x)"
	var prep PrepareQueryResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries",
		PrepareQueryRequest{Query: good}, &prep); code != 201 {
		t.Fatalf("prepare: status %d", code)
	}
	refs := []struct {
		name string
		ref  map[string]any
		code string
	}{
		{"both", map[string]any{"query": good, "query_id": prep.ID}, "bad_query"},
		{"neither", map[string]any{}, "bad_query"},
		{"unknown id", map[string]any{"query_id": "zzz"}, "query_not_found"},
		{"bad syntax", map[string]any{"query": bad}, "bad_query"},
	}
	type tc struct {
		name, path string
		body       map[string]any
		code       string
	}
	var cases []tc
	for _, why := range []string{"whyso", "whyno"} {
		cases = append(cases,
			tc{why + " prepared/both", "/queries/" + prep.ID + "/" + why, map[string]any{"query": good}, "bad_query"},
			tc{why + " prepared/bad syntax", "/queries/" + prep.ID + "/" + why, map[string]any{"query": bad}, "bad_query"},
			tc{why + " prepared/unknown id", "/queries/zzz/" + why, map[string]any{}, "query_not_found"},
			tc{why + " inline/neither", "/" + why, map[string]any{}, "bad_query"},
			tc{why + " inline/bad syntax", "/" + why, map[string]any{"query": bad}, "bad_query"},
		)
	}
	for _, route := range []string{"causes", "explain/stream", "watch", "batch"} {
		for _, ref := range refs {
			body := ref.ref
			if route == "batch" {
				body = map[string]any{"requests": []map[string]any{ref.ref}}
			}
			cases = append(cases, tc{route + "/" + ref.name, "/" + route, body, ref.code})
		}
	}
	statusOf := map[string]int{"bad_query": http.StatusBadRequest, "query_not_found": http.StatusNotFound}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw, err := json.Marshal(c.body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/databases/"+info.ID+c.path, "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var got ErrorResponse
			wantStatus := statusOf[c.code]
			if strings.HasPrefix(c.path, "/batch") {
				var batch BatchExplainResponse
				if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil || len(batch.Results) != 1 {
					t.Fatalf("batch: status %d, %+v, err %v", resp.StatusCode, batch, err)
				}
				got = ErrorResponse{Error: batch.Results[0].Error, Code: batch.Results[0].Code}
				if !strings.HasPrefix(got.Error, "item 0: ") {
					t.Errorf("batch item error %q lacks its item prefix", got.Error)
				}
				wantStatus = http.StatusOK
			} else if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatalf("status %d, undecodable error body: %v", resp.StatusCode, err)
			}
			if resp.StatusCode != wantStatus || got.Code != c.code {
				t.Errorf("status %d code %q (%s); want %d %q", resp.StatusCode, got.Code, got.Error, wantStatus, c.code)
			}
		})
	}
}

// TestSessionEviction covers both eviction policies of the registry.
func TestSessionEviction(t *testing.T) {
	t.Run("max-sessions evicts LRU", func(t *testing.T) {
		now := time.Unix(1000, 0)
		var mu sync.Mutex
		clock := func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			now = now.Add(time.Second)
			return now
		}
		_, ts := newTest(t, Config{MaxSessions: 2, Clock: clock})
		a := upload(t, ts, chainDBText)
		b := upload(t, ts, chainDBText)
		// Touch a so b is the LRU.
		if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+a.ID+"/whyso",
			ExplainRequest{Query: "q :- R(x,y), S(y)"}, nil); code != 200 {
			t.Fatalf("touch: status %d", code)
		}
		c := upload(t, ts, chainDBText)
		st := stats(t, ts)
		if st.Sessions != 2 || st.SessionsEvicted != 1 {
			t.Fatalf("stats = sessions %d evicted %d; want 2, 1", st.Sessions, st.SessionsEvicted)
		}
		if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+b.ID+"/queries", PrepareQueryRequest{Query: "q :- S(y)"}, nil); code != 404 {
			t.Errorf("evicted session still answers: %d", code)
		}
		for _, id := range []string{a.ID, c.ID} {
			if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+id+"/queries", PrepareQueryRequest{Query: "q :- S(y)"}, nil); code != 201 {
				t.Errorf("survivor %s: status %d", id, code)
			}
		}
	})

	t.Run("idle TTL reaps", func(t *testing.T) {
		now := time.Unix(2000, 0)
		var mu sync.Mutex
		advance := func(d time.Duration) {
			mu.Lock()
			now = now.Add(d)
			mu.Unlock()
		}
		clock := func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		}
		srv, ts := newTest(t, Config{SessionTTL: time.Minute, Clock: clock})
		a := upload(t, ts, chainDBText)
		b := upload(t, ts, chainDBText)
		advance(45 * time.Second)
		// Touch b; a stays idle.
		if code := call(t, http.MethodGet, ts.URL+"/v1/databases", nil, nil); code != 200 {
			t.Fatal("list failed")
		}
		if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+b.ID+"/queries", PrepareQueryRequest{Query: "q :- S(y)"}, nil); code != 201 {
			t.Fatal("touch b failed")
		}
		advance(30 * time.Second) // a idle 75s > TTL, b idle 30s
		evicted := srv.EvictIdle()
		if len(evicted) != 1 || evicted[0] != a.ID {
			t.Fatalf("evicted = %v; want [%s]", evicted, a.ID)
		}
		st := stats(t, ts)
		if st.Sessions != 1 {
			t.Fatalf("sessions = %d; want 1", st.Sessions)
		}
	})
}

// TestEngineCacheEviction bounds the per-answer engine LRU.
func TestEngineCacheEviction(t *testing.T) {
	_, ts := newTest(t, Config{EngineCacheSize: 1})
	info := upload(t, ts, chainDBText)
	var prep PrepareQueryResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries",
		PrepareQueryRequest{Query: "q(x) :- R(x,y), S(y)"}, &prep); code != 201 {
		t.Fatal("prepare failed")
	}
	explain := func(answer string) {
		t.Helper()
		if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries/"+prep.ID+"/whyso",
			ExplainRequest{Answer: []string{answer}}, nil); code != 200 {
			t.Fatalf("whyso %s: status %d", answer, code)
		}
	}
	explain("a4")
	explain("a5") // evicts a4's engine
	explain("a4") // miss again
	st := stats(t, ts)
	if st.EngineCache.Misses != 3 || st.EngineCache.Evictions != 2 || st.EngineCache.Hits != 0 {
		t.Fatalf("engine cache %+v; want 3 misses, 2 evictions, 0 hits", st.EngineCache)
	}
	// Certificates are shape-level, so all three explains after the
	// prepare hit the certificate cache despite engine evictions.
	if st.CertCache.Hits != 3 {
		t.Fatalf("cert cache %+v; want 3 hits", st.CertCache)
	}
}

// TestBatchMatchesIndividual cross-checks the batch endpoint against
// per-request explains and checks per-item error isolation.
func TestBatchMatchesIndividual(t *testing.T) {
	_, ts := newTest(t, Config{})
	info := upload(t, ts, chainDBText)
	var prep PrepareQueryResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries",
		PrepareQueryRequest{Query: "q(x) :- R(x,y), S(y)"}, &prep); code != 201 {
		t.Fatal("prepare failed")
	}

	var single ExplainResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries/"+prep.ID+"/whyso",
		ExplainRequest{Answer: []string{"a4"}}, &single); code != 200 {
		t.Fatal("single whyso failed")
	}

	var batch BatchExplainResponse
	code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/batch", BatchExplainRequest{
		Requests: []BatchItem{
			{QueryID: prep.ID, Answer: []string{"a4"}},
			{Query: "q :- R(x,y), S(y)"},
			{Query: "broken ("},
			{QueryID: "zzz"},
		},
	}, &batch)
	if code != 200 {
		t.Fatalf("batch: status %d", code)
	}
	if len(batch.Results) != 4 {
		t.Fatalf("got %d results; want 4", len(batch.Results))
	}
	if batch.Results[0].Error != "" || fmt.Sprint(batch.Results[0].Explanations) != fmt.Sprint(single.Explanations) {
		t.Errorf("batch item 0 diverged from single explain: %+v", batch.Results[0])
	}
	if !batch.Results[0].EngineCached {
		t.Error("batch item 0 should have hit the engine cached by the single explain")
	}
	if batch.Results[1].Error != "" || batch.Results[1].Causes == 0 {
		t.Errorf("batch item 1 = %+v; want boolean-query causes", batch.Results[1])
	}
	if batch.Results[2].Error == "" || batch.Results[3].Error == "" {
		t.Error("bad batch items did not report errors")
	}
}

// TestConcurrentExplains is the load acceptance criterion: 64 explain
// requests in flight against one server under -race, all succeeding,
// with the in-flight gauge catching them and draining to zero. A
// server-side barrier holds every request in the handler until all 64
// have arrived, so the gauge provably reaches the full client count
// before the fan-out races through admission, caching, and ranking
// concurrently.
func TestConcurrentExplains(t *testing.T) {
	const clients = 64
	var arrived sync.WaitGroup
	arrived.Add(clients)
	gate := make(chan struct{})
	go func() {
		arrived.Wait()
		close(gate)
	}()
	_, ts := newTest(t, Config{
		WorkerBudget:   2 * clients,
		RequestTimeout: 2 * time.Minute,
		testHookAdmitted: func() {
			arrived.Done()
			<-gate
		},
	})

	db, q, _ := workload.Chain2(7, 32)
	text, err := parser.FormatDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	info := upload(t, ts, text)
	var prep PrepareQueryResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries",
		PrepareQueryRequest{Query: q.String()}, &prep); code != 201 {
		t.Fatal("prepare failed")
	}

	var (
		wg       sync.WaitGroup
		failures atomic.Int64
	)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp ExplainResponse
			code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries/"+prep.ID+"/whyso",
				ExplainRequest{}, &resp)
			if code != 200 || len(resp.Explanations) == 0 {
				failures.Add(1)
			}
		}()
	}
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d concurrent explains failed", n, clients)
	}
	st := stats(t, ts)
	if st.Inflight != 0 {
		t.Errorf("inflight = %d after drain; want 0", st.Inflight)
	}
	if st.PeakInflight < clients {
		t.Errorf("peak inflight = %d; want >= %d", st.PeakInflight, clients)
	}
	if st.AdmissionRejects != 0 {
		t.Errorf("admission rejects = %d; want 0", st.AdmissionRejects)
	}
	// All clients explained the same Boolean answer: every request was
	// served by the engine cache except the racing initial builds, and
	// every request either hit or built — nothing was dropped.
	if st.EngineCache.Hits+st.EngineCache.Misses != clients {
		t.Errorf("engine cache %+v; want hits+misses == %d", st.EngineCache, clients)
	}
	if st.EngineCache.Hits == 0 {
		t.Error("engine cache saw no hits across 64 identical explains")
	}
}

// TestAdmissionTimeout checks that a request whose context dies while
// queueing for the worker budget is rejected and counted, instead of
// hanging or leaking the slot. The first admitted request is held at a
// barrier so the only slot stays provably occupied while the second
// request queues, times out client-side, and is rejected.
func TestAdmissionTimeout(t *testing.T) {
	var first atomic.Bool
	holding := make(chan struct{})
	gate := make(chan struct{})
	_, ts := newTest(t, Config{
		WorkerBudget:   1,
		RequestTimeout: time.Minute,
		testHookAdmitted: func() {
			if first.CompareAndSwap(false, true) {
				close(holding)
				<-gate
			}
		},
	})
	info := upload(t, ts, chainDBText)
	qs := "q :- R(x,y), S(y)"

	slow := make(chan int, 1)
	go func() {
		slow <- call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/whyso",
			ExplainRequest{Query: qs}, nil)
	}()
	<-holding // the slow request now owns the only slot

	// The queued request gives up client-side while waiting for the
	// slot; the server must notice the dead context and count a reject.
	body, _ := json.Marshal(ExplainRequest{Query: qs})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/whyso", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	client := &http.Client{Timeout: 100 * time.Millisecond}
	resp, err := client.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Errorf("queued request unexpectedly completed with status %d", resp.StatusCode)
	}

	// The reject is counted when the server-side context cancellation
	// propagates; wait for it rather than racing the stats read.
	deadline := time.Now().Add(30 * time.Second)
	for stats(t, ts).AdmissionRejects == 0 {
		if time.Now().After(deadline) {
			t.Fatal("admission reject never counted")
		}
		time.Sleep(time.Millisecond)
	}

	close(gate) // release the held slot; the slow request completes
	if code := <-slow; code != 200 {
		t.Errorf("held request: status %d", code)
	}
	for stats(t, ts).Inflight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("inflight never drained to 0")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHealthz sanity-checks the liveness endpoint.
func TestHealthz(t *testing.T) {
	_, ts := newTest(t, Config{})
	var h HealthResponse
	if code := call(t, http.MethodGet, ts.URL+"/healthz", nil, &h); code != 200 || h.Status != "ok" {
		t.Fatalf("healthz = %d %+v", code, h)
	}
}

// TestRawTextUpload checks the non-JSON upload path.
func TestRawTextUpload(t *testing.T) {
	_, ts := newTest(t, Config{})
	var info DatabaseInfo
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases", chainDBText, &info); code != 201 {
		t.Fatalf("raw upload: status %d", code)
	}
	if info.Tuples != 4 {
		t.Fatalf("tuples = %d; want 4", info.Tuples)
	}
}

// TestEngineKeyNoCollision: answers containing separator-looking bytes
// must not alias another answer's cached engine (length-prefixed keys).
// The second request binds two values to a one-variable head and must
// fail validation rather than ride the first request's engine.
func TestEngineKeyNoCollision(t *testing.T) {
	_, ts := newTest(t, Config{})
	info := upload(t, ts, chainDBText)
	var prep PrepareQueryResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries",
		PrepareQueryRequest{Query: "q(x) :- R(x,y), S(y)"}, &prep); code != 201 {
		t.Fatal("prepare failed")
	}
	url := ts.URL + "/v1/databases/" + info.ID + "/queries/" + prep.ID + "/whyso"
	if code := call(t, http.MethodPost, url, ExplainRequest{Answer: []string{"a\x1fb"}}, nil); code != 200 {
		// The odd value is simply a non-answer constant; the engine is
		// built and ranks zero causes — what matters is it caches under
		// a key no other answer list can produce.
		t.Fatalf("whyso with separator byte: status %d", code)
	}
	var resp ExplainResponse
	code := call(t, http.MethodPost, url, ExplainRequest{Answer: []string{"a", "b"}}, &resp)
	if code != 422 {
		t.Fatalf("two-value answer on one-variable head: status %d (engine_cached=%v); want 422", code, resp.EngineCached)
	}
}

// TestPreparedQueryDedupAndCap: preparing the same text twice reuses
// one id; the registry is a bounded LRU, so old prepared queries are
// evicted (404) instead of growing without bound.
func TestPreparedQueryDedupAndCap(t *testing.T) {
	_, ts := newTest(t, Config{PreparedCacheSize: 2})
	info := upload(t, ts, chainDBText)
	prepare := func(q string) PrepareQueryResponse {
		t.Helper()
		var prep PrepareQueryResponse
		if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries",
			PrepareQueryRequest{Query: q}, &prep); code != 201 {
			t.Fatalf("prepare %q: status %d", q, code)
		}
		return prep
	}
	a := prepare("q(x) :- R(x,y), S(y)")
	dup := prepare("q(x) :- R(x,y), S(y)")
	if dup.ID != a.ID || !dup.CertificateCached {
		t.Errorf("duplicate prepare: id %s cached=%v; want id %s, cached", dup.ID, dup.CertificateCached, a.ID)
	}
	if n := stats(t, ts).PreparedQueries; n != 1 {
		t.Errorf("prepared queries = %d after duplicate prepare; want 1", n)
	}
	b := prepare("q :- R(x,y), S(y)")
	c := prepare("q :- S(y), R(x,y)") // evicts a (LRU)
	if n := stats(t, ts).PreparedQueries; n != 2 {
		t.Errorf("prepared queries = %d after cap; want 2", n)
	}
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries/"+a.ID+"/whyso",
		ExplainRequest{Answer: []string{"a4"}}, nil); code != 404 {
		t.Errorf("evicted prepared query still answers: status %d; want 404", code)
	}
	for _, id := range []string{b.ID, c.ID} {
		if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries/"+id+"/whyso",
			ExplainRequest{}, nil); code != 200 {
			t.Errorf("survivor %s: status %d", id, code)
		}
	}
}

// TestRepeatedHeadVariableClassification: q(x,x) heads and head
// constants defeat placeholder Bind; the certificate must still be
// computed for the answer-BOUND shape. The unbound triangle is h2*
// (NP-hard), but with x bound it collapses to a linear chain — the
// prepared class and the explain results must both reflect the bound
// shape.
func TestRepeatedHeadVariableClassification(t *testing.T) {
	const dbText = "+R(a,b)\n+S(b,c)\n+T(c,a)\n+R(a,d)\n+S(d,e)\n+T(e,a)\n"
	_, ts := newTest(t, Config{})
	info := upload(t, ts, dbText)

	var prep PrepareQueryResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries",
		PrepareQueryRequest{Query: "q(x,x) :- R(x,y), S(y,z), T(z,x)"}, &prep); code != 201 {
		t.Fatalf("prepare: status %d", code)
	}
	if !strings.Contains(prep.Class, "PTIME") {
		t.Errorf("class = %q; want PTIME (bound shape is a chain, not h2*)", prep.Class)
	}

	var got ExplainResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/queries/"+prep.ID+"/whyso",
		ExplainRequest{Answer: []string{"a", "a"}}, &got); code != 200 {
		t.Fatalf("whyso: status %d", code)
	}

	db, err := parser.ParseDatabase(strings.NewReader(dbText))
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery("q(x,x) :- R(x,y), S(y,z), T(z,x)")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewWhySo(db, q, "a", "a")
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.RankAll(core.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Explanations) != len(want) {
		t.Fatalf("got %d explanations; want %d", len(got.Explanations), len(want))
	}
	for i, e := range got.Explanations {
		if e.Rho != want[i].Rho || e.TupleID != int(want[i].Tuple) {
			t.Errorf("explanation %d = %+v; want %+v", i, e, want[i])
		}
	}
}

// TestBatchParallelismClamped: a client cannot spawn more compute
// concurrency than the server's worker budget by inflating the batch
// parallelism field (the request must still succeed, just clamped).
func TestBatchParallelismClamped(t *testing.T) {
	_, ts := newTest(t, Config{WorkerBudget: 2})
	info := upload(t, ts, chainDBText)
	var resp BatchExplainResponse
	code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/batch", BatchExplainRequest{
		Requests: []BatchItem{
			{Query: "q :- R(x,y), S(y)"},
			{Query: "q :- S(y), R(x,y)"},
		},
		Parallelism: 1 << 20,
	}, &resp)
	if code != 200 {
		t.Fatalf("batch: status %d", code)
	}
	for i, r := range resp.Results {
		if r.Error != "" || r.Causes == 0 {
			t.Errorf("item %d: %+v", i, r)
		}
	}
}
