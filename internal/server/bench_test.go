// Server benchmarks: the latency value of the session registry's
// certificate/lineage caching (cold vs. warm explains over HTTP) and
// end-to-end throughput with concurrent sessions. BENCH_server.json
// records a baseline; re-record with
//
//	go test -run xxx -bench Server -benchtime 50x ./internal/server
package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/querycause/querycause/internal/imdb"
	"github.com/querycause/querycause/internal/parser"
	"github.com/querycause/querycause/internal/ra"
)

func benchServer(b *testing.B, cfg Config) (*Server, *httptest.Server) {
	b.Helper()
	cfg.ReapInterval = -1
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func benchPost(b *testing.B, url string, body, out any) {
	b.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		b.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerExplain measures one why-so explain over HTTP at three
// cache temperatures:
//
//   - warm-engine: repeated answer; certificate AND lineage cached, the
//     request goes straight to responsibility ranking.
//   - warm-certificate: fresh answer per request with a tiny engine
//     cache; lineage is recomputed but classification is skipped.
//   - cold: caches sized to always miss; classification and lineage run
//     on every request, like the one-shot CLI.
//
// The warm-certificate vs. cold gap is what the prepared-query API buys
// before lineage caching even starts to help.
func BenchmarkServerExplain(b *testing.B) {
	db := imdb.Synthetic(imdb.Config{Seed: 42, Directors: 60})
	text, err := parser.FormatDatabase(db)
	if err != nil {
		b.Fatal(err)
	}
	q := imdb.GenreQuery()
	answers, err := ra.Answers(db, q)
	if err != nil {
		b.Fatal(err)
	}
	if len(answers) < 2 {
		b.Fatalf("synthetic imdb has %d genre answers; want >= 2", len(answers))
	}
	answerStrs := make([][]string, len(answers))
	for i, a := range answers {
		answerStrs[i] = []string{string(a.Values[0])}
	}

	prepTarget := func(b *testing.B, cfg Config) (string, string) {
		_, ts := benchServer(b, cfg)
		var info DatabaseInfo
		benchPost(b, ts.URL+"/v1/databases", CreateDatabaseRequest{Database: text}, &info)
		var prep PrepareQueryResponse
		benchPost(b, ts.URL+"/v1/databases/"+info.ID+"/queries", PrepareQueryRequest{Query: q.String()}, &prep)
		return ts.URL + "/v1/databases/" + info.ID + "/queries/" + prep.ID + "/whyso", ts.URL
	}

	b.Run("warm-engine", func(b *testing.B) {
		url, _ := prepTarget(b, Config{})
		benchPost(b, url, ExplainRequest{Answer: answerStrs[0]}, nil) // prewarm
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPost(b, url, ExplainRequest{Answer: answerStrs[0]}, nil)
		}
	})

	b.Run("warm-certificate", func(b *testing.B) {
		// Engine cache of 1 plus alternating answers: every request
		// recomputes the lineage but reuses the prepared certificate.
		url, _ := prepTarget(b, Config{EngineCacheSize: 1})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPost(b, url, ExplainRequest{Answer: answerStrs[i%2]}, nil)
		}
	})

	b.Run("cold", func(b *testing.B) {
		// Single-entry caches and alternating query shapes: every
		// request classifies AND computes lineage from scratch.
		_, ts := benchServer(b, Config{EngineCacheSize: 1, CertCacheSize: 1})
		var info DatabaseInfo
		benchPost(b, ts.URL+"/v1/databases", CreateDatabaseRequest{Database: text}, &info)
		url := ts.URL + "/v1/databases/" + info.ID + "/whyso"
		// Two structurally different queries so the 1-entry certificate
		// cache always misses.
		queries := []string{
			q.String(),
			"q(genre) :- Movie(mid,n,y,r), Genre(mid,genre)",
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPost(b, url, ExplainRequest{Query: queries[i%2], Answer: answerStrs[i%2]}, nil)
		}
	})
}

// BenchmarkServerConcurrentSessions measures end-to-end throughput with
// parallel clients spread over several warm sessions (ns/op is the
// per-request latency at full concurrency; req/s = 1e9/ns_per_op *
// parallelism).
func BenchmarkServerConcurrentSessions(b *testing.B) {
	db := imdb.Synthetic(imdb.Config{Seed: 42, Directors: 60})
	text, err := parser.FormatDatabase(db)
	if err != nil {
		b.Fatal(err)
	}
	q := imdb.GenreQuery()
	answers, err := ra.Answers(db, q)
	if err != nil {
		b.Fatal(err)
	}
	ans := []string{string(answers[0].Values[0])}

	const sessions = 4
	_, ts := benchServer(b, Config{WorkerBudget: 64})
	urls := make([]string, sessions)
	for i := range urls {
		var info DatabaseInfo
		benchPost(b, ts.URL+"/v1/databases", CreateDatabaseRequest{Database: text}, &info)
		var prep PrepareQueryResponse
		benchPost(b, ts.URL+"/v1/databases/"+info.ID+"/queries", PrepareQueryRequest{Query: q.String()}, &prep)
		urls[i] = ts.URL + "/v1/databases/" + info.ID + "/queries/" + prep.ID + "/whyso"
		benchPost(b, urls[i], ExplainRequest{Answer: ans}, nil) // prewarm
	}
	var next atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			benchPost(b, urls[int(i)%sessions], ExplainRequest{Answer: ans}, nil)
		}
	})
}
