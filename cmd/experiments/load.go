// Load-generator mode: hammer a running querycaused server end-to-end
// over HTTP with the workload generators' query families. The request
// shapes are written once against the public Session interface —
// blocking rankings, streamed rankings, Why-No, and ExplainAll
// batches over Dial'ed sessions — plus one raw-client target keeping
// the prepared-query endpoints warm. Reports throughput, latency, and
// the server's cache hit rates, and exits non-zero on any failure, so
// CI uses it as a smoke test:
//
//	querycaused -addr :8347 &
//	experiments -run load -server http://localhost:8347 -load-clients 64
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	qc "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/imdb"
	"github.com/querycause/querycause/internal/ra"
	"github.com/querycause/querycause/internal/workload"
)

var (
	serverURL    = flag.String("server", "", "querycaused base URL for -run load (e.g. http://localhost:8347)")
	loadClients  = flag.Int("load-clients", 64, "concurrent clients for -run load")
	loadRequests = flag.Int("load-requests", 10, "requests per client for -run load")
)

// loadTarget is one request shape a client can fire.
type loadTarget struct {
	name string
	fire func(ctx context.Context) error
}

func load() {
	if *serverURL == "" {
		fmt.Fprintln(os.Stderr, "experiments: -run load requires -server URL")
		os.Exit(2)
	}
	header(fmt.Sprintf("Load: %d clients x %d requests against %s", *loadClients, *loadRequests, *serverURL))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	c := qc.NewClient(*serverURL, nil)
	if err := c.Health(ctx); err != nil {
		log.Fatalf("server not healthy: %v", err)
	}
	targets, cleanup, err := loadTargets(ctx, c, *serverURL)
	if err != nil {
		log.Fatalf("preparing workloads: %v", err)
	}
	defer cleanup()

	var (
		wg       sync.WaitGroup
		failures atomic.Int64
		mu       sync.Mutex
		lats     []time.Duration
	)
	start := time.Now()
	for g := 0; g < *loadClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < *loadRequests; i++ {
				t := targets[(g+i)%len(targets)]
				t0 := time.Now()
				if err := t.fire(ctx); err != nil {
					failures.Add(1)
					log.Printf("client %d %s: %v", g, t.name, err)
					continue
				}
				mu.Lock()
				lats = append(lats, time.Since(t0))
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := *loadClients * *loadRequests
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	fmt.Printf("requests: %d  failures: %d  elapsed: %v  throughput: %.0f req/s\n",
		total, failures.Load(), elapsed.Round(time.Millisecond), float64(len(lats))/elapsed.Seconds())
	if len(lats) > 0 {
		fmt.Printf("latency: p50 %v  p95 %v  max %v\n",
			lats[len(lats)/2].Round(time.Microsecond),
			lats[len(lats)*95/100].Round(time.Microsecond),
			lats[len(lats)-1].Round(time.Microsecond))
	}
	if stats, err := c.Stats(ctx); err == nil {
		fmt.Printf("server: sessions=%d inflight=%d peak_inflight=%d cert cache %d/%d hits, engine cache %d/%d hits\n",
			stats.Sessions, stats.Inflight, stats.PeakInflight,
			stats.CertCache.Hits, stats.CertCache.Hits+stats.CertCache.Misses,
			stats.EngineCache.Hits, stats.EngineCache.Hits+stats.EngineCache.Misses)
	}
	if failures.Load() > 0 {
		os.Exit(1)
	}
}

// loadTargets dials the workload databases into server-side sessions
// and returns the mixed request shapes the clients cycle through —
// all but one written against the Session interface, so the same
// closures would drive an in-process Open'ed session unchanged.
// opts ride every Dial (the chaos soak uses them to route the
// sessions through a fault-injecting transport with extra retries).
func loadTargets(ctx context.Context, c *qc.Client, baseURL string, opts ...qc.Option) (targets []loadTarget, cleanup func(), err error) {
	var sessions []qc.Session
	cleanup = func() {
		for _, s := range sessions {
			_ = s.Close()
		}
	}
	dial := func(db *qc.Database, extra ...qc.Option) (qc.Session, error) {
		sess, err := qc.Dial(ctx, baseURL, db, append(append([]qc.Option(nil), opts...), extra...)...)
		if err == nil {
			sessions = append(sessions, sess)
		}
		return sess, err
	}

	// Micro IMDB: the paper's Fig. 2 instance, non-Boolean genre query
	// with real answers; repeated explains of the same answers keep
	// the server's engine cache warm.
	micro, _ := imdb.Micro()
	microSess, err := dial(micro)
	if err != nil {
		return nil, cleanup, err
	}
	genre := imdb.GenreQuery()
	answers, err := ra.Answers(micro, genre)
	if err != nil {
		return nil, cleanup, err
	}

	// Boolean chain workload (PTIME flow path) for one-shot explains.
	chainDB, chainQ, _ := workload.Chain2(7, 24)
	chainSess, err := dial(chainDB)
	if err != nil {
		return nil, cleanup, err
	}

	// NP-hard star for the streaming target: first explanations arrive
	// while later exact searches still run.
	starDB, starQ, _ := workload.Star(7, 6)
	starSess, err := dial(starDB, qc.WithParallelism(2))
	if err != nil {
		return nil, cleanup, err
	}

	// Why-No workload (Theorem 4.17 closed form).
	whyNoDB, whyNoQ := workload.WhyNoChain(11, 12)
	whyNoSess, err := dial(whyNoDB)
	if err != nil {
		return nil, cleanup, err
	}

	var batchReqs []qc.BatchRequest
	for _, a := range answers {
		batchReqs = append(batchReqs, qc.BatchRequest{Query: genre, Answer: a.Values})
	}

	rank := func(sess qc.Session, q *qc.Query, whyNo bool, answer ...qc.Value) func(context.Context) error {
		return func(ctx context.Context) error {
			var r qc.Ranking
			var err error
			if whyNo {
				r, err = sess.WhyNo(ctx, q, answer...)
			} else {
				r, err = sess.WhySo(ctx, q, answer...)
			}
			if err != nil {
				return err
			}
			_, err = r.Rank(ctx)
			return err
		}
	}

	targets = []loadTarget{
		{name: "whyso-chain", fire: rank(chainSess, chainQ, false)},
		{name: "whyno-chain", fire: rank(whyNoSess, whyNoQ, true)},
		{name: "stream-star", fire: func(ctx context.Context) error {
			r, err := starSess.WhySo(ctx, starQ)
			if err != nil {
				return err
			}
			n := 0
			for _, serr := range r.RankStream(ctx) {
				if serr != nil {
					return serr
				}
				n++
			}
			if n == 0 {
				return fmt.Errorf("stream yielded no explanations")
			}
			return nil
		}},
		{name: "batch-genres", fire: func(ctx context.Context) error {
			results, err := microSess.ExplainAll(ctx, batchReqs)
			if err != nil {
				return err
			}
			for _, r := range results {
				if r.Err != nil {
					return fmt.Errorf("batch item: %w", r.Err)
				}
			}
			return nil
		}},
	}
	// Every answer of the genre query as its own target, so the engine
	// cache sees a mixed warm working set.
	for _, a := range answers {
		targets = append(targets, loadTarget{
			name: "whyso-" + string(a.Values[0]),
			fire: rank(microSess, genre, false, a.Values...),
		})
	}

	// One raw-client target keeps the prepared-query endpoints in the
	// mix (preparation is server-specific and not part of Session).
	microInfo, err := c.UploadDB(ctx, micro)
	if err != nil {
		return nil, cleanup, err
	}
	pq, err := c.PrepareQuery(ctx, microInfo.ID, genre.String())
	if err != nil {
		return nil, cleanup, err
	}
	firstAnswer := make([]string, len(answers[0].Values))
	for i, v := range answers[0].Values {
		firstAnswer[i] = string(v)
	}
	targets = append(targets, loadTarget{
		name: "whyso-prepared",
		fire: func(ctx context.Context) error {
			_, err := c.WhySo(ctx, microInfo.ID, pq.ID, qc.ExplainRequest{Answer: firstAnswer})
			return err
		},
	})
	return targets, cleanup, nil
}
