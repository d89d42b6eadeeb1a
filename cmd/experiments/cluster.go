// Cluster soak: boot three in-process querycaused replicas joined into
// a consistent-hash ring, each with its own persist directory, drive
// the mixed load-generator traffic through ONE node (plus a target
// that always enters at the wrong node and rides the 307), kill a
// replica mid-run and restart it on the same address, and demand zero
// unrecovered failures: every request must eventually succeed after
// bounded topology-aware retries, with the killed node's sessions
// restored warm from snapshots. Records p50/p99 latency and the
// measured warm-restart time in BENCH_cluster.json:
//
//	experiments -run cluster [-cluster-out BENCH_cluster.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	qc "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/imdb"
	"github.com/querycause/querycause/internal/persist"
	"github.com/querycause/querycause/internal/ra"
	"github.com/querycause/querycause/internal/server"
)

var (
	clusterOut      = flag.String("cluster-out", "BENCH_cluster.json", "output path for the cluster soak baseline")
	clusterClients  = flag.Int("cluster-clients", 24, "concurrent clients for -run cluster")
	clusterRequests = flag.Int("cluster-requests", 40, "requests per client for -run cluster")
)

// soakRetries bounds how long one request chases a killed replica:
// retries * soakBackoff must comfortably cover the restart window.
const (
	soakRetries = 120
	soakBackoff = 50 * time.Millisecond
)

type replica struct {
	url  string
	addr string
	dir  string
	srv  *server.Server
	hs   *http.Server
}

// bootReplica starts one node of the static ring on ln, restoring any
// snapshots already in dir, and returns how long server construction
// (including restore) took — the warm-restart metric.
func bootReplica(ln net.Listener, urls []string, i int, dir string) (*replica, time.Duration, error) {
	st, err := persist.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	srv := server.New(server.Config{
		ReapInterval:    -1,
		MaxSessions:     128,
		Self:            urls[i],
		Peers:           urls,
		Persist:         st,
		PersistInterval: 100 * time.Millisecond,
	})
	boot := time.Since(t0)
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return &replica{url: urls[i], addr: ln.Addr().String(), dir: dir, srv: srv, hs: hs}, boot, nil
}

type clusterBench struct {
	Bench             string  `json:"bench"`
	GOOS              string  `json:"goos"`
	GOARCH            string  `json:"goarch"`
	CPUs              int     `json:"cpus"`
	Nodes             int     `json:"nodes"`
	Clients           int     `json:"clients"`
	RequestsPerClient int     `json:"requests_per_client"`
	Requests          int     `json:"requests"`
	Failures          int64   `json:"failures"`
	Retries           int64   `json:"retries"`
	ThroughputRPS     float64 `json:"throughput_rps"`
	P50Micros         float64 `json:"p50_micros"`
	P99Micros         float64 `json:"p99_micros"`
	WarmRestartMS     float64 `json:"warm_restart_ms"`
	RestoredSessions  uint64  `json:"restored_sessions"`
	Redirected        uint64  `json:"cluster_redirected"`
	Proxied           uint64  `json:"cluster_proxied"`
	SessionSheds      uint64  `json:"session_sheds"`
	Note              string  `json:"note"`
	Command           string  `json:"command"`
}

func clusterSoak() {
	header(fmt.Sprintf("Cluster soak: 3 replicas, %d clients x %d requests through node 0, kill+restart node 1 mid-run",
		*clusterClients, *clusterRequests))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	// Three loopback listeners first, so the full peer list exists
	// before any node boots.
	const n = 3
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	reps := make([]*replica, n)
	for i := range lns {
		dir, err := os.MkdirTemp("", "querycause-cluster-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		rep, _, err := bootReplica(lns[i], urls, i, dir)
		if err != nil {
			log.Fatalf("booting replica %d: %v", i, err)
		}
		reps[i] = rep
	}
	defer func() {
		for _, r := range reps {
			r.hs.Close()
			r.srv.Close()
		}
	}()

	// Mixed traffic enters at node 0. Dial routes each session to its
	// content-hash owner, so this exercises all three nodes.
	c0 := qc.NewClient(urls[0], nil)
	if err := c0.Health(ctx); err != nil {
		log.Fatalf("cluster not healthy: %v", err)
	}
	targets, cleanup, err := loadTargets(ctx, c0, urls[0])
	if err != nil {
		log.Fatalf("preparing workloads: %v", err)
	}
	defer cleanup()

	// One target that never routes itself: a session deliberately
	// uploaded at node 1 (so node 1 owns it — minting guarantees that)
	// and then always requested through node 0, riding the 307 on every
	// call. Node 1 is also the replica we kill, so this target proves
	// both the redirect path and the warm restart: the prepared query
	// must keep working, same id, after the node comes back from disk.
	micro, _ := imdb.Micro()
	c1 := qc.NewClient(urls[1], nil)
	pinInfo, err := c1.UploadDB(ctx, micro)
	if err != nil {
		log.Fatalf("pinning session to node 1: %v", err)
	}
	pinQ, err := c1.PrepareQuery(ctx, pinInfo.ID, imdb.GenreQuery().String())
	if err != nil {
		log.Fatalf("preparing pinned query: %v", err)
	}
	answers, err := ra.Answers(micro, imdb.GenreQuery())
	if err != nil {
		log.Fatal(err)
	}
	firstAnswer := []string{string(answers[0].Values[0])}
	targets = append(targets, loadTarget{
		name: "whyso-redirect",
		fire: func(ctx context.Context) error {
			_, err := c0.WhySo(ctx, pinInfo.ID, pinQ.ID, qc.ExplainRequest{Answer: firstAnswer})
			return err
		},
	})

	var (
		wg       sync.WaitGroup
		failures atomic.Int64
		retries  atomic.Int64
		done     atomic.Int64
		mu       sync.Mutex
		lats     []time.Duration
	)
	total := *clusterClients * *clusterRequests

	// The chaos controller: once half the requests have completed, kill
	// replica 1 hard, wait long enough for in-flight requests to hit the
	// dead node, then restart it on the same address over the same
	// persist dir, timing the restore.
	restartMS := make(chan float64, 1)
	go func() {
		for done.Load() < int64(total)/2 {
			time.Sleep(5 * time.Millisecond)
		}
		log.Printf("cluster soak: killing replica 1 (%s)", urls[1])
		reps[1].hs.Close()
		reps[1].srv.Close()
		time.Sleep(150 * time.Millisecond)
		var ln net.Listener
		var lerr error
		for i := 0; i < 200; i++ {
			if ln, lerr = net.Listen("tcp", reps[1].addr); lerr == nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if lerr != nil {
			log.Fatalf("cluster soak: cannot rebind %s: %v", reps[1].addr, lerr)
		}
		rep, boot, berr := bootReplica(ln, urls, 1, reps[1].dir)
		if berr != nil {
			log.Fatalf("cluster soak: restarting replica 1: %v", berr)
		}
		reps[1] = rep
		log.Printf("cluster soak: replica 1 back in %v (%d sessions restored warm)", boot, rep.srv.Restored())
		restartMS <- float64(boot.Microseconds()) / 1000
	}()

	start := time.Now()
	for g := 0; g < *clusterClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < *clusterRequests; i++ {
				t := targets[(g+i)%len(targets)]
				ok := false
				for attempt := 0; attempt < soakRetries; attempt++ {
					t0 := time.Now()
					if err := t.fire(ctx); err != nil {
						// A dead or restarting replica surfaces as a
						// transport error, a 502 from a proxying peer, or a
						// 503; all are survivable — back off and re-route.
						retries.Add(1)
						time.Sleep(soakBackoff)
						continue
					}
					mu.Lock()
					lats = append(lats, time.Since(t0))
					mu.Unlock()
					ok = true
					break
				}
				if !ok {
					failures.Add(1)
					log.Printf("client %d %s: unrecovered after %d attempts", g, t.name, soakRetries)
				}
				done.Add(1)
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	warm := <-restartMS

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	bench := clusterBench{
		Bench: "cluster", GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUs: runtime.NumCPU(),
		Nodes: n, Clients: *clusterClients, RequestsPerClient: *clusterRequests,
		Requests: total, Failures: failures.Load(), Retries: retries.Load(),
		ThroughputRPS: float64(len(lats)) / elapsed.Seconds(),
		WarmRestartMS: warm,
		Note:          "in-process 3-replica ring; latencies are successful attempts only; warm_restart_ms is server.New over the killed node's snapshot dir (restore included)",
		Command:       fmt.Sprintf("experiments -run cluster -cluster-clients %d -cluster-requests %d", *clusterClients, *clusterRequests),
	}
	if len(lats) > 0 {
		bench.P50Micros = float64(lats[len(lats)/2].Microseconds())
		bench.P99Micros = float64(lats[len(lats)*99/100].Microseconds())
	}
	for _, u := range urls {
		st, err := qc.NewClient(u, nil).Stats(ctx)
		if err != nil {
			log.Fatalf("stats %s: %v", u, err)
		}
		bench.Redirected += st.ClusterRedirected
		bench.Proxied += st.ClusterProxied
		bench.SessionSheds += st.SessionSheds
		bench.RestoredSessions += st.RestoredSessions
	}

	fmt.Printf("requests: %d  failures: %d  retries: %d  elapsed: %v  throughput: %.0f req/s\n",
		total, bench.Failures, bench.Retries, elapsed.Round(time.Millisecond), bench.ThroughputRPS)
	fmt.Printf("latency: p50 %.0fµs  p99 %.0fµs\n", bench.P50Micros, bench.P99Micros)
	fmt.Printf("warm restart: %.1fms (%d sessions restored)  redirected: %d  proxied: %d  sheds: %d\n",
		bench.WarmRestartMS, bench.RestoredSessions, bench.Redirected, bench.Proxied, bench.SessionSheds)

	if bench.RestoredSessions == 0 {
		fmt.Fprintln(os.Stderr, "cluster soak: killed replica restored zero sessions — persistence did not engage")
		os.Exit(1)
	}
	if bench.Redirected == 0 {
		fmt.Fprintln(os.Stderr, "cluster soak: zero redirects — the wrong-node target did not engage")
		os.Exit(1)
	}
	if *clusterOut != "" {
		raw, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*clusterOut, append(raw, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("baseline written to %s\n", *clusterOut)
	}
	if bench.Failures > 0 {
		os.Exit(1)
	}
}
