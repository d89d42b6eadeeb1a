// Chaos soak for the survivable cluster: boot a 3-replica ring, drive
// the mixed load-generator traffic plus live watch streams through it
// behind a fault-injecting transport (dropped connections, latency,
// 503 bursts, truncated watch frames), and change the membership under
// load — join a fourth node mid-run, decommission and kill one of the
// originals, then hard-close a survivor and warm-restart it on the
// same address over its own persist directory. Every session crossing
// an ownership boundary rides the handoff protocol; every watch stream
// broken by a fault, a handoff or the restart reconnects with
// resume_from; one target always enters at the wrong node and rides
// the 307 to a prepared query on the restarted replica. The soak
// demands zero unrecovered failures, epoch convergence on every
// survivor, a warm restore that finished while the load still ran,
// and — the payoff — that each watch's folded frame replay is
// byte-identical to a cold ranking asked of the final owner. Records
// the run, with the measured warm-restart time, in BENCH_chaos.json:
//
//	experiments -run chaoscurve [-chaos-out BENCH_chaos.json]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	qc "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/cluster"
	"github.com/querycause/querycause/internal/faultinject"
	"github.com/querycause/querycause/internal/persist"
	"github.com/querycause/querycause/internal/server"
	"github.com/querycause/querycause/internal/workload"
)

var (
	chaosOut      = flag.String("chaos-out", "BENCH_chaos.json", "output path for the chaos soak baseline")
	chaosClients  = flag.Int("chaos-clients", 24, "concurrent clients for -run chaoscurve")
	chaosRequests = flag.Int("chaos-requests", 30, "requests per client for -run chaoscurve")
	chaosSeed     = flag.Int64("chaos-seed", 1, "fault-injection seed for -run chaoscurve")
)

// chaosWatches is how many sessions run a live watch with a dedicated
// mutator hammering them; half are uploaded at the replica that gets
// decommissioned, so their streams are guaranteed to cross a handoff.
const chaosWatches = 4

// chaosRetries is the per-request retry budget of every fault-injected
// client in the soak (the same budget the fault-injected differential
// sweep runs with).
const chaosRetries = 8

// soakRetries bounds how long one request chases a killed replica:
// retries * soakBackoff must comfortably cover the restart window.
const (
	soakRetries = 120
	soakBackoff = 50 * time.Millisecond
)

type replica struct {
	url string
	dir string
	srv *server.Server
	hs  *http.Server
}

// bootReplica starts node self of a ring over peers on ln, restoring
// any snapshots already in dir, and returns how long server
// construction (including restore) took — the warm-restart metric.
func bootReplica(ln net.Listener, self string, peers []string, dir string) (*replica, time.Duration, error) {
	st, err := persist.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	srv := server.New(server.Config{
		ReapInterval:    -1,
		MaxSessions:     128,
		Self:            self,
		Peers:           peers,
		Persist:         st,
		PersistInterval: 100 * time.Millisecond,
	})
	boot := time.Since(t0)
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return &replica{url: self, dir: dir, srv: srv, hs: hs}, boot, nil
}

// restartReplica hard-closes rep (its connections drop mid-request;
// only the write-behind's final flush runs), rebinds its address, and
// boots it again over its own persist dir with the peer list it first
// booted with, which the membership changes since have made stale. A
// rebooted node starts at epoch 1 over that list, so it must pull the
// current topology from its peers by itself; restartReplica fails
// unless it reaches epoch within a few seconds.
func restartReplica(ctx context.Context, rep *replica, peers []string, epoch uint64) (*replica, time.Duration, error) {
	rep.hs.Close()
	rep.srv.Close()
	time.Sleep(50 * time.Millisecond) // let in-flight requests hit the dead node
	addr := strings.TrimPrefix(rep.url, "http://")
	var ln net.Listener
	var err error
	for i := 0; i < 200; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("rebinding %s: %w", addr, err)
	}
	next, boot, err := bootReplica(ln, rep.url, peers, rep.dir)
	if err != nil {
		return nil, 0, err
	}
	probe := qc.NewClient(rep.url, nil)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		info, err := probe.Cluster(ctx)
		if err == nil && info.Epoch >= epoch {
			return next, boot, nil
		}
		if time.Now().After(deadline) {
			return next, boot, fmt.Errorf("%s restarted at epoch %d, want %d (err %v)", rep.url, info.Epoch, epoch, err)
		}
	}
}

// chaosWatch is the folded-state ledger of one live watch: the watcher
// goroutine applies every frame it receives and records the version it
// is current at, so the final state can be diffed byte-for-byte
// against the owner's cold ranking.
type chaosWatch struct {
	id    string
	query string

	mu    sync.Mutex
	state []qc.ExplanationDTO

	version      atomic.Uint64
	frames       atomic.Uint64
	resyncs      atomic.Uint64
	errFrames    atomic.Uint64
	outerResumes atomic.Uint64
}

// fold applies one frame and advances the version ledger.
func (cw *chaosWatch) fold(ev qc.DiffEvent) {
	cw.frames.Add(1)
	switch ev.Type {
	case "full_resync":
		cw.resyncs.Add(1)
	case "error":
		cw.errFrames.Add(1)
	}
	cw.mu.Lock()
	cw.state = server.ApplyWatchEvent(cw.state, ev)
	cw.mu.Unlock()
	if ev.Version > cw.version.Load() {
		cw.version.Store(ev.Version)
	}
}

// ranking snapshots the folded state.
func (cw *chaosWatch) ranking() []qc.ExplanationDTO {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return append([]qc.ExplanationDTO(nil), cw.state...)
}

type chaosBench struct {
	Bench             string `json:"bench"`
	GOOS              string `json:"goos"`
	GOARCH            string `json:"goarch"`
	CPUs              int    `json:"cpus"`
	NodesStart        int    `json:"nodes_start"`
	NodesEnd          int    `json:"nodes_end"`
	Clients           int    `json:"clients"`
	RequestsPerClient int    `json:"requests_per_client"`
	Requests          int    `json:"requests"`
	Failures          int64  `json:"failures"`
	MutationFailures  int64  `json:"mutation_failures"`
	WatchFailures     int64  `json:"watch_failures"`
	ReplayMismatches  int    `json:"replay_mismatches"`
	Retries           int64  `json:"retries"`

	ThroughputRPS float64 `json:"throughput_rps"`
	P50Micros     float64 `json:"p50_micros"`
	P99Micros     float64 `json:"p99_micros"`

	JoinEpoch    uint64 `json:"join_epoch"`
	RemoveEpoch  uint64 `json:"remove_epoch"`
	HandoffsOut  uint64 `json:"handoffs_out"`
	HandoffsIn   uint64 `json:"handoffs_in"`
	HandoffFails uint64 `json:"handoff_fails"`
	Redirected   uint64 `json:"cluster_redirected"`

	// WarmRestartMS is server.New over the restarted node's persist
	// dir (restore included); Restored counts the sessions it restored.
	WarmRestartMS float64 `json:"warm_restart_ms"`
	Restored      uint64  `json:"restored_sessions"`

	Watches          int    `json:"watches"`
	WatchFrames      uint64 `json:"watch_frames"`
	WatchResyncs     uint64 `json:"watch_resyncs"`
	WatchErrorFrames uint64 `json:"watch_error_frames"`
	WatchResumes     uint64 `json:"watch_outer_resumes"`
	Mutations        int64  `json:"mutations"`

	FaultDrops       uint64 `json:"fault_drops"`
	FaultDelays      uint64 `json:"fault_delays"`
	FaultErrors      uint64 `json:"fault_errors"`
	FaultTruncations uint64 `json:"fault_truncations"`

	Note    string `json:"note"`
	Command string `json:"command"`
}

func chaosCurve() {
	header(fmt.Sprintf("Chaos soak: join + decommission + warm restart under %d clients x %d requests, %d live watches, faults injected",
		*chaosClients, *chaosRequests, chaosWatches))
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()

	// Three founding replicas plus a pre-allocated listener for the
	// joiner, each with a private persist directory.
	const n = 3
	lns := make([]net.Listener, n+1)
	urls := make([]string, n+1)
	dirs := make([]string, n+1)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("listen: %v", err)
		}
		dir, err := os.MkdirTemp("", "querycause-chaos-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		lns[i], urls[i], dirs[i] = ln, "http://"+ln.Addr().String(), dir
	}
	reps := make([]*replica, n+1)
	for i := 0; i < n; i++ {
		rep, _, err := bootReplica(lns[i], urls[i], urls[:n], dirs[i])
		if err != nil {
			log.Fatalf("booting replica %d: %v", i, err)
		}
		reps[i] = rep
	}
	defer func() {
		for _, r := range reps {
			if r != nil {
				r.hs.Close()
				r.srv.Close()
			}
		}
	}()

	// One fault injector behind every load, watch, and mutation client.
	// Admin calls and the final assertions use clean clients: the soak
	// proves recovery of the data plane, not of the operator.
	inj := faultinject.New(faultinject.Config{
		Seed:     *chaosSeed,
		Drop:     0.05,
		Delay:    0.10,
		MaxDelay: 3 * time.Millisecond,
		Err:      0.05,
		Truncate: 0.5,
	})
	hc := &http.Client{Transport: inj.Transport(nil)}
	faulted := func(base string) *qc.Client {
		c := qc.NewClient(base, hc)
		c.SetRetries(chaosRetries)
		// Failover only onto the two addresses in the ring the whole run.
		c.SetFallbacks([]string{urls[0], urls[2]})
		return c
	}
	admin := qc.NewClient(urls[0], nil)
	if err := admin.Health(ctx); err != nil {
		log.Fatalf("cluster not healthy: %v", err)
	}

	// Mixed load through node 0, every Dial'ed session behind the
	// injector with the extra retry budget.
	entry := faulted(urls[0])
	targets, cleanup, err := loadTargets(ctx, entry, urls[0],
		qc.WithHTTPClient(hc), qc.WithRetries(chaosRetries))
	if err != nil {
		log.Fatalf("preparing workloads: %v", err)
	}
	defer cleanup()

	// One target that never routes itself: a session uploaded at node 2
	// (minting makes node 2 its owner), with a prepared query, always
	// explained through node 0 on a clean client, so every call rides
	// the 307. Node 2 is the replica that gets restarted, so the prepared
	// query must keep answering, same ids, once it is restored from disk.
	// The session must stay node 2's while node 3 joins and node 1
	// leaves: re-upload until its id hashes onto node 2 in those rings.
	pinDB, pinQuery, _ := workload.Chain2(9, 12)
	c2 := qc.NewClient(urls[2], nil)
	grown, shrunk := cluster.New(urls), cluster.New([]string{urls[0], urls[2], urls[n]})
	var pin qc.DatabaseInfo
	for pin.ID == "" || grown.Owner(pin.ID) != urls[2] || shrunk.Owner(pin.ID) != urls[2] {
		if pin.ID != "" {
			_ = c2.DropDatabase(ctx, pin.ID)
		}
		if pin, err = c2.UploadDB(ctx, pinDB); err != nil {
			log.Fatalf("pinning a session to node 2: %v", err)
		}
	}
	pinQ, err := c2.PrepareQuery(ctx, pin.ID, pinQuery.String())
	if err != nil {
		log.Fatalf("preparing the pinned query: %v", err)
	}
	c0 := qc.NewClient(urls[0], nil)
	explainPinned := func(ctx context.Context) error {
		_, err := c0.WhySo(ctx, pin.ID, pinQ.ID, qc.ExplainRequest{})
		return err
	}
	targets = append(targets, loadTarget{name: "whyso-redirect", fire: explainPinned})

	// The watched sessions: chain instances small enough to re-rank on
	// every mutation. Even-numbered ones are uploaded at node 1 — the
	// replica that gets decommissioned — so their watch streams are
	// guaranteed to cross a session handoff; minting pins a session to
	// its creating node.
	c1 := qc.NewClient(urls[1], nil)
	watches := make([]*chaosWatch, chaosWatches)
	for i := range watches {
		db, q, _ := workload.Chain2(int64(100+i), 10+i)
		up := admin
		if i%2 == 0 {
			up = c1
		}
		info, err := up.UploadDB(ctx, db)
		if err != nil {
			log.Fatalf("uploading watch database %d: %v", i, err)
		}
		watches[i] = &chaosWatch{id: info.ID, query: q.String()}
	}

	// Watchers: consume the live stream, folding every frame. The
	// client reconnects and resumes on its own; if it ever gives up
	// (its bounded reconnect budget exhausted under a hostile fault
	// schedule), the watcher resumes at the outer level from the last
	// folded version — the same ResumeFrom contract — and only repeated
	// resumption with no progress counts as an unrecovered failure.
	watchCtx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	var (
		watchWG       sync.WaitGroup
		watchFailures atomic.Int64
	)
	for _, w := range watches {
		watchWG.Add(1)
		go func(cw *chaosWatch) {
			defer watchWG.Done()
			wc := faulted(urls[0])
			stalls := 0
			for {
				progressed := false
				req := qc.WatchRequest{Query: cw.query, ResumeFrom: cw.version.Load()}
				for ev, err := range wc.WatchStream(watchCtx, cw.id, req) {
					if err != nil {
						break
					}
					cw.fold(ev)
					progressed = true
				}
				if watchCtx.Err() != nil {
					return
				}
				cw.outerResumes.Add(1)
				if progressed {
					stalls = 0
				} else if stalls++; stalls >= 5 {
					watchFailures.Add(1)
					log.Printf("chaos: watch %s: no progress after %d resumes", cw.id, stalls)
					return
				}
			}
		}(w)
	}

	// Mutators: one per watched session, inserting joining tuples and
	// deleting earlier inserts, so diff frames carry real rank changes.
	// Inserts and deletes are idempotency-keyed; residual failures after
	// the client's own retries get the soak-level backoff loop.
	stopMut := make(chan struct{})
	var (
		mutWG       sync.WaitGroup
		mutations   atomic.Int64
		mutFailures atomic.Int64
	)
	for i, w := range watches {
		mutWG.Add(1)
		go func(i int, cw *chaosWatch) {
			defer mutWG.Done()
			mc := faulted(urls[0])
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			fire := func(op func() error) {
				for attempt := 0; attempt < soakRetries; attempt++ {
					if err := op(); err == nil {
						mutations.Add(1)
						return
					}
					time.Sleep(soakBackoff)
				}
				mutFailures.Add(1)
			}
			var pool []int
			for seq := 0; ; seq++ {
				select {
				case <-stopMut:
					return
				default:
				}
				if len(pool) > 4 && seq%3 == 2 {
					id := pool[0]
					fire(func() error {
						_, err := mc.DeleteTuple(ctx, cw.id, id)
						return err
					})
					pool = pool[1:]
				} else {
					rel := "R"
					if seq%2 == 1 {
						rel = "S"
					}
					args := []string{fmt.Sprintf("d%d", rng.Intn(5)), fmt.Sprintf("d%d", rng.Intn(5))}
					fire(func() error {
						resp, err := mc.InsertTuples(ctx, cw.id, []qc.TupleSpec{{Rel: rel, Args: args, Endo: true}})
						if err == nil && len(resp.TupleIDs) == 1 {
							pool = append(pool, resp.TupleIDs[0])
						}
						return err
					})
				}
				time.Sleep(10 * time.Millisecond)
			}
		}(i, w)
	}

	// The chaos controller: at a fifth of the load, boot a fourth
	// replica as a single-node cluster and join it through the admin
	// endpoint (the join propagates the new epoch to it and rebalances
	// sessions onto it); at two fifths, decommission node 1 — remove it
	// from the ring while it is still serving, wait for its sessions to
	// hand off, then kill the process half — and then hard-close node 2
	// and warm-restart it while the rest of the load still runs.
	var (
		done        atomic.Int64
		joinEpoch   uint64
		removeEpoch uint64
		node1Stats  qc.ServerStats
		node2Stats  qc.ServerStats // node 2's counters before its restart
		drained     bool
		warmRestart time.Duration
		restored    uint64
		restartedAt time.Time
		chaosDone   = make(chan struct{})
	)
	total := *chaosClients * *chaosRequests
	go func() {
		defer close(chaosDone)
		for done.Load() < int64(total)/5 {
			time.Sleep(5 * time.Millisecond)
		}
		rep, _, err := bootReplica(lns[n], urls[n], urls[n:n+1], dirs[n])
		if err != nil {
			log.Fatalf("chaos: booting joiner: %v", err)
		}
		reps[n] = rep
		ch, err := admin.JoinNode(ctx, urls[n])
		if err != nil {
			log.Fatalf("chaos: join: %v", err)
		}
		joinEpoch = ch.Epoch
		log.Printf("chaos: joined %s at epoch %d (%d nodes, %d peers notified)",
			urls[n], ch.Epoch, len(ch.Nodes), ch.PeersNotified)

		for done.Load() < 2*int64(total)/5 {
			time.Sleep(5 * time.Millisecond)
		}
		ch, err = admin.RemoveNode(ctx, urls[1])
		if err != nil {
			log.Fatalf("chaos: remove: %v", err)
		}
		removeEpoch = ch.Epoch
		log.Printf("chaos: removed %s at epoch %d; waiting for its sessions to hand off", urls[1], ch.Epoch)
		probe := qc.NewClient(urls[1], nil)
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			st, err := probe.Stats(ctx)
			if err == nil {
				node1Stats = st
				if st.Sessions == 0 {
					drained = true
					break
				}
			}
			time.Sleep(25 * time.Millisecond)
		}
		if !drained {
			log.Printf("chaos: node 1 did not drain (%d sessions left); killing anyway", node1Stats.Sessions)
		}
		reps[1].hs.Close()
		_ = reps[1].srv.Flush()
		reps[1].srv.Close()
		reps[1] = nil
		log.Printf("chaos: killed %s (drained=%v, handed off %d sessions)", urls[1], drained, node1Stats.HandoffsOut)

		topo, err := admin.Cluster(ctx)
		if err != nil {
			log.Fatalf("chaos: topology: %v", err)
		}
		if node2Stats, err = qc.NewClient(urls[2], nil).Stats(ctx); err != nil {
			log.Fatalf("chaos: stats %s: %v", urls[2], err)
		}
		rep, warmRestart, err = restartReplica(ctx, reps[2], urls[:n], topo.Epoch)
		if err != nil {
			log.Fatalf("chaos: restarting %s: %v", urls[2], err)
		}
		reps[2], restored, restartedAt = rep, rep.srv.Restored(), time.Now()
		log.Printf("chaos: restarted %s in %v (%d sessions restored warm)", urls[2], warmRestart, restored)
	}()

	// The load: every request retried at the soak level until it
	// succeeds or the retry budget is gone — only the latter counts as
	// an unrecovered failure.
	start := time.Now()
	lats, failures, retries := drive(ctx, targets, *chaosClients, *chaosRequests, soakRetries, &done)
	elapsed := time.Since(start)
	<-chaosDone
	restartedInLoad := restartedAt.Before(start.Add(elapsed))
	// The pinned prepared query answers through node 0 on the restored
	// node, whichever way the load's rounds fell.
	pinErr := explainPinned(ctx)

	// Quiesce: stop the mutators, disarm the injector, and push one
	// clean sentinel mutation per watch so every stream has a final
	// frame to converge on.
	close(stopMut)
	mutWG.Wait()
	inj.Arm(false)
	finalVersion := make([]uint64, len(watches))
	for i, cw := range watches {
		resp, err := admin.InsertTuples(ctx, cw.id, []qc.TupleSpec{{Rel: "R", Args: []string{"d0", "d1"}, Endo: true}})
		if err != nil {
			log.Fatalf("chaos: sentinel mutation on %s: %v", cw.id, err)
		}
		finalVersion[i] = resp.Version
	}
	syncFailures := 0
	for i, cw := range watches {
		deadline := time.Now().Add(60 * time.Second)
		for cw.version.Load() < finalVersion[i] && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if cw.version.Load() < finalVersion[i] {
			syncFailures++
			log.Printf("chaos: watch %s stuck at version %d, sentinel is %d", cw.id, cw.version.Load(), finalVersion[i])
		}
	}
	stopWatch()
	watchWG.Wait()

	// The payoff: each watch's folded replay must be byte-identical to
	// a cold ranking of the same explanation, asked fresh of whichever
	// node owns the session now.
	mismatches := 0
	for _, cw := range watches {
		cold, err := admin.WhySo(ctx, cw.id, "", qc.ExplainRequest{Query: cw.query})
		if err != nil {
			mismatches++
			log.Printf("chaos: cold ranking of %s: %v", cw.id, err)
			continue
		}
		foldedJSON, _ := json.Marshal(cw.ranking())
		coldJSON, _ := json.Marshal(cold.Explanations)
		if !bytes.Equal(foldedJSON, coldJSON) {
			mismatches++
			log.Printf("chaos: watch %s replay diverged from owner's cold ranking:\nfolded: %s\ncold:   %s",
				cw.id, foldedJSON, coldJSON)
		}
	}

	counters := inj.Counters()
	bench := chaosBench{
		Bench: "chaos", GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUs: runtime.NumCPU(),
		NodesStart: n, NodesEnd: n, // 3 → join → 4 → remove → 3
		Clients: *chaosClients, RequestsPerClient: *chaosRequests, Requests: total,
		Failures: failures, MutationFailures: mutFailures.Load(),
		WatchFailures: watchFailures.Load() + int64(syncFailures), ReplayMismatches: mismatches,
		Retries:       retries,
		ThroughputRPS: float64(len(lats)) / elapsed.Seconds(),
		JoinEpoch:     joinEpoch, RemoveEpoch: removeEpoch,
		WarmRestartMS: float64(warmRestart.Microseconds()) / 1000, Restored: restored,
		Watches: len(watches), Mutations: mutations.Load(),
		FaultDrops: counters.Drops, FaultDelays: counters.Delays,
		FaultErrors: counters.Errors, FaultTruncations: counters.Truncations,
		Note: "in-process ring 3→4→3 under fault injection, then one survivor hard-closed and warm-restarted; latencies are successful load attempts only; warm_restart_ms is server.New over the restarted node's persist dir (restore included); watch replays asserted byte-equal to cold rankings after quiesce",
		Command: fmt.Sprintf("experiments -run chaoscurve -chaos-clients %d -chaos-requests %d -chaos-seed %d",
			*chaosClients, *chaosRequests, *chaosSeed),
	}
	if len(lats) > 0 {
		bench.P50Micros = float64(lats[len(lats)/2].Microseconds())
		bench.P99Micros = float64(lats[len(lats)*99/100].Microseconds())
	}
	for _, cw := range watches {
		bench.WatchFrames += cw.frames.Load()
		bench.WatchResyncs += cw.resyncs.Load()
		bench.WatchErrorFrames += cw.errFrames.Load()
		bench.WatchResumes += cw.outerResumes.Load()
	}
	// Node 1's counters and node 2's first incarnation's were captured
	// just before each went down; the survivors answer live. Every
	// survivor must have converged on the removal epoch.
	epochLag := 0
	all := []qc.ServerStats{node1Stats, node2Stats}
	for _, u := range []string{urls[0], urls[2], urls[n]} {
		st, err := qc.NewClient(u, nil).Stats(ctx)
		if err != nil {
			log.Fatalf("stats %s: %v", u, err)
		}
		if st.ClusterEpoch != removeEpoch {
			epochLag++
			log.Printf("chaos: %s is at epoch %d, want %d", u, st.ClusterEpoch, removeEpoch)
		}
		all = append(all, st)
	}
	for _, st := range all {
		bench.HandoffsOut += st.HandoffsOut
		bench.HandoffsIn += st.HandoffsIn
		bench.HandoffFails += st.HandoffFails
		bench.Redirected += st.ClusterRedirected
	}

	fmt.Printf("requests: %d  failures: %d  retries: %d  elapsed: %v  throughput: %.0f req/s\n",
		total, bench.Failures, bench.Retries, elapsed.Round(time.Millisecond), bench.ThroughputRPS)
	fmt.Printf("latency: p50 %.0fµs  p99 %.0fµs\n", bench.P50Micros, bench.P99Micros)
	fmt.Printf("membership: epoch %d→%d  handoffs out/in/fail: %d/%d/%d  redirected: %d\n",
		bench.JoinEpoch, bench.RemoveEpoch, bench.HandoffsOut, bench.HandoffsIn, bench.HandoffFails, bench.Redirected)
	fmt.Printf("warm restart: %.1fms (%d sessions restored), done %v into the load\n",
		bench.WarmRestartMS, bench.Restored, restartedAt.Sub(start).Round(time.Millisecond))
	fmt.Printf("watches: %d  frames: %d  resyncs: %d  outer resumes: %d  mutations: %d  mismatches: %d\n",
		bench.Watches, bench.WatchFrames, bench.WatchResyncs, bench.WatchResumes, bench.Mutations, bench.ReplayMismatches)
	fmt.Printf("faults injected: drops %d  delays %d  errors %d  truncations %d\n",
		bench.FaultDrops, bench.FaultDelays, bench.FaultErrors, bench.FaultTruncations)

	bad := false
	check := func(ok bool, format string, args ...any) {
		if !ok {
			bad = true
			fmt.Fprintf(os.Stderr, "chaos soak: "+format+"\n", args...)
		}
	}
	check(bench.Failures == 0, "%d unrecovered load failures", bench.Failures)
	check(bench.MutationFailures == 0, "%d unrecovered mutation failures", bench.MutationFailures)
	check(bench.WatchFailures == 0, "%d unrecovered watch failures", bench.WatchFailures)
	check(bench.ReplayMismatches == 0, "%d watch replays diverged from the owner's cold ranking", bench.ReplayMismatches)
	check(drained, "decommissioned node did not drain its sessions")
	check(bench.JoinEpoch > 1 && bench.RemoveEpoch > bench.JoinEpoch,
		"epochs did not advance: join %d, remove %d", bench.JoinEpoch, bench.RemoveEpoch)
	check(epochLag == 0, "%d survivors lag the removal epoch", epochLag)
	check(bench.HandoffsOut > 0 && bench.HandoffsIn > 0,
		"no session handoffs engaged (out %d, in %d)", bench.HandoffsOut, bench.HandoffsIn)
	check(bench.Restored > 0, "the restarted node restored zero sessions — persistence did not engage")
	check(restartedInLoad, "the restart finished after the load ended")
	check(pinErr == nil, "the pinned prepared query did not answer after the restart: %v", pinErr)
	check(bench.Redirected > 0, "zero redirects — the wrong-node target did not engage")
	check(counters.Total() > 0, "the fault injector never fired")
	check(bench.WatchFrames > 0, "no watch frames delivered")

	if *chaosOut != "" {
		raw, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*chaosOut, append(raw, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("baseline written to %s\n", *chaosOut)
	}
	if bad {
		os.Exit(1)
	}
}
