package querycause_test

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	qc "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/persist"
	"github.com/querycause/querycause/internal/server"
)

// TestSessionWatchManualResume: WatchSpec.ResumeFrom hands a replayed
// state across Watch calls, identically on both transports. A resume
// the topic's diff buffer covers continues the chain gap-free (the
// first frame is the missed diff, not a snapshot); a resume onto a
// topic dropped by an affected mutation recovers with a full_resync
// that replaces the state wholesale.
func TestSessionWatchManualResume(t *testing.T) {
	q, err := qc.ParseQuery("q(x) :- R(x,y), S(y)")
	if err != nil {
		t.Fatal(err)
	}
	mkDB := func() *qc.Database {
		db := mutateChainDB()
		db.MustAdd("T", true, "t1") // unrelated relation for empty-diff frames
		return db
	}
	bothTransportsSettled(t, mkDB, func(t *testing.T, sess qc.Session, settle func()) {
		ctx := context.Background()
		spec := qc.WatchSpec{Query: q, Answer: []qc.Value{"a4"}}

		var state []qc.ExplanationDTO
		var version uint64
		for ev, err := range sess.Watch(ctx, spec) {
			if err != nil {
				t.Fatalf("first watch: %v", err)
			}
			if ev.Type != "snapshot" {
				t.Fatalf("first frame type %q, want snapshot", ev.Type)
			}
			state, version = qc.ApplyDiff(state, ev), ev.Version
			break // disconnect
		}

		// Missed while away: an unrelated insert. The retained topic
		// records the empty version-bump, so the resume replays it —
		// a diff frame, not a snapshot.
		settle()
		if _, err := sess.Insert(ctx, qc.TupleSpec{Rel: "T", Args: []string{"t2"}, Endo: true}); err != nil {
			t.Fatal(err)
		}
		spec.ResumeFrom = version
		for ev, err := range sess.Watch(ctx, spec) {
			if err != nil {
				t.Fatalf("resumed watch: %v", err)
			}
			if ev.Type != "diff" || ev.Version <= version ||
				len(ev.CausesAdded)+len(ev.CausesRemoved)+len(ev.RankChanged) != 0 {
				t.Fatalf("resumed frame = %s; want empty diff past version %d", mustJSON(t, ev), version)
			}
			state, version = qc.ApplyDiff(state, ev), ev.Version
			break
		}

		// Missed while away: an insert affecting the watched query. With
		// no subscriber listening the topic is dropped rather than
		// re-ranked inside the mutation, so this resume pays a
		// full_resync — whose ranking must byte-equal a cold rank.
		settle()
		if _, err := sess.Insert(ctx, qc.TupleSpec{Rel: "R", Args: []string{"a4", "a2"}, Endo: true}); err != nil {
			t.Fatal(err)
		}
		spec.ResumeFrom = version
		for ev, err := range sess.Watch(ctx, spec) {
			if err != nil {
				t.Fatalf("second resume: %v", err)
			}
			if ev.Type != "full_resync" || ev.Version <= version {
				t.Fatalf("second resume frame = %s; want full_resync past version %d", mustJSON(t, ev), version)
			}
			state = qc.ApplyDiff(state, ev)
			break
		}
		// A fresh subscription's snapshot is the cold ranking in DTO form;
		// the resumed fold must byte-equal it.
		for ev, err := range sess.Watch(ctx, qc.WatchSpec{Query: q, Answer: []qc.Value{"a4"}}) {
			if err != nil {
				t.Fatalf("verification watch: %v", err)
			}
			if got, want := mustJSON(t, state), mustJSON(t, qc.ApplyDiff(nil, ev)); got != want {
				t.Fatalf("resumed state diverges from cold snapshot:\n got %s\nwant %s", got, want)
			}
			break
		}
	})
}

// TestWatchStreamResumeOlderThanBuffer: a WatchStream resume from a
// version the server's diff buffer no longer covers starts with a
// full_resync frame that replaces the folded state — the client never
// sees a broken diff chain.
func TestWatchStreamResumeOlderThanBuffer(t *testing.T) {
	srv := server.New(server.Config{ReapInterval: -1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	c := qc.NewClient(ts.URL, nil)
	ctx := context.Background()
	info, err := c.UploadDB(ctx, mutateChainDB())
	if err != nil {
		t.Fatal(err)
	}

	// Outrun the per-topic replay buffer (64 frames) so version 1 is
	// unrecoverable as a chain.
	for i := 0; i < 70; i++ {
		if _, err := c.InsertTuples(ctx, info.ID, []qc.TupleSpec{{Rel: "S", Args: []string{"zz"}, Endo: true}}); err != nil {
			t.Fatal(err)
		}
	}
	for ev, err := range c.WatchStream(ctx, info.ID, qc.WatchRequest{
		Query: "q(x) :- R(x,y), S(y)", Answer: []string{"a4"}, ResumeFrom: 1,
	}) {
		if err != nil {
			t.Fatalf("watch: %v", err)
		}
		if ev.Type != "full_resync" {
			t.Fatalf("stale resume's first frame = %q, want full_resync", ev.Type)
		}
		break
	}
}

// TestWatchStreamSurvivesOwnerDeath is the end-to-end survivability
// contract: a live watch whose owning node is killed reconnects
// through a fallback base, resumes once the dead node is removed from
// the ring and a survivor restores the session from the shared store,
// and its folded state converges to the cold ranking — the stream
// never surfaces an error until the consumer cancels it.
func TestWatchStreamSurvivesOwnerDeath(t *testing.T) {
	restore := qc.SetRetryBackoffBase(5 * time.Millisecond)
	defer restore()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Three nodes over one shared persist dir (only a session's owner
	// writes its snapshot, so the stores do not fight).
	const n = 3
	dir := t.TempDir()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	srvs := make([]*server.Server, n)
	hss := make([]*http.Server, n)
	for i := range lns {
		st, err := persist.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = server.New(server.Config{
			ReapInterval: -1, Self: urls[i], Peers: urls,
			Persist: st, PersistInterval: 50 * time.Millisecond,
		})
		hss[i] = &http.Server{Handler: srvs[i].Handler()}
		go hss[i].Serve(lns[i])
		i := i
		t.Cleanup(func() {
			hss[i].Close()
			srvs[i].Close()
		})
	}

	admin := qc.NewClient(urls[1], nil).SetFallbacks([]string{urls[2]}).SetRetries(8)
	mint := qc.NewClient(urls[0], nil) // session is minted onto node 0
	info, err := mint.UploadDB(ctx, mutateChainDB())
	if err != nil {
		t.Fatal(err)
	}
	const q = "q(x) :- R(x,y), S(y)"

	// The watcher folds frames under a lock; the main goroutine polls.
	var (
		mu      sync.Mutex
		state   []qc.ExplanationDTO
		version uint64
		watchWG sync.WaitGroup
		lastErr error
	)
	watcher := qc.NewClient(urls[0], nil).SetFallbacks([]string{urls[1], urls[2]})
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		for ev, err := range watcher.WatchStream(ctx, info.ID, qc.WatchRequest{Query: q, Answer: []string{"a4"}}) {
			if err != nil {
				lastErr = err
				return
			}
			mu.Lock()
			state = qc.ApplyDiff(state, ev)
			version = ev.Version
			mu.Unlock()
		}
	}()
	versionReached := func(v uint64) func() bool {
		return func() bool {
			mu.Lock()
			defer mu.Unlock()
			return version >= v
		}
	}
	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}

	// A live frame before the kill proves the stream is up.
	ins, err := mint.InsertTuples(ctx, info.ID, []qc.TupleSpec{{Rel: "R", Args: []string{"a4", "a2"}, Endo: true}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(versionReached(ins.Version), "pre-kill frame")

	// Kill the owner mid-stream — flush first so the survivors can
	// restore the session's current state from the shared store — then
	// shrink the ring so a survivor takes ownership.
	if err := srvs[0].Flush(); err != nil {
		t.Fatal(err)
	}
	hss[0].Close()
	srvs[0].Close()
	if _, err := admin.RemoveNode(ctx, urls[0]); err != nil {
		t.Fatalf("removing dead node: %v", err)
	}

	// A mutation routed through a survivor lands on the new owner (it
	// lazily restores the session) and must reach the resumed watch.
	ins, err = admin.InsertTuples(ctx, info.ID, []qc.TupleSpec{{Rel: "S", Args: []string{"w9"}, Endo: true}})
	if err != nil {
		t.Fatalf("post-kill insert: %v", err)
	}
	waitFor(versionReached(ins.Version), "post-kill frame on the resumed stream")

	// The folded state matches a cold rank from the new owner,
	// whichever recovery path (replay or full_resync) the resume took.
	cold, err := admin.WhySo(ctx, info.ID, "", qc.ExplainRequest{Query: q, Answer: []string{"a4"}})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := mustJSON(t, state)
	mu.Unlock()
	if want := mustJSON(t, cold.Explanations); got != want {
		t.Fatalf("folded state after failover:\n got %s\nwant %s", got, want)
	}

	// The stream never died on its own; it ends with the consumer's
	// cancellation.
	cancel()
	watchWG.Wait()
	if !errors.Is(lastErr, context.Canceled) {
		t.Fatalf("watch ended with %v, want context.Canceled", lastErr)
	}
}

// TestWatchStreamReconnectBackoffCancel: a watch stuck in its
// reconnect-backoff loop (every base dead) honors context
// cancellation promptly instead of sleeping out the backoff.
func TestWatchStreamReconnectBackoffCancel(t *testing.T) {
	restore := qc.SetRetryBackoffBase(2 * time.Second) // long sleeps: cancellation must cut them short
	defer restore()

	srv := server.New(server.Config{ReapInterval: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := qc.NewClient(url, nil)
	info, err := c.UploadDB(ctx, mutateChainDB())
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		var last error
		for ev, err := range c.WatchStream(ctx, info.ID, qc.WatchRequest{Query: "q(x) :- R(x,y), S(y)", Answer: []string{"a4"}}) {
			if err != nil {
				last = err
				break
			}
			if ev.Type == "snapshot" {
				close(started)
			}
		}
		got <- last
	}()
	<-started
	hs.Close() // no fallbacks: every reconnect fails, backoff grows from 2s
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("watch ended with %v, want context.Canceled", err)
		}
	case <-time.After(1 * time.Second):
		t.Fatal("watch did not stop within 1s of cancellation; backoff sleep ignored the context")
	}
}
