package server

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/querycause/querycause/internal/cluster"
	"github.com/querycause/querycause/internal/persist"
)

func testStore(t *testing.T) *persist.Store {
	t.Helper()
	st, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	return st
}

// persistCfg disables the background flusher so these tests prove the
// synchronous paths (Flush, drain) do the writing.
func persistCfg(st *persist.Store) Config {
	return Config{ReapInterval: -1, Persist: st, PersistInterval: -1}
}

// TestWarmRestart is the tentpole invariant: stop a server, boot a new
// one over the same snapshot store, and the restored session must
// serve the same session id, prepared query id, warm certificate, and
// byte-identical ranking — without re-uploading anything.
func TestWarmRestart(t *testing.T) {
	st := testStore(t)
	srvA, tsA := newTest(t, persistCfg(st))

	info := upload(t, tsA, chainDBText)
	var prep PrepareQueryResponse
	if code := call(t, http.MethodPost, tsA.URL+"/v1/databases/"+info.ID+"/queries",
		PrepareQueryRequest{Query: "q(x) :- R(x,y), S(y)"}, &prep); code != 201 {
		t.Fatalf("prepare: status %d", code)
	}
	var before ExplainResponse
	if code := call(t, http.MethodPost, tsA.URL+"/v1/databases/"+info.ID+"/queries/"+prep.ID+"/whyso",
		ExplainRequest{Answer: []string{"a4"}}, &before); code != 200 {
		t.Fatalf("explain: status %d", code)
	}
	if err := srvA.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	srvB, tsB := newTest(t, persistCfg(st))
	if got := srvB.Restored(); got != 1 {
		t.Fatalf("restored %d sessions at boot, want 1", got)
	}
	// The session and its prepared query answer under their old ids.
	var after ExplainResponse
	if code := call(t, http.MethodPost, tsB.URL+"/v1/databases/"+info.ID+"/queries/"+prep.ID+"/whyso",
		ExplainRequest{Answer: []string{"a4"}}, &after); code != 200 {
		t.Fatalf("warm explain after restart: status %d", code)
	}
	if !after.CertificateCached {
		t.Fatalf("restarted server re-ran classification (certificate not restored)")
	}
	bj, _ := json.Marshal(before.Explanations)
	aj, _ := json.Marshal(after.Explanations)
	if string(bj) != string(aj) {
		t.Fatalf("restored ranking differs:\nbefore %s\nafter  %s", bj, aj)
	}

	// Byte-level check on the restored data plane: same dictionary,
	// same code vectors.
	sessA, okA := srvA.reg.get(info.ID)
	sessB, okB := srvB.reg.get(info.ID)
	if !okA || !okB {
		t.Fatalf("session lookup: A=%v B=%v", okA, okB)
	}
	da, db := sessA.db.Dict(), sessB.db.Dict()
	if da.Len() != db.Len() {
		t.Fatalf("dict sizes differ after restore: %d vs %d", da.Len(), db.Len())
	}
	for c := 0; c < da.Len(); c++ {
		if da.Value(uint32(c)) != db.Value(uint32(c)) {
			t.Fatalf("dict code %d differs: %q vs %q", c, da.Value(uint32(c)), db.Value(uint32(c)))
		}
	}
	for name, ra := range sessA.db.Relations {
		rb := sessB.db.Relation(name)
		if rb == nil {
			t.Fatalf("relation %s lost in restore", name)
		}
		for c := 0; c < ra.Arity; c++ {
			ca, cb := ra.Col(c), rb.Col(c)
			if len(ca) != len(cb) {
				t.Fatalf("relation %s col %d length differs", name, c)
			}
			for i := range ca {
				if ca[i] != cb[i] {
					t.Fatalf("relation %s col %d row %d code differs: %d vs %d", name, c, i, ca[i], cb[i])
				}
			}
		}
	}

	// A new upload on the restarted server must not collide with the
	// restored id (the id sequence advanced past it).
	info2 := upload(t, tsB, chainDBText)
	if info2.ID == info.ID {
		t.Fatalf("restarted server reissued session id %q", info.ID)
	}
}

// TestLazyLoadAfterEviction: an LRU-evicted session revives from its
// snapshot on the next request instead of 404ing.
func TestLazyLoadAfterEviction(t *testing.T) {
	st := testStore(t)
	cfg := persistCfg(st)
	cfg.MaxSessions = 1
	srv, ts := newTest(t, cfg)

	info1 := upload(t, ts, chainDBText)
	if err := srv.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	info2 := upload(t, ts, chainDBText) // evicts info1 from memory
	if info1.ID == info2.ID {
		t.Fatalf("duplicate session ids")
	}
	st1 := stats(t, ts)
	if st1.SessionsEvicted != 1 {
		t.Fatalf("SessionsEvicted = %d, want 1", st1.SessionsEvicted)
	}
	// info1 is gone from memory but revives from disk (and in turn
	// evicts info2 under MaxSessions=1).
	var out ExplainResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info1.ID+"/whyso",
		ExplainRequest{Query: "q(x) :- R(x,y), S(y)", Answer: []string{"a4"}}, &out); code != 200 {
		t.Fatalf("explain on evicted session: status %d (lazy load failed)", code)
	}
	if len(out.Explanations) == 0 {
		t.Fatalf("lazy-loaded session returned no explanations")
	}
	st2 := stats(t, ts)
	if st2.RestoredSessions != 1 {
		t.Fatalf("RestoredSessions = %d, want 1", st2.RestoredSessions)
	}
}

// TestDeleteDropsSnapshot: DELETE removes the snapshot too, so a
// deleted session cannot lazily revive; deleting an evicted-but-
// snapshotted session succeeds.
func TestDeleteDropsSnapshot(t *testing.T) {
	st := testStore(t)
	srv, ts := newTest(t, persistCfg(st))
	info := upload(t, ts, chainDBText)
	if err := srv.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if !st.Exists(info.ID) {
		t.Fatalf("no snapshot after flush")
	}
	if code := call(t, http.MethodDelete, ts.URL+"/v1/databases/"+info.ID, nil, nil); code != 204 {
		t.Fatalf("delete: status %d", code)
	}
	if st.Exists(info.ID) {
		t.Fatalf("snapshot survived DELETE")
	}
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/whyso",
		ExplainRequest{Query: "q(x) :- R(x,y), S(y)"}, nil); code != 404 {
		t.Fatalf("deleted session answered %d, want 404", code)
	}

	// Evict-then-delete: the session only exists as a snapshot.
	info2 := upload(t, ts, chainDBText)
	if err := srv.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	srv.reg.remove(info2.ID) // simulate eviction without touching disk
	if code := call(t, http.MethodDelete, ts.URL+"/v1/databases/"+info2.ID, nil, nil); code != 204 {
		t.Fatalf("delete of snapshotted-only session: status %d", code)
	}
	if st.Exists(info2.ID) {
		t.Fatalf("snapshot survived DELETE of evicted session")
	}
}

// TestCorruptSnapshotSkippedAtBoot: one corrupt file must not stop the
// server from restoring the rest.
func TestCorruptSnapshotSkippedAtBoot(t *testing.T) {
	st := testStore(t)
	srvA, tsA := newTest(t, persistCfg(st))
	good := upload(t, tsA, chainDBText)
	bad := upload(t, tsA, chainDBText)
	if err := srvA.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// Corrupt one snapshot on disk.
	data := []byte("QCSN garbage that is long enough to parse a header from....")
	if err := os.WriteFile(st.Path(bad.ID), data, 0o644); err != nil {
		t.Fatalf("corrupting snapshot: %v", err)
	}
	srvB, tsB := newTest(t, persistCfg(st))
	if got := srvB.Restored(); got != 1 {
		t.Fatalf("restored %d sessions, want 1 (corrupt one skipped)", got)
	}
	if code := call(t, http.MethodPost, tsB.URL+"/v1/databases/"+good.ID+"/whyso",
		ExplainRequest{Query: "q(x) :- R(x,y), S(y)", Answer: []string{"a4"}}, nil); code != 200 {
		t.Fatalf("good session did not survive corrupt sibling: status %d", code)
	}
}

// restartableNode serves whichever server is currently installed behind
// one stable listener, so a test can restart a node at the same URL.
// With no server installed it answers 503, like a node still booting.
type restartableNode struct {
	url string
	cur atomic.Pointer[Server]
}

func startRestartable(t *testing.T) *restartableNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	n := &restartableNode{url: "http://" + ln.Addr().String()}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv := n.cur.Load()
		if srv == nil {
			writeError(w, http.StatusServiceUnavailable, "booting")
			return
		}
		srv.Handler().ServeHTTP(w, r)
	})}
	go hs.Serve(ln)
	t.Cleanup(func() {
		hs.Close()
		if srv := n.cur.Load(); srv != nil {
			srv.Close()
		}
	})
	return n
}

// boot replaces the node's server with a fresh one built from cfg.
func (n *restartableNode) boot(cfg Config) *Server {
	cfg.ReapInterval, cfg.Self = -1, n.url
	srv := New(cfg)
	if old := n.cur.Swap(srv); old != nil {
		old.Close()
	}
	return srv
}

// TestRestartWithAddedPeerHandsOffRestored: two persisted nodes each
// with their own snapshot store restart with a third peer added to the
// static peer list. Every restored session the new ring assigns to the
// newcomer must reach it, even though the newcomer boots after them,
// and must leave the node that restored it; the rest stay put.
func TestRestartWithAddedPeerHandsOffRestored(t *testing.T) {
	a, b, c := startRestartable(t), startRestartable(t), startRestartable(t)
	stores := map[*restartableNode]*persist.Store{a: testStore(t), b: testStore(t)}
	old := []string{a.url, b.url}
	infos := make(map[string]DatabaseInfo)
	for _, n := range []*restartableNode{a, b} {
		srv := n.boot(Config{Peers: old, Persist: stores[n], PersistInterval: -1})
		for i := 0; i < 16; i++ {
			var info DatabaseInfo
			if code := call(t, http.MethodPost, n.url+"/v1/databases", CreateDatabaseRequest{Database: chainDBText}, &info); code != 201 {
				t.Fatalf("upload to %s: status %d", n.url, code)
			}
			infos[info.ID] = info
		}
		if err := srv.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}

	peers := []string{a.url, b.url, c.url}
	ring := cluster.New(peers)
	moved := 0
	for id := range infos {
		if ring.Owner(id) == c.url {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no session rehashes onto the added peer; the test proves nothing")
	}
	srvs := map[string]*Server{
		a.url: a.boot(Config{Peers: peers, Persist: stores[a], PersistInterval: -1}),
		b.url: b.boot(Config{Peers: peers, Persist: stores[b], PersistInterval: -1}),
	}
	if got := srvs[a.url].Restored() + srvs[b.url].Restored(); got != uint64(len(infos)) {
		t.Fatalf("restored %d sessions, want %d", got, len(infos))
	}
	srvs[c.url] = c.boot(Config{Peers: peers})

	holders := func(id string) (n int, at string) {
		for url, srv := range srvs {
			if _, ok := srv.reg.get(id); ok {
				n, at = n+1, url
			}
		}
		return n, at
	}
	eventually(t, 10*time.Second, func() bool {
		for id := range infos {
			if n, at := holders(id); n != 1 || at != ring.Owner(id) {
				return false
			}
		}
		return true
	}, "restored sessions did not all settle on their owners under the new ring")
	for id, want := range infos {
		sess, _ := srvs[ring.Owner(id)].reg.get(id)
		if got := sess.db.Version(); got != want.Version {
			t.Fatalf("session %s at its owner is at version %d, want %d", id, got, want.Version)
		}
		// Through every node: non-owners redirect to the owner, which
		// answers instead of 404ing.
		for _, via := range peers {
			if code := call(t, http.MethodPost, via+"/v1/databases/"+id+"/whyso",
				ExplainRequest{Query: "q(x) :- R(x,y), S(y)", Answer: []string{"a4"}}, nil); code != 200 {
				t.Fatalf("explain of %s via %s: status %d", id, via, code)
			}
		}
	}
}

// TestRestartPullsCurrentTopology: a node restarted with the peer list
// it first booted with, after a join it took part in, comes back on the
// current ring: it installs the newest topology its peers hold instead
// of starting over at epoch 1 with its old peer list.
func TestRestartPullsCurrentTopology(t *testing.T) {
	a, b, c := startRestartable(t), startRestartable(t), startRestartable(t)
	old := []string{a.url, b.url}
	a.boot(Config{Peers: old})
	b.boot(Config{Peers: old})
	c.boot(Config{Peers: []string{c.url}})
	var ch ClusterChangeResponse
	if code := call(t, http.MethodPost, a.url+"/v1/cluster/nodes", ClusterNodeRequest{URL: c.url}, &ch); code != 200 || ch.Epoch != 2 {
		t.Fatalf("join: status %d, epoch %d; want 200 at epoch 2", code, ch.Epoch)
	}
	b.boot(Config{Peers: old})
	eventually(t, 10*time.Second, func() bool {
		var topo ClusterResponse
		return call(t, http.MethodGet, b.url+"/v1/cluster", nil, &topo) == 200 && topo.Epoch == ch.Epoch && len(topo.Peers) == 3
	}, "the restarted node did not install the current topology")
}

// TestRestoredHandoffKeepsOwnersCopy: a handoff of a restored snapshot
// must not roll its owner back. When the owner already holds the
// session at the same or a newer version (a snapshot store shared by
// the ring restores every node's sessions everywhere), it keeps its
// copy and still acknowledges; an ordinary handoff displaces it.
func TestRestoredHandoffKeepsOwnersCopy(t *testing.T) {
	urls, srvs := startCluster(t, 1, nil)
	var info DatabaseInfo
	if code := call(t, http.MethodPost, urls[0]+"/v1/databases", CreateDatabaseRequest{Database: chainDBText}, &info); code != 201 {
		t.Fatalf("upload: status %d", code)
	}
	sess, _ := srvs[0].reg.get(info.ID)
	stale, err := sess.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := persist.Encode(stale)
	if err != nil {
		t.Fatal(err)
	}
	mr := insertTuples(t, urls[0], info.ID, TupleSpec{Rel: "S", Args: []string{"a9"}, Endo: true})

	put := func(query string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPut, urls[0]+"/v1/cluster/sessions/"+info.ID+query, bytes.NewReader(data))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("transfer%s: status %d", query, resp.StatusCode)
		}
	}
	version := func() uint64 {
		sess, ok := srvs[0].reg.get(info.ID)
		if !ok {
			t.Fatal("the owner lost the session")
		}
		sess.dbMu.RLock()
		defer sess.dbMu.RUnlock()
		return sess.db.Version()
	}
	put("?" + restoredParam + "=1")
	if got := version(); got != mr.Version {
		t.Fatalf("restored handoff rolled the owner back to version %d, want %d", got, mr.Version)
	}
	put("")
	if got := version(); got != info.Version {
		t.Fatalf("ordinary handoff left version %d, want the sender's %d", got, info.Version)
	}
}

// restartWithAddedPeer uploads n sessions to a lone persisted node a,
// then restarts a with c added to the peer list, c booting first from
// boot (nil: c is not started here). It returns a's restarted server
// and the uploaded sessions, split by the node the new ring assigns
// them to.
func restartWithAddedPeer(t *testing.T, a, c *restartableNode, store *persist.Store, n int, boot func(peers []string)) (srv *Server, kept, moved map[string]DatabaseInfo) {
	t.Helper()
	srv = a.boot(Config{Peers: []string{a.url}, Persist: store, PersistInterval: -1})
	kept, moved = make(map[string]DatabaseInfo), make(map[string]DatabaseInfo)
	peers := []string{a.url, c.url}
	ring := cluster.New(peers)
	for i := 0; i < n; i++ {
		var info DatabaseInfo
		if code := call(t, http.MethodPost, a.url+"/v1/databases", CreateDatabaseRequest{Database: chainDBText}, &info); code != 201 {
			t.Fatalf("upload: status %d", code)
		}
		if ring.Owner(info.ID) == c.url {
			moved[info.ID] = info
		} else {
			kept[info.ID] = info
		}
	}
	if len(moved) == 0 {
		t.Fatal("no session rehashes onto the added peer; the test proves nothing")
	}
	if err := srv.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if boot != nil {
		boot(peers)
	}
	return a.boot(Config{Peers: peers, Persist: store, PersistInterval: -1}), kept, moved
}

// TestHandedOffSessionStaysDeleted: a node that hands a restored
// session to its owner drops its own snapshot of it, so once the owner
// deletes the session, no restart of the sender brings it back.
func TestHandedOffSessionStaysDeleted(t *testing.T) {
	a, c := startRestartable(t), startRestartable(t)
	storeA := testStore(t)
	var peers []string
	srvA, kept, moved := restartWithAddedPeer(t, a, c, storeA, 8, func(p []string) {
		peers = p
		c.boot(Config{Peers: p, Persist: testStore(t), PersistInterval: -1})
	})
	eventually(t, 10*time.Second, func() bool {
		for id := range moved {
			if _, ok := srvA.reg.get(id); ok || storeA.Exists(id) {
				return false
			}
		}
		return true
	}, "the restored sessions, or the sender's snapshots of them, did not leave the sender")
	for id := range moved {
		if code := call(t, http.MethodDelete, c.url+"/v1/databases/"+id, nil, nil); code != http.StatusNoContent {
			t.Fatalf("delete %s at its owner: status %d", id, code)
		}
	}

	srvA = a.boot(Config{Peers: peers, Persist: storeA, PersistInterval: -1})
	if got := srvA.Restored(); got != uint64(len(kept)) {
		t.Fatalf("restarted sender restored %d sessions, want its own %d", got, len(kept))
	}
	for id := range moved {
		for _, via := range peers {
			if code := call(t, http.MethodPost, via+"/v1/databases/"+id+"/whyso",
				ExplainRequest{Query: "q(x) :- R(x,y), S(y)", Answer: []string{"a4"}}, nil); code != http.StatusNotFound {
				t.Fatalf("deleted session %s via %s: status %d, want 404", id, via, code)
			}
		}
	}
}

// TestRestoredHandoffRefusesCollidingID: the added node mints, before
// the restored sessions reach it, the very ids the new ring assigns to
// it. Those are other sessions, some smaller and some larger than the
// restored ones: the handoff must replace none of them, and the node
// that restored the originals keeps them rather than dropping them.
func TestRestoredHandoffRefusesCollidingID(t *testing.T) {
	a, c := startRestartable(t), startRestartable(t)
	const larger = chainDBText + "+S(z1)\n+S(z2)\n+S(z3)\n"
	own := make(map[string]DatabaseInfo)
	srvA, _, moved := restartWithAddedPeer(t, a, c, testStore(t), 8, func(peers []string) {
		c.boot(Config{Peers: peers})
		for i := 0; i < 8; i++ {
			db := "+R(a1, a5)\n+S(a5)\n"
			if i%2 == 1 {
				db = larger
			}
			var info DatabaseInfo
			if code := call(t, http.MethodPost, c.url+"/v1/databases", CreateDatabaseRequest{Database: db}, &info); code != 201 {
				t.Fatalf("upload to the added node: status %d", code)
			}
			own[info.ID] = info
		}
	})
	for id := range moved {
		if _, ok := own[id]; !ok {
			t.Fatalf("the added node did not mint %s; the test proves nothing", id)
		}
	}
	eventually(t, 10*time.Second, func() bool {
		return srvA.handoffFails.Load() >= uint64(len(moved))
	}, "the restored sessions were not all pushed")
	// A refusal is final: no further pass pushes them again.
	time.Sleep(3 * handoffRetryBase)
	if got := srvA.handoffFails.Load(); got != uint64(len(moved)) {
		t.Fatalf("%d refused pushes, want %d (one per colliding session)", got, len(moved))
	}
	srvC := c.cur.Load()
	for id, want := range moved {
		sess, ok := srvA.reg.get(id)
		if !ok || sess.db.Version() != want.Version {
			t.Fatalf("the restoring node dropped or changed %s", id)
		}
		sess, ok = srvC.reg.get(id)
		if !ok || sess.db.Version() != own[id].Version {
			t.Fatalf("the added node's own %s was replaced", id)
		}
	}
}

// TestCloseAbortsBootHandoff: Close must not wait out the peer timeout
// of each boot-handoff push to an owner that never answers.
func TestCloseAbortsBootHandoff(t *testing.T) {
	pushed, release := make(chan struct{}, 64), make(chan struct{})
	silent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pushed <- struct{}{}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(silent.Close)
	t.Cleanup(func() { close(release) })
	a := startRestartable(t)
	srv, _, _ := restartWithAddedPeer(t, a, &restartableNode{url: silent.URL}, testStore(t), 8, nil)
	select {
	case <-pushed:
	case <-time.After(10 * time.Second):
		t.Fatal("no handoff push reached the owner")
	}
	start := time.Now()
	srv.Close()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v with a handoff push unanswered", d)
	}
}

// TestUnformattableTuplesSurviveRestartAndHandoff: the insert path
// accepts values and relation names the text format cannot carry, so a
// session holding them must still restore after a restart and install
// on a handoff.
func TestUnformattableTuplesSurviveRestartAndHandoff(t *testing.T) {
	st := testStore(t)
	srvA, tsA := newTest(t, persistCfg(st))
	info := upload(t, tsA, chainDBText)
	ins := InsertTuplesRequest{Tuples: []TupleSpec{
		{Rel: "r", Args: []string{"x\ny"}, Endo: true},
		{Rel: "S", Args: []string{`it's "both"`}},
	}}
	if code := call(t, http.MethodPost, tsA.URL+"/v1/databases/"+info.ID+"/tuples", ins, nil); code != 200 {
		t.Fatalf("insert: status %d", code)
	}
	if err := srvA.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	sessA, _ := srvA.reg.get(info.ID)
	want := sessA.db.Columns()

	srvB, _ := newTest(t, persistCfg(st))
	if got := srvB.Restored(); got != 1 {
		t.Fatalf("restored %d sessions at boot, want 1", got)
	}
	sessB, ok := srvB.reg.get(info.ID)
	if !ok || !reflect.DeepEqual(sessB.db.Columns(), want) {
		t.Fatalf("restart: session %s restored %v, want the columns it was saved with", info.ID, ok)
	}

	snap, err := srvA.snapshotOf(sessA)
	if err != nil {
		t.Fatal(err)
	}
	data, err := persist.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	urls, srvs := startCluster(t, 1, nil)
	req, _ := http.NewRequest(http.MethodPut, urls[0]+"/v1/cluster/sessions/"+info.ID, bytes.NewReader(data))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("handoff: status %d, want 204", resp.StatusCode)
	}
	sessC, ok := srvs[0].reg.get(info.ID)
	if !ok || !reflect.DeepEqual(sessC.db.Columns(), want) {
		t.Fatalf("handoff: session %s installed %v, want the columns it was sent with", info.ID, ok)
	}
}
