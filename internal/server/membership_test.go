package server

import (
	"encoding/json"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/querycause/querycause/internal/cluster"
	"github.com/querycause/querycause/internal/persist"
)

// bootExtra starts one additional replica as a single-node cluster —
// the state a joiner is in before an admin adds it to the ring.
func bootExtra(t *testing.T) (string, *Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	url := "http://" + ln.Addr().String()
	srv := New(Config{ReapInterval: -1, Self: url, Peers: []string{url}})
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return url, srv
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, d time.Duration, cond func() bool, format string, args ...any) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf(format, args...)
}

// noFollow is a client that surfaces redirects instead of following.
var noFollow = &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
	return http.ErrUseLastResponse
}}

// TestClusterJoinRemoveEpochs: joining a node mints the next epoch and
// propagates the topology to every member including the joiner;
// removing one mints another. Duplicate joins and unknown removals are
// conflicts and leave the epoch alone.
func TestClusterJoinRemoveEpochs(t *testing.T) {
	urls, _ := startCluster(t, 3, nil)
	joiner, _ := bootExtra(t)

	var ch ClusterChangeResponse
	if code := call(t, http.MethodPost, urls[0]+"/v1/cluster/nodes",
		ClusterNodeRequest{URL: joiner}, &ch); code != 200 {
		t.Fatalf("join: status %d", code)
	}
	if ch.Epoch != 2 || len(ch.Nodes) != 4 {
		t.Fatalf("join = epoch %d / %d nodes, want 2 / 4", ch.Epoch, len(ch.Nodes))
	}
	if ch.PeersNotified != 3 {
		t.Fatalf("join notified %d peers, want 3 (two founders + the joiner)", ch.PeersNotified)
	}
	// Propagation is synchronous inside the admin request: every member
	// (including the joiner, whose boot topology was just itself)
	// answers with the new membership immediately.
	for _, u := range append(append([]string(nil), urls...), joiner) {
		var topo ClusterResponse
		if code := call(t, http.MethodGet, u+"/v1/cluster", nil, &topo); code != 200 {
			t.Fatalf("cluster via %s: status %d", u, code)
		}
		if topo.Epoch != 2 || len(topo.Peers) != 4 {
			t.Fatalf("%s sees epoch %d / %d peers, want 2 / 4", u, topo.Epoch, len(topo.Peers))
		}
	}
	// The epoch also rides the response header, the client's staleness
	// signal.
	resp, err := http.Get(urls[1] + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(EpochHeader); got != "2" {
		t.Fatalf("%s = %q, want 2", EpochHeader, got)
	}

	// Conflicts do not burn epochs.
	if code := call(t, http.MethodPost, urls[1]+"/v1/cluster/nodes",
		ClusterNodeRequest{URL: joiner}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate join: status %d, want 409", code)
	}
	if code := call(t, http.MethodDelete, urls[1]+"/v1/cluster/nodes?url=http://nope:1", nil, nil); code != http.StatusConflict {
		t.Fatalf("unknown removal: status %d, want 409", code)
	}
	if code := call(t, http.MethodPost, urls[1]+"/v1/cluster/nodes",
		ClusterNodeRequest{URL: "not a url"}, nil); code != http.StatusBadRequest {
		t.Fatalf("malformed join: status %d, want 400", code)
	}

	if code := call(t, http.MethodDelete, urls[0]+"/v1/cluster/nodes?url="+joiner, nil, &ch); code != 200 {
		t.Fatalf("remove: status %d", code)
	}
	if ch.Epoch != 3 || len(ch.Nodes) != 3 {
		t.Fatalf("remove = epoch %d / %d nodes, want 3 / 3", ch.Epoch, len(ch.Nodes))
	}
}

// TestTopologyInstallMonotone: PUT /v1/cluster/topology installs are
// strictly epoch-monotone — stale and duplicate pushes are no-ops, so
// members may re-push to each other in any order and still converge.
func TestTopologyInstallMonotone(t *testing.T) {
	urls, _ := startCluster(t, 3, nil)

	epochOf := func(u string) uint64 {
		var topo ClusterResponse
		if code := call(t, http.MethodGet, u+"/v1/cluster", nil, &topo); code != 200 {
			t.Fatalf("cluster: status %d", code)
		}
		return topo.Epoch
	}

	// A stale push (the boot epoch) changes nothing.
	if code := call(t, http.MethodPut, urls[0]+"/v1/cluster/topology",
		cluster.Topology{Epoch: 1, Nodes: urls[:2]}, nil); code != 200 {
		t.Fatalf("stale push: status %d", code)
	}
	if got := epochOf(urls[0]); got != 1 {
		t.Fatalf("epoch after stale push = %d, want 1", got)
	}

	// A newer push installs, shrinking the ring.
	newer := cluster.Topology{Epoch: 5, Nodes: urls[:2]}
	var ch ClusterChangeResponse
	if code := call(t, http.MethodPut, urls[0]+"/v1/cluster/topology", newer, &ch); code != 200 {
		t.Fatalf("newer push: status %d", code)
	}
	if ch.Epoch != 5 {
		t.Fatalf("install answered epoch %d, want 5", ch.Epoch)
	}
	var topo ClusterResponse
	call(t, http.MethodGet, urls[0]+"/v1/cluster", nil, &topo)
	if topo.Epoch != 5 || len(topo.Peers) != 2 {
		t.Fatalf("after install: epoch %d / %d peers, want 5 / 2", topo.Epoch, len(topo.Peers))
	}

	// Replaying the same epoch or pushing an older one is a no-op.
	for _, stale := range []cluster.Topology{newer, {Epoch: 3, Nodes: urls}} {
		if code := call(t, http.MethodPut, urls[0]+"/v1/cluster/topology", stale, &ch); code != 200 {
			t.Fatalf("re-push: status %d", code)
		}
		if ch.Epoch != 5 {
			t.Fatalf("re-push answered epoch %d, want 5", ch.Epoch)
		}
	}
}

// TestJoinRebalancesSessions: a session whose id the grown ring assigns
// to the joiner is handed off — frozen, snapshotted, transferred — and
// then served by the joiner with the exact pre-move ranking, while the
// old owner redirects for it carrying the new epoch.
func TestJoinRebalancesSessions(t *testing.T) {
	urls, srvs := startCluster(t, 3, nil)
	joiner, joinSrv := bootExtra(t)
	grown := cluster.New(append(append([]string(nil), urls...), joiner))

	// Mint sessions round-robin across the founders until one lands on
	// the joiner under the grown ring — that session is guaranteed to
	// move on join. (A single node's keyspace slice stolen by the
	// joiner can be small with 64 vnodes; the joiner's TOTAL arc
	// cannot, so round-robin minting finds a mover fast.)
	var moving DatabaseInfo
	oldOwner := ""
	for i := 0; i < 256 && moving.ID == ""; i++ {
		var info DatabaseInfo
		if code := call(t, http.MethodPost, urls[i%len(urls)]+"/v1/databases",
			CreateDatabaseRequest{Database: chainDBText}, &info); code != 201 {
			t.Fatalf("upload: status %d", code)
		}
		if grown.Owner(info.ID) == joiner {
			moving, oldOwner = info, urls[i%len(urls)]
		}
	}
	if moving.ID == "" {
		t.Fatal("no minted session rehashes onto the joiner; consistent hashing is suspiciously lopsided")
	}
	exReq := ExplainRequest{Query: "q(x) :- R(x,y), S(y)", Answer: []string{"a4"}}
	var before ExplainResponse
	if code := call(t, http.MethodPost, oldOwner+"/v1/databases/"+moving.ID+"/whyso", exReq, &before); code != 200 {
		t.Fatalf("pre-move whyso: status %d", code)
	}

	if code := call(t, http.MethodPost, urls[2]+"/v1/cluster/nodes",
		ClusterNodeRequest{URL: joiner}, nil); code != 200 {
		t.Fatalf("join: status %d", code)
	}

	// Rebalancing is asynchronous; the handoff lands the session on the
	// joiner, warm.
	eventually(t, 5*time.Second, func() bool {
		_, ok := joinSrv.reg.get(moving.ID)
		return ok
	}, "session %s never arrived at the joiner", moving.ID)
	var after ExplainResponse
	if code := call(t, http.MethodPost, joiner+"/v1/databases/"+moving.ID+"/whyso", exReq, &after); code != 200 {
		t.Fatalf("post-move whyso at joiner: status %d", code)
	}
	if len(after.Explanations) != len(before.Explanations) {
		t.Fatalf("handoff changed the ranking: %d explanations, want %d", len(after.Explanations), len(before.Explanations))
	}

	// The old owner no longer serves the session: it redirects to the
	// joiner, and the redirect carries the new epoch so stale clients
	// re-pin.
	req, _ := http.NewRequest(http.MethodGet, oldOwner+"/v1/databases/"+moving.ID+"/tuples", nil)
	resp, err := noFollow.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("old owner answered %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, joiner) {
		t.Fatalf("redirect Location = %q, want the joiner %s", loc, joiner)
	}
	if got := resp.Header.Get(EpochHeader); got != "2" {
		t.Fatalf("redirect %s = %q, want 2", EpochHeader, got)
	}

	// The handoff counters saw it. Each side counts once its half is
	// done: the joiner after installing the session, the sender only
	// after the joiner's acknowledgment reached it, which may be after
	// the session is already served at the joiner.
	eventually(t, 5*time.Second, func() bool {
		var out uint64
		for _, sv := range srvs {
			out += sv.handoffsOut.Load()
		}
		return out > 0
	}, "founders' handoffsOut stayed zero")
	eventually(t, 5*time.Second, func() bool { return joinSrv.handoffsIn.Load() > 0 },
		"joiner's handoffsIn stayed zero")
}

// TestHandoffGraceAnswers503: a clustered node asked for a session it
// does not hold answers 404 in steady state, but 503 + Retry-After
// inside the grace window after a topology change — the session may be
// mid-handoff, and a retry (not an error) is the contract.
func TestHandoffGraceAnswers503(t *testing.T) {
	urls, _ := startCluster(t, 3, nil)
	// An id no one minted; ask its would-be owner so routing does not
	// redirect first.
	ghost := "d999"
	owner := cluster.New(urls).Owner(ghost)
	probe := func(owner string) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, owner+"/v1/databases/"+ghost+"/whyso",
			strings.NewReader(`{"query": "q() :- R(x,y)"}`))
		req.Header.Set("Content-Type", "application/json")
		resp, err := noFollow.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Fatal("503 carries no Retry-After")
			}
		}
		return resp.StatusCode
	}

	if code := probe(owner); code != http.StatusNotFound {
		t.Fatalf("steady-state unknown session: status %d, want 404", code)
	}

	// Shrink the ring so the grace window opens. The ghost's owner may
	// change with the ring; ask the new owner.
	if code := call(t, http.MethodDelete, urls[0]+"/v1/cluster/nodes?url="+urls[2], nil, nil); code != 200 {
		t.Fatalf("remove: status %d", code)
	}
	owner = cluster.New(urls[:2]).Owner(ghost)
	if code := probe(owner); code != http.StatusServiceUnavailable {
		t.Fatalf("in-grace unknown session: status %d, want 503", code)
	}
}

// TestSessionTransferDisplacesStale: the receiving half of a handoff
// installs the pushed snapshot as the authoritative copy, displacing
// whatever (staler) state the node already held, and rejects snapshots
// addressed to a different session.
func TestSessionTransferDisplacesStale(t *testing.T) {
	urls, srvs := startCluster(t, 2, nil)
	var info DatabaseInfo
	if code := call(t, http.MethodPost, urls[0]+"/v1/databases",
		CreateDatabaseRequest{Database: chainDBText}, &info); code != 201 {
		t.Fatalf("upload: status %d", code)
	}

	// Freeze-frame the session now, then mutate the live copy past it.
	sess, ok := srvs[0].reg.get(info.ID)
	if !ok {
		t.Fatalf("session %s not registered", info.ID)
	}
	snap, err := sess.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	stale, err := persist.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	var mut MutateResponse
	if code := call(t, http.MethodPost, urls[0]+"/v1/databases/"+info.ID+"/tuples",
		InsertTuplesRequest{Tuples: []TupleSpec{{Rel: "S", Args: []string{"zz"}, Endo: true}}}, &mut); code != 200 {
		t.Fatalf("mutate: status %d", code)
	}

	// Push the CURRENT state to node 1: it installs and counts it.
	cur, err := sess.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := persist.Encode(cur)
	if err != nil {
		t.Fatal(err)
	}
	put := func(id string, body []byte) int {
		req, _ := http.NewRequest(http.MethodPut, urls[1]+"/v1/cluster/sessions/"+id, strings.NewReader(string(body)))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put(info.ID, fresh); code != http.StatusNoContent {
		t.Fatalf("transfer: status %d, want 204", code)
	}
	got, ok := srvs[1].reg.get(info.ID)
	if !ok {
		t.Fatal("transferred session not installed")
	}
	if v := got.db.Version(); v != mut.Version {
		t.Fatalf("installed session at version %d, want %d", v, mut.Version)
	}

	// Now push the STALE snapshot's bytes under a lying id: rejected.
	if code := put("d777", stale); code != http.StatusBadRequest {
		t.Fatalf("mismatched-id transfer: status %d, want 400", code)
	}
	// And a stale re-push displaces the fresher copy — the protocol
	// trusts the pushing owner to send its final word, which is why the
	// sender freezes the session first.
	if code := put(info.ID, fresh); code != http.StatusNoContent {
		t.Fatalf("re-transfer: status %d", code)
	}
	if got := srvs[1].handoffsIn.Load(); got != 2 {
		t.Fatalf("handoffsIn = %d, want 2", got)
	}
}

// TestIdempotentMutationReplay: a keyed mutation re-sent with the same
// Idempotency-Key replays the recorded response — same body, marked
// with the replay header — instead of applying twice.
func TestIdempotentMutationReplay(t *testing.T) {
	_, ts := newTest(t, Config{})
	info := upload(t, ts, chainDBText)

	send := func(method, url, key, body string) (*http.Response, string) {
		t.Helper()
		var rd *strings.Reader
		if body != "" {
			rd = strings.NewReader(body)
		} else {
			rd = strings.NewReader("")
		}
		req, _ := http.NewRequest(method, url, rd)
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set(idempotencyHeader, key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, 1<<16)
		n, _ := resp.Body.Read(raw)
		resp.Body.Close()
		return resp, string(raw[:n])
	}

	insertBody := `{"tuples": [{"rel": "S", "args": ["fresh"], "endo": true}]}`
	tuplesURL := ts.URL + "/v1/databases/" + info.ID + "/tuples"
	first, firstBody := send(http.MethodPost, tuplesURL, "k1", insertBody)
	if first.StatusCode != 200 {
		t.Fatalf("keyed insert: status %d", first.StatusCode)
	}
	if first.Header.Get(replayHeader) != "" {
		t.Fatal("first application marked as a replay")
	}
	second, secondBody := send(http.MethodPost, tuplesURL, "k1", insertBody)
	if second.StatusCode != 200 {
		t.Fatalf("replayed insert: status %d", second.StatusCode)
	}
	if second.Header.Get(replayHeader) != "true" {
		t.Fatalf("replay header = %q, want true", second.Header.Get(replayHeader))
	}
	if firstBody != secondBody {
		t.Fatalf("replayed body differs:\nfirst:  %s\nsecond: %s", firstBody, secondBody)
	}
	if st := stats(t, ts); st.MutationsTotal != 1 {
		t.Fatalf("MutationsTotal = %d after a replay, want 1 (no double apply)", st.MutationsTotal)
	}

	// Deletes too: the second keyed delete of the same tuple replays 200
	// instead of failing with tuple_not_found.
	var mut MutateResponse
	if err := json.Unmarshal([]byte(firstBody), &mut); err != nil {
		t.Fatalf("decoding insert response %q: %v", firstBody, err)
	}
	if len(mut.TupleIDs) != 1 {
		t.Fatalf("insert assigned %v ids, want 1", mut.TupleIDs)
	}
	delURL := tuplesURL + "/" + strconv.Itoa(mut.TupleIDs[0])
	if resp, _ := send(http.MethodDelete, delURL, "k2", ""); resp.StatusCode != 200 {
		t.Fatalf("keyed delete: status %d", resp.StatusCode)
	}
	resp, _ := send(http.MethodDelete, delURL, "k2", "")
	if resp.StatusCode != 200 || resp.Header.Get(replayHeader) != "true" {
		t.Fatalf("replayed delete: status %d, replay header %q", resp.StatusCode, resp.Header.Get(replayHeader))
	}
	// An unkeyed retry of the same delete is the counterfactual: it
	// really is gone.
	if resp, _ := send(http.MethodDelete, delURL, "", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unkeyed re-delete: status %d, want 404", resp.StatusCode)
	}
}
