package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/querycause/querycause/internal/cluster"
)

// startCluster boots n replicas on real loopback listeners sharing one
// static peer list, the way -peers wires them in production. mutate
// lets a test adjust each node's config before boot.
func startCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) (urls []string, srvs []*Server) {
	t.Helper()
	lns := make([]net.Listener, n)
	urls = make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	srvs = make([]*Server, n)
	for i := range srvs {
		cfg := Config{ReapInterval: -1, Self: urls[i], Peers: urls}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv := New(cfg)
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(lns[i])
		t.Cleanup(func() {
			hs.Close()
			srv.Close()
		})
		srvs[i] = srv
	}
	return urls, srvs
}

// TestClusterMintsSelfOwnedIDs: every session id minted by a node must
// hash onto that node, so the uploading client never gets redirected
// on follow-up requests.
func TestClusterMintsSelfOwnedIDs(t *testing.T) {
	urls, _ := startCluster(t, 3, nil)
	ring := cluster.New(urls)
	for _, url := range urls {
		for i := 0; i < 5; i++ {
			var info DatabaseInfo
			if code := call(t, http.MethodPost, url+"/v1/databases",
				CreateDatabaseRequest{Database: chainDBText}, &info); code != 201 {
				t.Fatalf("upload to %s: status %d", url, code)
			}
			if owner := ring.Owner(info.ID); owner != url {
				t.Fatalf("node %s minted id %q owned by %s", url, info.ID, owner)
			}
		}
	}
}

func TestClusterTopologyEndpoint(t *testing.T) {
	urls, _ := startCluster(t, 3, nil)
	var resp ClusterResponse
	if code := call(t, http.MethodGet, urls[1]+"/v1/cluster", nil, &resp); code != 200 {
		t.Fatalf("cluster endpoint: status %d", code)
	}
	if resp.Self != urls[1] {
		t.Fatalf("Self = %q, want %q", resp.Self, urls[1])
	}
	if len(resp.Peers) != 3 {
		t.Fatalf("Peers = %v, want all 3 nodes", resp.Peers)
	}
	// A non-clustered server answers with an empty topology.
	_, ts := newTest(t, Config{})
	var solo ClusterResponse
	if code := call(t, http.MethodGet, ts.URL+"/v1/cluster", nil, &solo); code != 200 {
		t.Fatalf("solo cluster endpoint: status %d", code)
	}
	if solo.Self != "" || len(solo.Peers) != 0 {
		t.Fatalf("solo topology = %+v, want empty", solo)
	}
}

// wrongNodeFor returns the URL of a replica that does NOT own id.
func wrongNodeFor(t *testing.T, urls []string, id string) string {
	t.Helper()
	ring := cluster.New(urls)
	owner := ring.Owner(id)
	for _, url := range urls {
		if url != owner {
			return url
		}
	}
	t.Fatalf("no non-owner node for %s among %v", id, urls)
	return ""
}

// TestClusterRedirect: a request for a session at the wrong node gets
// a 307 pointing at the owner, with the path and query preserved; a
// redirect-following client (http.NewRequest sets GetBody for byte
// readers, so net/http re-sends the body on 307) completes
// transparently and gets the owner's answer. Mutations ride it too: an
// insert through one non-owner and a delete, of the id that insert
// minted, through the other both apply at the owner, and explains
// through either non-owner then agree on the mutated ranking.
func TestClusterRedirect(t *testing.T) {
	urls, srvs := startCluster(t, 3, nil)
	var info DatabaseInfo
	if code := call(t, http.MethodPost, urls[0]+"/v1/databases",
		CreateDatabaseRequest{Database: chainDBText}, &info); code != 201 {
		t.Fatalf("upload: status %d", code)
	}
	// Minting makes the uploading node the owner: nodes 1 and 2 are wrong.
	if owner := cluster.New(urls).Owner(info.ID); owner != urls[0] {
		t.Fatalf("session %s owned by %s, want its minting node %s", info.ID, owner, urls[0])
	}
	base := "/v1/databases/" + info.ID
	explain := ExplainRequest{Query: "q(x) :- R(x,y), S(y)", Answer: []string{"a4"}}

	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	var explained ExplainResponse
	var inserted, deleted MutateResponse
	inputs := []struct {
		method, path string
		entry        int
		body, out    any
	}{
		{http.MethodPost, base + "/whyso", 1, explain, &explained},
		// R(a4,a2) gives a4 a second valuation; S(a9) joins nothing.
		{http.MethodPost, base + "/tuples", 1, InsertTuplesRequest{Tuples: []TupleSpec{
			{Rel: "R", Args: []string{"a4", "a2"}, Endo: true},
			{Rel: "S", Args: []string{"a9"}, Endo: true},
		}}, &inserted},
		{http.MethodDelete, base + "/tuples/5", 2, nil, &deleted},
	}
	for _, in := range inputs {
		before := srvs[in.entry].clusterRedirected.Load()

		// Raw look at the redirect itself: nothing is applied yet.
		var body io.Reader
		if in.body != nil {
			raw, _ := json.Marshal(in.body)
			body = bytes.NewReader(raw)
		}
		req, _ := http.NewRequest(in.method, urls[in.entry]+in.path, body)
		req.Header.Set("Content-Type", "application/json")
		resp, err := noFollow.Do(req)
		if err != nil {
			t.Fatalf("%s %s via wrong node: %v", in.method, in.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTemporaryRedirect {
			t.Fatalf("%s %s: wrong node answered %d, want 307", in.method, in.path, resp.StatusCode)
		}
		if loc := resp.Header.Get("Location"); loc != urls[0]+in.path {
			t.Fatalf("%s %s: redirect Location = %q, want owner %s + original path", in.method, in.path, loc, urls[0])
		}

		if code := call(t, in.method, urls[in.entry]+in.path, in.body, in.out); code != 200 {
			t.Fatalf("redirected %s %s: status %d", in.method, in.path, code)
		}
		if got := srvs[in.entry].clusterRedirected.Load() - before; got != 2 {
			t.Fatalf("%s %s: entry node's redirect counter rose by %d, want 2", in.method, in.path, got)
		}
	}
	if len(explained.Explanations) == 0 {
		t.Fatalf("redirected whyso returned no explanations")
	}
	if !slices.Equal(inserted.TupleIDs, []int{4, 5}) || inserted.Tuples != 6 || inserted.Version != 6 {
		t.Fatalf("insert via node 1 = %+v, want tuple_ids [4 5], tuples 6, version 6", inserted)
	}
	if deleted.Tuples != 5 || deleted.Version != 7 {
		t.Fatalf("delete via node 2 = %+v, want tuples 5, version 7", deleted)
	}

	// The owner applied both mutations; explains through either wrong
	// node see them, byte for byte alike.
	var st StatsResponse
	if code := call(t, http.MethodGet, urls[0]+"/v1/stats", nil, &st); code != 200 {
		t.Fatalf("owner stats: status %d", code)
	}
	if st.MutationsTotal < 2 {
		t.Fatalf("owner mutations_total = %d, want >= 2", st.MutationsTotal)
	}
	var ranked [2][]byte
	for i, entry := range urls[1:] {
		var out ExplainResponse
		if code := call(t, http.MethodPost, entry+base+"/whyso", explain, &out); code != 200 {
			t.Fatalf("post-mutation whyso via %s: status %d", entry, code)
		}
		if len(out.Explanations) != 4 {
			t.Fatalf("post-mutation whyso via %s: %d causes, want 4 (two valuations of a4)", entry, len(out.Explanations))
		}
		ranked[i], _ = json.Marshal(struct {
			E []ExplanationDTO
			T map[int]string
		}{out.Explanations, out.Tuples})
	}
	if !bytes.Equal(ranked[0], ranked[1]) {
		t.Fatalf("post-mutation rankings differ by entry node:\n%s\n%s", ranked[0], ranked[1])
	}

	// The owner never redirects for its own session.
	if code := call(t, http.MethodPost, urls[0]+base+"/whyso", explain, nil); code != 200 {
		t.Fatalf("owner whyso: status %d", code)
	}
	if got := srvs[0].clusterRedirected.Load(); got != 0 {
		t.Fatalf("owner redirected %d requests for its own session", got)
	}
}

// TestClusterProxy: in proxy mode the wrong node answers directly on
// the owner's behalf — same bytes, no redirect for the client to
// follow.
func TestClusterProxy(t *testing.T) {
	urls, srvs := startCluster(t, 3, func(_ int, cfg *Config) { cfg.ClusterProxy = true })
	var info DatabaseInfo
	if code := call(t, http.MethodPost, urls[0]+"/v1/databases",
		CreateDatabaseRequest{Database: chainDBText}, &info); code != 201 {
		t.Fatalf("upload: status %d", code)
	}
	wrong := wrongNodeFor(t, urls, info.ID)
	wrongIdx := 0
	for i, url := range urls {
		if url == wrong {
			wrongIdx = i
		}
	}

	exReq := ExplainRequest{Query: "q(x) :- R(x,y), S(y)", Answer: []string{"a4"}}
	var direct, proxied ExplainResponse
	if code := call(t, http.MethodPost, urls[0]+"/v1/databases/"+info.ID+"/whyso", exReq, &direct); code != 200 {
		t.Fatalf("direct whyso: status %d", code)
	}
	if code := call(t, http.MethodPost, wrong+"/v1/databases/"+info.ID+"/whyso", exReq, &proxied); code != 200 {
		t.Fatalf("proxied whyso: status %d", code)
	}
	dj, _ := json.Marshal(direct.Explanations)
	pj, _ := json.Marshal(proxied.Explanations)
	if string(dj) != string(pj) {
		t.Fatalf("proxied ranking differs from direct:\n%s\n%s", dj, pj)
	}
	if got := srvs[wrongIdx].clusterProxied.Load(); got == 0 {
		t.Fatalf("proxy counter stayed zero")
	}
	if got := srvs[wrongIdx].clusterRedirected.Load(); got != 0 {
		t.Fatalf("proxy mode issued %d redirects", got)
	}
}

// TestSessionBudgetShed: with a per-session budget of 1, a second
// concurrent explain against the same session is shed immediately with
// the budget_exceeded taxonomy code while the global worker budget
// still has room, and the shed counter records it.
func TestSessionBudgetShed(t *testing.T) {
	holding := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	_, ts := newTest(t, Config{
		WorkerBudget:   8,
		SessionBudget:  1,
		RequestTimeout: time.Minute,
		testHookAdmitted: func() {
			once.Do(func() {
				close(holding)
				<-gate
			})
		},
	})
	info := upload(t, ts, chainDBText)
	exReq := ExplainRequest{Query: "q(x) :- R(x,y), S(y)", Answer: []string{"a4"}}

	first := make(chan int, 1)
	go func() {
		first <- call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/whyso", exReq, nil)
	}()
	<-holding // the first explain is inside the handler, holding the session slot

	var errResp ErrorResponse
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/whyso",
		strings.NewReader(`{"query": "q(x) :- R(x,y), S(y)", "answer": ["a4"]}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("shed request: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-budget explain: status %d, want 503", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&errResp); err != nil {
		t.Fatalf("decoding shed error: %v", err)
	}
	resp.Body.Close()
	if errResp.Code != "budget_exceeded" {
		t.Fatalf("shed error code = %q, want budget_exceeded", errResp.Code)
	}
	if !strings.Contains(errResp.Error, "fairness budget") {
		t.Fatalf("shed error message = %q", errResp.Error)
	}

	close(gate)
	if code := <-first; code != 200 {
		t.Fatalf("held explain: status %d", code)
	}
	st := stats(t, ts)
	if st.SessionSheds != 1 {
		t.Fatalf("SessionSheds = %d, want 1", st.SessionSheds)
	}
	if st.SessionBudget != 1 {
		t.Fatalf("SessionBudget = %d, want 1", st.SessionBudget)
	}
	// The budget frees with the request: the same session explains fine
	// now.
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/whyso", exReq, nil); code != 200 {
		t.Fatalf("post-shed explain: status %d", code)
	}
}

// TestClusterStatsCounters: clustered stats expose node identity and
// ring size.
func TestClusterStatsCounters(t *testing.T) {
	urls, _ := startCluster(t, 3, nil)
	var st StatsResponse
	if code := call(t, http.MethodGet, urls[2]+"/v1/stats", nil, &st); code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	if st.Node != urls[2] || st.ClusterPeers != 3 {
		t.Fatalf("cluster stats = node %q peers %d, want %q / 3", st.Node, st.ClusterPeers, urls[2])
	}
}
