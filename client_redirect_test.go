package querycause_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	qc "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/cluster"
	"github.com/querycause/querycause/internal/imdb"
	"github.com/querycause/querycause/internal/server"
)

// finalRecorder is a terminal "owner node" double: it records what
// actually arrived after any redirects and answers an empty 200.
type finalRecorder struct {
	hits        atomic.Int32
	method      atomic.Value // string
	body        atomic.Value // string
	contentType atomic.Value // string
}

func (f *finalRecorder) server(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		raw, _ := io.ReadAll(r.Body)
		f.method.Store(r.Method)
		f.body.Store(string(raw))
		f.contentType.Store(r.Header.Get("Content-Type"))
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{}`))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// relay 307-redirects everything to *target (assigned after creation,
// so relays can form chains and loops), preserving the request path.
func relay(t *testing.T, target *string, hits *atomic.Int32) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		http.Redirect(w, r, *target+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestClientRedirectPolicy pins the cluster redirect contract: a 307
// from a wrong node is followed, re-sending the POST body verbatim (a
// redirect is a re-route, not a retry), under a bounded hop budget
// that absorbs ownership moving mid-flight during a topology change;
// exhausting the budget — a chain deeper than any converging topology
// produces, or a loop between two nodes that disagree — is an error
// instead of an endless chase.
func TestClientRedirectPolicy(t *testing.T) {
	cases := []struct {
		name string
		// hops is the number of consecutive 307 relays in front of the
		// owner; -1 wires two relays at each other (ownership loop).
		hops      int
		wantErr   string // substring of the returned error, "" = success
		wantFinal int32  // requests that must reach the owner
	}{
		{name: "direct", hops: 0, wantFinal: 1},
		{name: "one hop follows with body", hops: 1, wantFinal: 1},
		{name: "wrong owner after topology change", hops: 2, wantFinal: 1},
		{name: "chain deeper than the hop budget", hops: 5, wantErr: "redirect loop", wantFinal: 0},
		{name: "ownership loop", hops: -1, wantErr: "redirect loop", wantFinal: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			final := &finalRecorder{}
			owner := final.server(t)
			entry := owner.URL
			var relayHits []*atomic.Int32
			if tc.hops == -1 {
				var aURL, bURL string
				ha, hb := &atomic.Int32{}, &atomic.Int32{}
				a, b := relay(t, &bURL, ha), relay(t, &aURL, hb)
				aURL, bURL = a.URL, b.URL
				entry = a.URL
				relayHits = []*atomic.Int32{ha, hb}
			} else {
				next := owner.URL
				for i := 0; i < tc.hops; i++ {
					target := next // each relay captures its own target
					h := &atomic.Int32{}
					entry = relay(t, &target, h).URL
					next = entry
					relayHits = append(relayHits, h)
				}
			}

			c := qc.NewClient(entry, nil)
			_, err := c.WhySo(context.Background(), "d1", "", qc.ExplainRequest{
				Query:  "q(x) :- R(x,y), S(y)",
				Answer: []string{"a4"},
			})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("WhySo: %v", err)
				}
				if got := final.method.Load(); got != http.MethodPost {
					t.Fatalf("owner saw method %v, want POST preserved across redirect", got)
				}
				body, _ := final.body.Load().(string)
				if !strings.Contains(body, `"q(x) :- R(x,y), S(y)"`) || !strings.Contains(body, `"a4"`) {
					t.Fatalf("owner saw body %q, want the original request re-sent intact", body)
				}
				if got := final.contentType.Load(); got != "application/json" {
					t.Fatalf("owner saw Content-Type %v", got)
				}
			} else {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
			}
			if got := final.hits.Load(); got != tc.wantFinal {
				t.Fatalf("owner got %d requests, want %d", got, tc.wantFinal)
			}
			// The hop budget bounds every chase: no relay is visited more
			// than ceil((maxRedirectHops+1)/2) times even in a two-node
			// loop, and the unkeyed POST is never retried on top.
			for i, h := range relayHits {
				if got := h.Load(); got > 3 {
					t.Fatalf("relay %d got %d requests, want at most 3 (bounded by the hop budget)", i, got)
				}
			}
		})
	}
}

// TestClientGETFollowsRedirect: bodiless GETs keep net/http's normal
// transparent redirect handling.
func TestClientGETFollowsRedirect(t *testing.T) {
	final := &finalRecorder{}
	owner := final.server(t)
	target := owner.URL
	entry := relay(t, &target, &atomic.Int32{})
	c := qc.NewClient(entry.URL, nil)
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("Stats through redirect: %v", err)
	}
	if got := final.hits.Load(); got != 1 {
		t.Fatalf("owner got %d requests, want 1", got)
	}
}

// TestDialRoutesToOwner: against a real 3-node cluster, Dial learns
// the topology and pins the session to the owning node, so the whole
// session runs with zero redirects and zero proxied requests — and the
// ranking still matches the in-process engine.
func TestDialRoutesToOwner(t *testing.T) {
	ctx := context.Background()
	n := 3
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
	for i := range lns {
		srv := server.New(server.Config{ReapInterval: -1, Self: urls[i], Peers: urls})
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(lns[i])
		t.Cleanup(func() {
			hs.Close()
			srv.Close()
		})
	}

	db, _ := imdb.Micro()
	sess, err := qc.Dial(ctx, urls[0], db)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer sess.Close()
	q := imdb.GenreQuery()
	r, err := sess.WhySo(ctx, q, "Musical")
	if err != nil {
		t.Fatalf("WhySo: %v", err)
	}
	got, err := r.Rank(ctx)
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	wantEx := localRank(t, db, q, "Musical")
	if len(got) != len(wantEx) {
		t.Fatalf("remote ranking has %d causes, local %d", len(got), len(wantEx))
	}
	for i := range got {
		if got[i].Tuple != wantEx[i].Tuple || got[i].Rho != wantEx[i].Rho {
			t.Fatalf("cause %d differs: remote %+v local %+v", i, got[i], wantEx[i])
		}
	}
	for _, u := range urls {
		st, err := qc.NewClient(u, nil).Stats(ctx)
		if err != nil {
			t.Fatalf("stats %s: %v", u, err)
		}
		if st.ClusterRedirected != 0 || st.ClusterProxied != 0 {
			t.Fatalf("node %s redirected=%d proxied=%d, want 0/0 (Dial should route client-side)", u, st.ClusterRedirected, st.ClusterProxied)
		}
	}
}

// TestClientRedirectLoopRefreshesTopology: two nodes serving a stale
// ring bounce a request between each other. After its hop budget the
// client refreshes GET /v1/cluster once, from the members it knows
// outside the loop, and retries at the owner the newest ring names —
// for plain requests and for streams alike. When the refreshed ring
// still routes into the loop, the request fails as before, after
// exactly one refresh.
func TestClientRedirectLoopRefreshesTopology(t *testing.T) {
	for _, tc := range []struct {
		name       string
		ownerFresh bool // the owner's ring includes itself
		stream     bool
	}{
		{name: "refresh routes to owner", ownerFresh: true},
		{name: "refresh routes stream to owner", ownerFresh: true, stream: true},
		{name: "refreshed ring still loops", ownerFresh: false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s1URL, s2URL, ownerURL string
			var sessionHits, clusterHits, staleHits atomic.Int32
			stale := func(next *string) *httptest.Server {
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					staleHits.Add(1)
					if r.URL.Path == "/v1/cluster" {
						json.NewEncoder(w).Encode(qc.ClusterInfo{Peers: []string{s1URL, s2URL}, Epoch: 1})
						return
					}
					io.Copy(io.Discard, r.Body)
					w.Header().Set(server.EpochHeader, "1")
					http.Redirect(w, r, *next+r.URL.RequestURI(), http.StatusTemporaryRedirect)
				}))
				t.Cleanup(ts.Close)
				return ts
			}
			s1, s2 := stale(&s2URL), stale(&s1URL)
			s1URL, s2URL = s1.URL, s2.URL
			owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.URL.Path == "/v1/cluster":
					clusterHits.Add(1)
					peers := []string{s1URL, s2URL}
					if tc.ownerFresh {
						peers = append(peers, ownerURL)
					}
					json.NewEncoder(w).Encode(qc.ClusterInfo{Peers: peers, Epoch: 2})
				case strings.HasSuffix(r.URL.Path, "/explain/stream"):
					sessionHits.Add(1)
					w.Write([]byte(`{"done":{"causes":0}}` + "\n"))
				default:
					sessionHits.Add(1)
					w.Write([]byte(`{}`))
				}
			}))
			t.Cleanup(owner.Close)
			ownerURL = owner.URL

			// A session id the refreshed ring assigns to the owner (or, for
			// the still-looping ring, to a stale node).
			ring := cluster.New([]string{s1URL, s2URL, ownerURL})
			id := ""
			for i := 1; id == ""; i++ {
				if cand := fmt.Sprintf("d%d", i); ring.Owner(cand) == ownerURL {
					id = cand
				}
			}

			c := qc.NewClient(s1URL, nil).SetFallbacks([]string{s1URL, s2URL, ownerURL})
			ctx := context.Background()
			var err error
			if tc.stream {
				for _, serr := range c.ExplainStream(ctx, id, qc.StreamExplainRequest{Query: "q :- R(x)"}) {
					err = serr
				}
			} else {
				_, err = c.WhySo(ctx, id, "", qc.ExplainRequest{Query: "q :- R(x)"})
			}
			if got := clusterHits.Load(); got != 1 {
				t.Fatalf("owner served /v1/cluster %d times, want exactly one refresh", got)
			}
			if got := staleHits.Load(); got > 2*(4+1) {
				t.Fatalf("stale nodes got %d requests, want at most two hop budgets", got)
			}
			if !tc.ownerFresh {
				if err == nil || !strings.Contains(err.Error(), "topology still converging") {
					t.Fatalf("err = %v, want the redirect loop to fail after the refresh", err)
				}
				if got := sessionHits.Load(); got != 0 {
					t.Fatalf("owner got %d session requests, want 0", got)
				}
				return
			}
			if err != nil {
				t.Fatalf("request after refresh: %v", err)
			}
			if got := sessionHits.Load(); got != 1 {
				t.Fatalf("owner got %d session requests, want 1", got)
			}
			if got := c.Base(); got != ownerURL {
				t.Fatalf("client pinned to %s after the refresh, want the owner %s", got, ownerURL)
			}
		})
	}
}
