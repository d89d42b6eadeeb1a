// Cluster routing: when a server is configured with Self + Peers, the
// replicas form a consistent-hash ring over session IDs
// (internal/cluster). Session IDs are minted to hash onto the node
// that created them, so the common path — a client that uploaded to
// some node and keeps talking to it — never leaves the owner. Requests
// that do arrive at the wrong node are either 307-redirected to the
// owner (default; the redirect is cheap and the client follows it once
// and repins) or reverse-proxied on the client's behalf (ClusterProxy,
// for clients that cannot follow redirects).
//
// Membership is dynamic: the ring is a cluster.Versioned whose
// topology carries an epoch. Admin endpoints (membership.go) join and
// remove nodes at runtime, propagate the new topology to every peer,
// and trigger session handoff; GET /v1/cluster and every redirect
// carry the epoch so clients detect staleness.
package server

import (
	"fmt"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/querycause/querycause/internal/cluster"
	"github.com/querycause/querycause/internal/qerr"
)

// EpochHeader carries the sender's topology epoch on redirects and
// cluster responses, so a client holding a stale topology learns it is
// stale from the very response that reroutes it.
const EpochHeader = "X-Cluster-Epoch"

// clusterState is the routing half of a clustered server.
type clusterState struct {
	self  string
	ring  *cluster.Versioned
	proxy bool
	// peers is the HTTP client used for node-to-node calls: topology
	// propagation and session handoff. Short timeout — peers are LAN
	// neighbors, and a dead one must not stall an admin request.
	peers *http.Client

	mu      sync.Mutex
	proxies map[string]*httputil.ReverseProxy
}

// SessionPathID extracts the session id from a /v1/databases/{id}[/…]
// path, reporting false for paths that are not session-addressed
// (upload, list, stats, health — those are answered locally by any
// node).
func SessionPathID(path string) (string, bool) {
	rest, ok := strings.CutPrefix(path, "/v1/databases/")
	if !ok || rest == "" {
		return "", false
	}
	id, _, _ := strings.Cut(rest, "/")
	return id, id != ""
}

// clusterHandler wraps the mux with ownership routing. Non-clustered
// servers never reach it (Handler returns the mux directly).
func (s *Server) clusterHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := SessionPathID(r.URL.Path)
		if !ok {
			s.mux.ServeHTTP(w, r)
			return
		}
		owner := s.cluster.ring.Owner(id)
		if owner == "" || owner == s.cluster.self {
			s.mux.ServeHTTP(w, r)
			return
		}
		if s.cluster.proxy {
			s.clusterProxied.Add(1)
			s.cluster.proxyFor(owner).ServeHTTP(w, r)
			return
		}
		s.clusterRedirected.Add(1)
		w.Header().Set("Location", owner+r.URL.RequestURI())
		w.Header().Set(EpochHeader, strconv.FormatUint(s.cluster.ring.Epoch(), 10))
		w.WriteHeader(http.StatusTemporaryRedirect)
	})
}

// proxyFor returns the reverse proxy for a peer, building and caching
// it on first use. Proxies are built lazily because membership changes
// at runtime; a stale entry for a removed node is harmless (it is
// simply never selected once the ring drops the node).
func (cs *clusterState) proxyFor(node string) *httputil.ReverseProxy {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if p, ok := cs.proxies[node]; ok {
		return p
	}
	target, err := url.Parse(node)
	if err != nil || target.Scheme == "" || target.Host == "" {
		// Membership is validated on the way in (newClusterState and the
		// join endpoint), so this is unreachable; fail loudly if not.
		panic(fmt.Sprintf("server: invalid peer URL %q in ring", node))
	}
	p := httputil.NewSingleHostReverseProxy(target)
	// Streaming responses (explain/stream, watch) must flush through
	// the proxy frame by frame, not on a 100ms timer: a watch frame
	// held in the proxy buffer would stall the subscriber until the
	// next mutation.
	p.FlushInterval = -1
	p.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		writeJSON(w, http.StatusBadGateway, ErrorResponse{Error: fmt.Sprintf("proxying to session owner %s: %v", target, err)})
	}
	cs.proxies[node] = p
	return p
}

// newClusterState validates the cluster config and builds the routing
// state. Self is implicitly a member even if absent from Peers.
func newClusterState(cfg Config, ring *cluster.Versioned) (*clusterState, error) {
	for _, node := range ring.Nodes() {
		target, err := url.Parse(node)
		if err != nil || target.Scheme == "" || target.Host == "" {
			return nil, fmt.Errorf("server: invalid peer URL %q", node)
		}
	}
	return &clusterState{
		self:    cfg.Self,
		ring:    ring,
		proxy:   cfg.ClusterProxy,
		peers:   &http.Client{Timeout: 5 * time.Second},
		proxies: make(map[string]*httputil.ReverseProxy),
	}, nil
}

// handleCluster serves GET /v1/cluster: the topology clients use for
// client-side routing. Non-clustered servers answer with empty Peers.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	resp := ClusterResponse{}
	if s.cluster != nil {
		topo := s.cluster.ring.Current()
		resp.Self = s.cluster.self
		resp.Peers = topo.Nodes
		resp.Proxy = s.cluster.proxy
		resp.Epoch = topo.Epoch
		w.Header().Set(EpochHeader, strconv.FormatUint(topo.Epoch, 10))
	}
	writeJSON(w, http.StatusOK, resp)
}

// admitSession resolves the session of a session-addressed request,
// tracks the request inside it, and applies the per-session fairness
// budget; on failure the error is already written. The in-flight count is
// maintained even with the budget disabled — the eviction paths
// (MaxSessions LRU, idle reaper) consult it so a session is never torn
// down with a request still inside a handler. With SessionBudget > 0 a
// session may additionally have at most that many requests in flight
// (queued for the global worker budget or computing); requests over
// the cap are shed immediately — no queueing — with
// qerr.ErrBudgetExceeded, so one hot session cannot occupy every
// admission slot and starve the rest.
func (s *Server) admitSession(w http.ResponseWriter, r *http.Request) (sess *session, release func(), ok bool) {
	if sess, ok = s.sessionOf(w, r); !ok {
		return nil, nil, false
	}
	n := sess.inflight.Add(1)
	if b := s.cfg.SessionBudget; b > 0 && n > int64(b) {
		sess.inflight.Add(-1)
		s.sessionSheds.Add(1)
		writeErr(w, errSessionBudget(sess, b))
		return nil, nil, false
	}
	return sess, func() { sess.inflight.Add(-1) }, true
}

func errSessionBudget(sess *session, budget int) error {
	return qerr.Tag(qerr.ErrBudgetExceeded, fmt.Errorf("session %s over its fairness budget (%d concurrent explains)", sess.id, budget))
}
