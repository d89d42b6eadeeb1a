// Package server implements querycaused, the long-running causality
// explanation service over the engine of Meliou et al. (VLDB 2010).
//
// The paper's central observation for a serving system is that the
// expensive artifacts are query-level, not request-level: the dichotomy
// certificate (Corollary 4.14), the rewritten Datalog¬ cause program
// (Theorem 3.4), and each answer's DNF lineage (Theorem 3.2) are all
// reusable across requests. The server therefore keeps a session
// registry of uploaded databases, prepared queries classified once, and
// LRU caches of certificates and per-answer engines, so a warm explain
// skips straight to responsibility ranking.
//
// API (JSON over HTTP):
//
//	POST   /v1/databases                      upload a database, get a session id
//	GET    /v1/databases                      list sessions
//	DELETE /v1/databases/{db}                 drop a session
//	POST   /v1/databases/{db}/queries         prepare (parse + classify + rewrite) a query
//	POST   /v1/databases/{db}/queries/{q}/whyso   explain an answer
//	POST   /v1/databases/{db}/queries/{q}/whyno   explain a non-answer
//	POST   /v1/databases/{db}/whyso           one-shot explain with an inline query
//	POST   /v1/databases/{db}/whyno
//	POST   /v1/databases/{db}/batch           many explains in one call (ExplainAll fan-out)
//	POST   /v1/databases/{db}/causes          actual causes only (no ranking); warms the engine cache
//	POST   /v1/databases/{db}/explain/stream  streamed ranking (NDJSON, one explanation per line)
//	POST   /v1/databases/{db}/watch           live explanation (NDJSON DiffEvent frames per mutation)
//	POST   /v1/databases/{db}/tuples          insert tuples (delta-maintains cached state, fans out watch frames)
//	DELETE /v1/databases/{db}/tuples/{id}     delete one tuple
//	GET    /v1/stats                          cache hit rates, in-flight gauge, session counts
//	GET    /v1/cluster                        membership + topology epoch
//	POST   /v1/cluster/nodes                  join a node to the ring (propagates + rebalances)
//	DELETE /v1/cluster/nodes?url=…            remove a node from the ring
//	GET    /healthz
//
// The explain-family routes (whyso and whyno, batch, causes,
// explain/stream) share one request path and so one admission order:
// the session's fairness budget, the database read lock, the body
// decode, query resolution, then the server-wide worker budget. Watch
// keeps its own order, since a subscription outlives its request.
//
// Errors carry a machine-readable taxonomy code (internal/qerr) in
// ErrorResponse.Code alongside the human-readable message; the Go
// client at the module root rehydrates codes into sentinel errors so
// errors.Is works identically against a remote server and the
// in-process library.
//
// Explain endpoints run under a server-wide worker budget (admission
// control): at most WorkerBudget requests compute concurrently, the
// rest queue until their request context — bounded by RequestTimeout —
// expires. Malformed inputs (bad tuples, bad query syntax, invalid
// why-no instances) are 4xx; only engine invariant violations are 5xx.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/querycause/querycause/internal/causegen"
	"github.com/querycause/querycause/internal/cluster"
	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/parser"
	"github.com/querycause/querycause/internal/persist"
	"github.com/querycause/querycause/internal/qerr"
	"github.com/querycause/querycause/internal/rel"
)

// Config tunes the server. The zero value gets sensible defaults from
// New.
type Config struct {
	// MaxSessions bounds the session registry; adding beyond it evicts
	// the least-recently-used session. Default 64.
	MaxSessions int
	// SessionTTL is the idle lifetime of a session; the background
	// reaper evicts sessions idle longer. Default 30m.
	SessionTTL time.Duration
	// ReapInterval is how often the reaper sweeps. Default SessionTTL/4
	// (capped at 1m); <0 disables the reaper (tests drive EvictIdle
	// directly).
	ReapInterval time.Duration
	// PreparedCacheSize, CertCacheSize, and EngineCacheSize bound the
	// per-session LRUs (prepared queries, certificate pairs, per-answer
	// engines). Defaults 256, 256, and 1024.
	PreparedCacheSize int
	CertCacheSize     int
	EngineCacheSize   int
	// WorkerBudget is the admission limit: how many explain/batch
	// requests may compute concurrently. Excess requests queue until
	// admitted or their context expires (503). Default
	// 2*GOMAXPROCS, minimum 2.
	WorkerBudget int
	// Parallelism is the ranking worker count per admitted request
	// (core.ResolveWorkers semantics; default 1, i.e. the worker budget
	// is the only source of concurrency).
	Parallelism int
	// RequestTimeout bounds each explain/batch request, queueing
	// included. Default 30s.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies; a longer one is answered 413.
	// Default 32 MiB.
	MaxBodyBytes int64
	// Clock overrides time.Now, for eviction tests.
	Clock func() time.Time

	// Self and Peers turn on cluster mode: Self is this node's
	// advertised base URL (e.g. "http://10.0.0.5:8347") and Peers the
	// initial membership (Self included; it is added if missing).
	// Membership is dynamic after boot: POST/DELETE /v1/cluster/nodes
	// mint a new topology epoch, propagate it, and hand sessions to
	// their new owners (membership.go). The replicas form a
	// consistent-hash ring over session IDs (internal/cluster); session
	// IDs are minted to hash onto the creating node, and requests
	// arriving at a non-owner are 307-redirected to the owner (or
	// reverse-proxied, see ClusterProxy). Both empty (the default)
	// means not clustered.
	Self  string
	Peers []string
	// ClusterProxy makes non-owner nodes reverse-proxy requests to the
	// session owner instead of 307-redirecting the client.
	ClusterProxy bool
	// SessionBudget is the per-session fairness cap: at most this many
	// explains in flight (queued or computing) per session, requests
	// over it shed immediately with ErrBudgetExceeded (503). It rides
	// on top of the global WorkerBudget so one hot session cannot
	// starve the rest. 0 (default) = unlimited.
	SessionBudget int

	// WatchBudget caps the concurrent watch subscriptions per session;
	// subscriptions over it are shed with ErrBudgetExceeded (503).
	// Watches are long-lived, so they are budgeted separately from the
	// explain fairness cap. 0 (default) = unlimited.
	WatchBudget int
	// DisableDelta turns off the delta-maintenance layer: every stale
	// engine is dropped cold on mutation instead of patched in place.
	// Results are identical either way (the experiment harness compares
	// the two paths); this is the escape hatch and the baseline arm.
	DisableDelta bool

	// Persist, when non-nil, enables session durability: snapshots are
	// written behind state-changing requests and loaded on start (and
	// lazily on a registry miss), so restarts serve warm explains.
	Persist *persist.Store
	// PersistInterval is the write-behind flush cadence. Default 2s;
	// negative disables background flushing (Flush and drain still
	// write synchronously).
	PersistInterval time.Duration

	// testHookAdmitted, when non-nil, runs in every explain/batch
	// handler right after the request clears worker-budget admission
	// (slot held, in-flight gauge already bumped). Tests use it as a
	// barrier to hold requests/slots deterministically.
	testHookAdmitted func()
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 30 * time.Minute
	}
	if c.ReapInterval == 0 {
		c.ReapInterval = c.SessionTTL / 4
		if c.ReapInterval > time.Minute {
			c.ReapInterval = time.Minute
		}
	}
	if c.PreparedCacheSize <= 0 {
		c.PreparedCacheSize = 256
	}
	if c.CertCacheSize <= 0 {
		c.CertCacheSize = 256
	}
	if c.EngineCacheSize <= 0 {
		c.EngineCacheSize = 1024
	}
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = 2 * runtime.GOMAXPROCS(0)
		if c.WorkerBudget < 2 {
			c.WorkerBudget = 2
		}
	}
	if c.Parallelism == 0 {
		c.Parallelism = 1
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Server is the querycaused HTTP service. Create with New, expose with
// Handler, stop the background reaper with Close.
type Server struct {
	cfg   Config
	reg   *registry
	mux   *http.ServeMux
	start time.Time

	sem chan struct{} // worker-budget admission

	inflight     atomic.Int64
	peakInflight atomic.Int64
	requests     atomic.Uint64
	explains     atomic.Uint64
	rejects      atomic.Uint64

	// Mutation counters: requests served by the tuple-mutation
	// endpoints, and the explanation state they incrementally
	// invalidated (see mutate.go). enginesPatched counts engines the
	// delta layer revived in place, deltaFallbacks the stale engines it
	// declined (dropped cold).
	mutations           atomic.Uint64
	engineInvalidations atomic.Uint64
	certInvalidations   atomic.Uint64
	enginesPatched      atomic.Uint64
	deltaFallbacks      atomic.Uint64

	// Watch counters: gauge of open watch streams and cumulative frames
	// written to them (see watch.go).
	watchesActive  atomic.Int64
	diffEventsSent atomic.Uint64

	// cluster is nil on non-clustered servers; see cluster.go and
	// membership.go. topoChangedAt is the wall clock of the last
	// topology change this node observed (unix nanos); sessionOf uses it
	// to answer 503-retry instead of 404 for sessions that may be mid-
	// handoff. The handoff counters track session transfers (out:
	// shipped to a new owner; in: received; fails: transfer attempts
	// that did not complete — the session stayed on the old owner).
	cluster           *clusterState
	clusterRedirected atomic.Uint64
	clusterProxied    atomic.Uint64
	sessionSheds      atomic.Uint64
	topoChangedAt     atomic.Int64
	handoffsOut       atomic.Uint64
	handoffsIn        atomic.Uint64
	handoffFails      atomic.Uint64

	// store/wb are nil without Config.Persist; see persist.go.
	store    *persist.Store
	wb       *persist.WriteBehind
	restored atomic.Uint64

	// ctx is canceled by Close, which stops the background goroutines
	// (the idle reaper, the boot handoff) bg counts and waits for, and
	// aborts their handoff pushes in flight.
	ctx    context.Context
	cancel context.CancelFunc
	bg     sync.WaitGroup
	closed atomic.Bool
}

// New builds a server and starts its idle-session reaper (unless
// disabled). With Config.Persist set it rehydrates every snapshot on
// disk before returning, so the server is warm the moment it serves;
// with Self+Peers it joins the consistent-hash cluster (initial
// membership; the ring grows and shrinks at runtime via the
// /v1/cluster/nodes admin endpoints). It
// panics on malformed cluster config (an unparsable peer URL) — boot
// validation, not a runtime condition.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		reg:   newRegistry(cfg.MaxSessions, cfg.PreparedCacheSize, cfg.CertCacheSize, cfg.EngineCacheSize, cfg.Clock),
		mux:   http.NewServeMux(),
		start: cfg.Clock(),
		sem:   make(chan struct{}, cfg.WorkerBudget),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.reg.disableDelta = cfg.DisableDelta
	if cfg.Self != "" && len(cfg.Peers) > 0 {
		nodes := append([]string(nil), cfg.Peers...)
		ring := cluster.NewVersioned(append(nodes, cfg.Self)) // ring dedups; Self is always a member
		cs, err := newClusterState(cfg, ring)
		if err != nil {
			panic(err)
		}
		s.cluster = cs
		// Mint session ids that hash onto this node, so the uploading
		// client keeps talking to the owner with no redirects. The
		// closure reads the live ring: after a membership change, new
		// ids hash onto this node under the topology of the moment.
		s.reg.owns = func(id string) bool { return ring.Owner(id) == cfg.Self }
	}
	if cfg.Persist != nil {
		s.store = cfg.Persist
		restored := s.restoreAll()
		s.wb = persist.NewWriteBehind(cfg.Persist, persistInterval(cfg.PersistInterval))
		if s.cluster != nil && restored > 0 {
			s.bg.Add(1)
			go s.handOffRestored()
		}
	}
	s.routes()
	if cfg.ReapInterval > 0 {
		s.bg.Add(1)
		go s.reap()
	}
	return s
}

// Close stops the background goroutines (the idle reaper, a boot
// handoff still retrying) and the write-behind flusher (running one
// final flush). In-flight requests are unaffected; use
// http.Server.Shutdown to drain those.
func (s *Server) Close() {
	if s.closed.CompareAndSwap(false, true) {
		s.cancel()
		s.bg.Wait()
		if s.wb != nil {
			_ = s.wb.Close()
		}
	}
}

// Handler returns the HTTP handler for the full API surface. On a
// clustered server it is wrapped with ownership routing (cluster.go).
func (s *Server) Handler() http.Handler {
	if s.cluster != nil {
		return s.clusterHandler()
	}
	return s.mux
}

// EvictIdle evicts sessions idle longer than the configured TTL and
// returns their ids. The reaper calls this; tests may call it directly.
func (s *Server) EvictIdle() []string { return s.reg.evictIdle(s.cfg.SessionTTL) }

func (s *Server) reap() {
	defer s.bg.Done()
	t := time.NewTicker(s.cfg.ReapInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.reg.evictIdle(s.cfg.SessionTTL)
		case <-s.ctx.Done():
			return
		}
	}
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("POST /v1/cluster/nodes", s.handleClusterJoin)
	s.mux.HandleFunc("DELETE /v1/cluster/nodes", s.handleClusterRemove)
	s.mux.HandleFunc("PUT /v1/cluster/topology", s.handleClusterTopology)
	s.mux.HandleFunc("PUT /v1/cluster/sessions/{db}", s.handleSessionTransfer)
	s.mux.HandleFunc("POST /v1/databases", s.handleCreateDB)
	s.mux.HandleFunc("GET /v1/databases", s.handleListDBs)
	s.mux.HandleFunc("DELETE /v1/databases/{db}", s.handleDeleteDB)
	s.mux.HandleFunc("POST /v1/databases/{db}/queries", s.handlePrepare)
	s.mux.HandleFunc("POST /v1/databases/{db}/queries/{q}/whyso", s.explainHandler(false))
	s.mux.HandleFunc("POST /v1/databases/{db}/queries/{q}/whyno", s.explainHandler(true))
	s.mux.HandleFunc("POST /v1/databases/{db}/whyso", s.explainHandler(false))
	s.mux.HandleFunc("POST /v1/databases/{db}/whyno", s.explainHandler(true))
	s.mux.HandleFunc("POST /v1/databases/{db}/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/databases/{db}/causes", s.handleCauses)
	s.mux.HandleFunc("POST /v1/databases/{db}/explain/stream", s.handleStream)
	s.mux.HandleFunc("POST /v1/databases/{db}/watch", s.handleWatch)
	s.mux.HandleFunc("POST /v1/databases/{db}/tuples", s.handleInsertTuples)
	s.mux.HandleFunc("DELETE /v1/databases/{db}/tuples/{id}", s.handleDeleteTuple)
}

// ---- plumbing ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeErr serializes a taxonomy-aware error: the sentinel's HTTP
// status and wire code when err is tagged (internal/qerr), the
// string-prefix fallback of statusOf otherwise.
func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, statusOf(err), ErrorResponse{Error: err.Error(), Code: qerr.CodeOf(err)})
}

// decodeJSON strictly decodes the request body, read up to maxBytes,
// into v; the caller answers an error with bodyStatus.
func decodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}

// bodyStatus is the status answering a request body that could not be
// read or decoded: 413 when it ran past Config.MaxBodyBytes, 400
// otherwise.
func bodyStatus(err error) int {
	if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// admit applies the worker budget: it blocks until a computation slot
// frees or ctx expires. The returned release must be called when the
// computation finishes; ok=false means the request's context died
// queueing (timeout or client disconnect). A request whose context is
// already dead when a slot frees is rejected rather than computed.
func (s *Server) admit(ctx context.Context) (release func(), ok bool) {
	select {
	case s.sem <- struct{}{}:
		if ctx.Err() != nil {
			<-s.sem
			s.rejects.Add(1)
			return nil, false
		}
		return func() { <-s.sem }, true
	case <-ctx.Done():
		s.rejects.Add(1)
		return nil, false
	}
}

// trackInflight maintains the in-flight gauge and its high-water mark
// for one explain/batch request; call the returned func on completion.
func (s *Server) trackInflight() func() {
	n := s.inflight.Add(1)
	for {
		peak := s.peakInflight.Load()
		if n <= peak || s.peakInflight.CompareAndSwap(peak, n) {
			break
		}
	}
	return func() { s.inflight.Add(-1) }
}

// handoffGrace is how long after a topology change a missing session
// answers 503-with-Retry-After instead of 404: the session may be in
// flight between its old and new owner, and a 404 would make clients
// report a durable failure for a transient condition.
const handoffGrace = 5 * time.Second

func (s *Server) sessionOf(w http.ResponseWriter, r *http.Request) (*session, bool) {
	id := r.PathValue("db")
	sess, ok := s.reg.get(id)
	if !ok {
		// Lazy warm path: an evicted (or freshly-restarted-node) session
		// revives from its on-disk snapshot.
		sess, ok = s.loadSession(id)
	}
	if !ok {
		if s.cluster != nil {
			if at := s.topoChangedAt.Load(); at != 0 && time.Since(time.Unix(0, at)) < handoffGrace {
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable, "session %q may be migrating after a topology change; retry", id)
				return nil, false
			}
		}
		writeErr(w, errSessionNotFound(id))
		return nil, false
	}
	return sess, true
}

func errSessionNotFound(id string) error {
	return qerr.Tag(qerr.ErrSessionNotFound, fmt.Errorf("unknown database session %q", id))
}

func errQueryNotFound(id string) error {
	return qerr.Tag(qerr.ErrQueryNotFound, fmt.Errorf("unknown prepared query %q", id))
}

// errBudget tags an admission/timeout failure with its taxonomy code.
func errBudget(format string, args ...any) error {
	return qerr.Tag(qerr.ErrBudgetExceeded, fmt.Errorf(format, args...))
}

// clampWorkers resolves a request's parallelism override: values <= 0
// mean the server's configured per-request default, and no request may
// spawn more compute concurrency than the worker budget admits in
// total. Every explain-family handler (one-shot, batch, stream) uses
// this one rule.
func (s *Server) clampWorkers(requested int) int {
	if requested <= 0 {
		requested = s.cfg.Parallelism
	}
	if requested > s.cfg.WorkerBudget {
		requested = s.cfg.WorkerBudget
	}
	return requested
}

func toValues(ss []string) []rel.Value {
	out := make([]rel.Value, len(ss))
	for i, v := range ss {
		out[i] = rel.Value(v)
	}
	return out
}

// RenderRanking renders a ranking in the wire shape: one DTO per
// explanation, plus the tuple table of every tuple their contingencies
// name, each rendered once. The in-process watch renders through it
// too, so both transports publish identical frames.
func RenderRanking(db *rel.Database, exps []core.Explanation) ([]ExplanationDTO, map[int]string) {
	dtos := make([]ExplanationDTO, len(exps))
	var tuples map[int]string
	for i, e := range exps {
		dtos[i] = NewExplanationDTO(db, e)
		tuples = renderTuples(tuples, db, e.Contingency)
	}
	return dtos, tuples
}

// renderTuples adds the rendered form of every id not yet in tuples,
// allocating the table on first use.
func renderTuples(tuples map[int]string, db *rel.Database, ids []rel.TupleID) map[int]string {
	for _, id := range ids {
		if _, ok := tuples[int(id)]; ok {
			continue
		}
		if tuples == nil {
			tuples = make(map[int]string)
		}
		tuples[int(id)] = db.Render(id)
	}
	return tuples
}

// NewExplanationDTO renders one explanation in the wire shape. The
// difftest harness uses it to compare server replies byte-for-byte
// against library rankings without maintaining a mirror encoder.
func NewExplanationDTO(db *rel.Database, e core.Explanation) ExplanationDTO {
	d := ExplanationDTO{
		TupleID:         int(e.Tuple),
		Tuple:           db.Render(e.Tuple),
		Rho:             e.Rho,
		ContingencySize: e.ContingencySize,
		Method:          e.Method.String(),
	}
	for _, id := range e.Contingency {
		d.ContingencyIDs = append(d.ContingencyIDs, int(id))
	}
	return d
}

// statusOf maps an engine-construction error to an HTTP status: inputs
// the client got wrong are 4xx, never 5xx. Tagged errors (internal/
// qerr) carry their canonical status; the string-prefix fallback
// covers legacy untagged errors — syntax problems (parser:) are 400,
// semantically invalid instances (rel:, whyno:, core:) are 422.
func statusOf(err error) int {
	if s := qerr.StatusOf(err, 0); s != 0 {
		return s
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "parser:"):
		return http.StatusBadRequest
	case strings.Contains(msg, "rel:"),
		strings.Contains(msg, "whyno:"),
		strings.Contains(msg, "core:"):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// ---- handlers ----

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", UptimeSeconds: s.cfg.Clock().Sub(s.start).Seconds()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	certs, engines := s.reg.cacheStats()
	prepared := 0
	for _, sess := range s.reg.list() {
		prepared += sess.preparedCount()
	}
	resp := StatsResponse{
		UptimeSeconds:    s.cfg.Clock().Sub(s.start).Seconds(),
		Sessions:         s.reg.len(),
		MaxSessions:      s.cfg.MaxSessions,
		SessionsEvicted:  s.reg.evicted.Load(),
		PreparedQueries:  prepared,
		Inflight:         s.inflight.Load(),
		PeakInflight:     s.peakInflight.Load(),
		WorkerBudget:     s.cfg.WorkerBudget,
		RequestsTotal:    s.requests.Load(),
		ExplainsTotal:    s.explains.Load(),
		AdmissionRejects: s.rejects.Load(),
		CertCache:        certs,
		EngineCache:      engines,
		SessionBudget:    s.cfg.SessionBudget,
		SessionSheds:     s.sessionSheds.Load(),
		MutationsTotal:   s.mutations.Load(),
		EnginesInvalid:   s.engineInvalidations.Load(),
		CertsInvalid:     s.certInvalidations.Load(),
		EnginesPatched:   s.enginesPatched.Load(),
		WatchesActive:    s.watchesActive.Load(),
		DiffEventsSent:   s.diffEventsSent.Load(),
		DeltaFallbacks:   s.deltaFallbacks.Load(),
		WatchBudget:      s.cfg.WatchBudget,
	}
	if s.cluster != nil {
		topo := s.cluster.ring.Current()
		resp.Node = s.cluster.self
		resp.ClusterPeers = len(topo.Nodes)
		resp.ClusterEpoch = topo.Epoch
		resp.ClusterRedirected = s.clusterRedirected.Load()
		resp.ClusterProxied = s.clusterProxied.Load()
		resp.HandoffsOut = s.handoffsOut.Load()
		resp.HandoffsIn = s.handoffsIn.Load()
		resp.HandoffFails = s.handoffFails.Load()
	}
	if s.store != nil {
		resp.PersistEnabled = true
		resp.RestoredSessions = s.restored.Load()
		if s.wb != nil {
			resp.SnapshotWrites = s.wb.Writes()
			resp.SnapshotsPending = s.wb.Pending()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCreateDB(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	db, err := s.readDatabase(w, r)
	if err != nil {
		writeError(w, bodyStatus(err), "%v", err)
		return
	}
	if db.NumTuples() == 0 {
		writeError(w, http.StatusBadRequest, "empty database: no tuples parsed")
		return
	}
	sess := s.reg.add(db)
	s.markDirty(sess)
	writeJSON(w, http.StatusCreated, s.infoOf(sess))
}

// readDatabase reads an upload body, up to Config.MaxBodyBytes, in any
// of its three forms: the columnar snapshot envelope the Go client posts
// (ColumnsContentType), a JSON CreateDatabaseRequest, or raw text.
func (s *Server) readDatabase(w http.ResponseWriter, r *http.Request) (*rel.Database, error) {
	ct := r.Header.Get("Content-Type")
	text := ""
	if strings.HasPrefix(ct, "application/json") {
		var req CreateDatabaseRequest
		if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
			return nil, err
		}
		text = req.Database
	} else {
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			return nil, fmt.Errorf("reading body: %w", err)
		}
		if strings.HasPrefix(ct, ColumnsContentType) {
			snap, err := persist.Decode(raw)
			if err != nil {
				return nil, err
			}
			return snap.Database()
		}
		text = string(raw)
	}
	db, err := parser.ParseDatabase(strings.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("parsing database: %w", err)
	}
	return db, nil
}

func (s *Server) infoOf(sess *session) DatabaseInfo {
	sess.dbMu.RLock()
	live, version := sess.db.NumLive(), sess.db.Version()
	endo, relations := sess.endo, len(sess.db.Relations)
	sess.dbMu.RUnlock()
	return DatabaseInfo{
		ID:          sess.id,
		Tuples:      live,
		Version:     version,
		Endogenous:  endo,
		Relations:   relations,
		Prepared:    sess.preparedCount(),
		IdleSeconds: int64(sess.idle(s.cfg.Clock()).Seconds()),
	}
}

func (s *Server) handleListDBs(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	sessions := s.reg.list()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	out := make([]DatabaseInfo, len(sessions))
	for i, sess := range sessions {
		out[i] = s.infoOf(sess)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDeleteDB(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	id := r.PathValue("db")
	removed := s.reg.remove(id)
	if s.store != nil {
		// Dropping a session also drops its durability: forget any
		// pending mark and remove the snapshot so it cannot revive.
		if s.wb != nil {
			s.wb.Forget(id)
		}
		if s.store.Exists(id) {
			// Not live but snapshotted (e.g. evicted): deleting the
			// snapshot is still a successful delete of the session.
			removed = s.store.Delete(id) == nil || removed
		}
	}
	if !removed {
		writeErr(w, errSessionNotFound(id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	sess, ok := s.sessionOf(w, r)
	if !ok {
		return
	}
	var req PrepareQueryRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeError(w, bodyStatus(err), "%v", err)
		return
	}
	q, err := parser.ParseQuery(req.Query)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Validation, classification, and program generation all read the
	// session database; hold off concurrent mutations for the duration.
	sess.dbMu.RLock()
	defer sess.dbMu.RUnlock()
	if err := q.Validate(sess.db); err != nil {
		writeErr(w, err)
		return
	}
	pq, certs, certHit, err := sess.prepare(q, func() string {
		// Cause programs (Theorem 3.4) exist for Boolean queries; a
		// failed generation just leaves the field empty.
		prog, err := causegen.Generate(q, causegen.HintsFromDB(sess.db))
		if err != nil {
			return ""
		}
		return prog.String()
	})
	if err != nil {
		writeErr(w, fmt.Errorf("classifying query: %w", err))
		return
	}
	s.markDirty(sess)
	writeJSON(w, http.StatusCreated, PrepareQueryResponse{
		ID:                pq.id,
		Database:          sess.id,
		Query:             q.String(),
		Class:             certs.sound.Class.String(),
		ClassPaper:        certs.paper.Class.String(),
		Program:           pq.program,
		CertificateCached: certHit,
	})
}

// openExplain starts the request path of every explain-family route:
// openExplain, resolveQuery, admitExplain, then the engine (engineOf;
// batch builds one per item). In admission order, it counts the
// request, tracks it in flight, resolves the session, takes a slot of
// the session's fairness budget, read-locks the session database, and
// strictly decodes the body into req (an empty body leaves req zero
// when emptyOK). On success the caller defers end, which releases all
// of it; on failure the error is already written.
func (s *Server) openExplain(w http.ResponseWriter, r *http.Request, req any, emptyOK bool) (sess *session, end func(), ok bool) {
	s.requests.Add(1)
	done := s.trackInflight()
	sess, sessRelease, ok := s.admitSession(w, r)
	if !ok {
		done()
		return nil, nil, false
	}
	// Everything below evaluates over the session database (query
	// validation, engine construction, ranking, DTO rendering);
	// mutations serialize behind the whole request.
	sess.dbMu.RLock()
	end = func() {
		sess.dbMu.RUnlock()
		sessRelease()
		done()
	}
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, req); err != nil && !(emptyOK && errors.Is(err, io.EOF)) {
		writeError(w, bodyStatus(err), "%v", err)
		end()
		return nil, nil, false
	}
	return sess, end, true
}

// admitExplain bounds the request by RequestTimeout and admits it
// under the worker budget. On success the caller defers release, which
// frees the slot and the deadline; on failure the error is already
// written.
func (s *Server) admitExplain(w http.ResponseWriter, r *http.Request) (ctx context.Context, release func(), ok bool) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	slot, ok := s.admit(ctx)
	if !ok {
		writeErr(w, errBudget("server at capacity: %v", ctx.Err()))
		cancel()
		return nil, nil, false
	}
	if s.cfg.testHookAdmitted != nil {
		s.cfg.testHookAdmitted()
	}
	return ctx, func() { slot(); cancel() }, true
}

// resolveQuery resolves a query reference: a prepared query id (from
// the body, or the {q} segment of the prepared whyso/whyno routes), or
// an inline query string parsed and validated against the session
// database. Exactly one must be given. A doubled, missing or
// unparsable reference is ErrBadQuery and an unknown id
// ErrQueryNotFound; validation errors keep their own codes.
func (s *Server) resolveQuery(sess *session, queryID, inline string) (*rel.Query, string, error) {
	switch {
	case queryID != "" && inline != "":
		return nil, "", qerr.Tag(qerr.ErrBadQuery, errors.New("query and query_id are mutually exclusive"))
	case queryID != "":
		pq, ok := sess.lookupQuery(queryID)
		if !ok {
			return nil, "", errQueryNotFound(queryID)
		}
		return pq.q, pq.id, nil
	case inline != "":
		q, err := parser.ParseQuery(inline)
		if err != nil {
			return nil, "", err
		}
		if err := q.Validate(sess.db); err != nil {
			return nil, "", err
		}
		return q, "", nil
	}
	return nil, "", qerr.Tag(qerr.ErrBadQuery, errors.New("missing query or query_id"))
}

// engineOf is session.engineFor for one admitted request; a
// certificate miss classified a new shape, which is worth persisting.
func (s *Server) engineOf(sess *session, q *rel.Query, qID string, answer []string, whyNo bool) (eng *core.Engine, engineHit, certHit bool, err error) {
	eng, engineHit, certHit, err = sess.engineFor(q, qID, toValues(answer), whyNo)
	if err == nil && !certHit {
		s.markDirty(sess)
	}
	return eng, engineHit, certHit, err
}

// explainHandler builds the whyso/whyno handler. The prepared routes
// name their query in the {q} path segment, which is empty on the
// inline routes; an empty body is a valid request on either.
func (s *Server) explainHandler(whyNo bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.explains.Add(1)
		var req ExplainRequest
		sess, end, ok := s.openExplain(w, r, &req, true)
		if !ok {
			return
		}
		defer end()
		mode, err := core.ParseMode(req.Mode)
		if err != nil {
			writeErr(w, err)
			return
		}
		q, qID, err := s.resolveQuery(sess, r.PathValue("q"), req.Query)
		if err != nil {
			writeErr(w, err)
			return
		}
		ctx, release, ok := s.admitExplain(w, r)
		if !ok {
			return
		}
		defer release()

		started := time.Now()
		eng, engineHit, certHit, err := s.engineOf(sess, q, qID, req.Answer, whyNo)
		if err != nil {
			writeErr(w, err)
			return
		}
		exps, err := eng.Rank(ctx, mode, s.clampWorkers(req.Parallelism))
		if err != nil {
			if ctx.Err() != nil {
				writeErr(w, errBudget("request canceled: %v", ctx.Err()))
			} else {
				writeError(w, http.StatusInternalServerError, "ranking: %v", err)
			}
			return
		}
		dtos, tuples := RenderRanking(sess.db, exps)
		writeJSON(w, http.StatusOK, ExplainResponse{
			Database:          sess.id,
			QueryID:           qID,
			Query:             q.String(),
			Answer:            req.Answer,
			WhyNo:             whyNo,
			EngineCached:      engineHit,
			CertificateCached: certHit,
			Causes:            len(eng.Causes()),
			Explanations:      dtos,
			Tuples:            tuples,
			ElapsedMicros:     time.Since(started).Microseconds(),
		})
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.explains.Add(1)
	var req BatchExplainRequest
	sess, end, ok := s.openExplain(w, r, &req, false)
	if !ok {
		return
	}
	defer end()
	if len(req.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	mode, err := core.ParseMode(req.Mode)
	if err != nil {
		writeErr(w, err)
		return
	}

	// Resolve every item to a query up front so query-reference errors
	// (bad syntax, unknown prepared id) surface per-item without
	// spending worker budget.
	creqs := make([]core.BatchRequest, len(req.Requests))
	qIDs := make([]string, len(req.Requests))
	errs := make([]error, len(req.Requests))
	for i, item := range req.Requests {
		q, qID, err := s.resolveQuery(sess, item.QueryID, item.Query)
		if err != nil {
			errs[i] = fmt.Errorf("item %d: %w", i, err)
		}
		creqs[i] = core.BatchRequest{Query: q, Answer: toValues(item.Answer), WhyNo: item.WhyNo}
		qIDs[i] = qID
	}

	ctx, release, ok := s.admitExplain(w, r)
	if !ok {
		return
	}
	defer release()

	hits := make([]bool, len(creqs))
	results, err := core.ExplainBatch(ctx, sess.db, creqs, core.BatchRunOptions{
		Workers: s.clampWorkers(req.Parallelism),
		Mode:    mode,
		NewEngine: func(db *rel.Database, i int, creq core.BatchRequest) (*core.Engine, error) {
			if errs[i] != nil {
				return nil, errs[i]
			}
			eng, engineHit, _, err := sess.engineFor(creq.Query, qIDs[i], creq.Answer, creq.WhyNo)
			hits[i] = engineHit
			return eng, err
		},
	})
	if err != nil {
		writeErr(w, errBudget("batch canceled: %v", err))
		return
	}
	s.markDirty(sess) // batch items may have classified new shapes
	resp := BatchExplainResponse{Database: sess.id, Results: make([]BatchItemResult, len(results))}
	for i, res := range results {
		out := BatchItemResult{EngineCached: hits[i]}
		if res.Err != nil {
			out.Error = res.Err.Error()
			out.Code = qerr.CodeOf(res.Err)
		} else {
			out.Causes = len(res.Explanations)
			out.Explanations, out.Tuples = RenderRanking(sess.db, res.Explanations)
		}
		resp.Results[i] = out
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCauses returns the actual causes (Theorem 3.2) of one answer
// or non-answer without ranking them — the polynomial half of an
// explanation. The per-answer engine it builds is cached, so a
// following explain or stream against the same request skips straight
// to responsibility ranking.
func (s *Server) handleCauses(w http.ResponseWriter, r *http.Request) {
	var req CausesRequest
	sess, end, ok := s.openExplain(w, r, &req, false)
	if !ok {
		return
	}
	defer end()
	q, qID, err := s.resolveQuery(sess, req.QueryID, req.Query)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Lineage computation dominates a cold causes call; it runs under
	// the same admission budget as explains.
	_, release, ok := s.admitExplain(w, r)
	if !ok {
		return
	}
	defer release()

	eng, engineHit, _, err := s.engineOf(sess, q, qID, req.Answer, req.WhyNo)
	if err != nil {
		writeErr(w, err)
		return
	}
	causes := eng.Causes()
	ids := make([]int, len(causes))
	for i, id := range causes {
		ids[i] = int(id)
	}
	writeJSON(w, http.StatusOK, CausesResponse{
		Database:     sess.id,
		QueryID:      qID,
		Query:        q.String(),
		Answer:       req.Answer,
		WhyNo:        req.WhyNo,
		EngineCached: engineHit,
		Causes:       ids,
	})
}

// handleStream serves a ranking as NDJSON: one StreamEvent line per
// explanation the moment its responsibility computation completes,
// then a terminal done (or error) event. On the NP-hard side of the
// dichotomy this turns a minutes-long blocking ranking into a stream
// whose first line arrives after a single exact search.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.explains.Add(1)
	var req StreamExplainRequest
	sess, end, ok := s.openExplain(w, r, &req, false)
	if !ok {
		return
	}
	defer end()
	mode, err := core.ParseMode(req.Mode)
	if err != nil {
		writeErr(w, err)
		return
	}
	q, qID, err := s.resolveQuery(sess, req.QueryID, req.Query)
	if err != nil {
		writeErr(w, err)
		return
	}
	ctx, release, ok := s.admitExplain(w, r)
	if !ok {
		return
	}
	defer release()

	started := time.Now()
	eng, _, _, err := s.engineOf(sess, q, qID, req.Answer, req.WhyNo)
	if err != nil {
		writeErr(w, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev StreamEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false // client went away; the ranged stream stops the workers
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	n := 0
	var tuples map[int]string
	for ex, serr := range eng.RankStream(ctx, mode, core.StreamOptions{Workers: s.clampWorkers(req.Parallelism), CompletionOrder: req.CompletionOrder}) {
		if serr != nil {
			// Status is already written; the taxonomy travels in-band.
			if ctx.Err() != nil {
				serr = errBudget("stream canceled: %v", serr)
			}
			emit(StreamEvent{Error: &ErrorResponse{Error: serr.Error(), Code: qerr.CodeOf(serr)}})
			return
		}
		n++
		dto := NewExplanationDTO(sess.db, ex)
		tuples = renderTuples(tuples, sess.db, ex.Contingency)
		if !emit(StreamEvent{Explanation: &dto}) {
			return
		}
	}
	emit(StreamEvent{Done: &StreamDone{Causes: n, Tuples: tuples, ElapsedMicros: time.Since(started).Microseconds()}})
}
