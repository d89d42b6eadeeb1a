// JSON request/response types of the querycaused HTTP API. The module
// root re-exports them (see client.go at the repository root), so a Go
// client and the server share one wire vocabulary.
package server

import "github.com/querycause/querycause/internal/cache"

// CreateDatabaseRequest uploads a database in the parser's textual
// format ("+R(a,b)" endogenous, "-S(c)" exogenous, '#' comments). The
// same payload may instead be POSTed as a raw text body.
type CreateDatabaseRequest struct {
	Database string `json:"database"`
}

// DatabaseInfo describes one registered session. Tuples counts live
// tuples only; Version is the mutation version (uploaded tuples plus
// every insert and delete since), so two sessions with equal history
// report equal versions.
type DatabaseInfo struct {
	ID          string `json:"id"`
	Tuples      int    `json:"tuples"`
	Version     uint64 `json:"version"`
	Endogenous  int    `json:"endogenous"`
	Relations   int    `json:"relations"`
	Prepared    int    `json:"prepared_queries"`
	IdleSeconds int64  `json:"idle_seconds"`
}

// PrepareQueryRequest registers a conjunctive query against a session.
type PrepareQueryRequest struct {
	Query string `json:"query"`
}

// PrepareQueryResponse describes a prepared query: the canonical form,
// its dichotomy classification under both domination rules, and the
// Theorem 3.4 Datalog¬ cause program, all computed once and cached.
type PrepareQueryResponse struct {
	ID         string `json:"id"`
	Database   string `json:"database"`
	Query      string `json:"query"`
	Class      string `json:"class"`       // sound rule (what ModeAuto dispatches on)
	ClassPaper string `json:"class_paper"` // the paper's Fig. 3 rule
	// Program is the generated stratified Datalog¬ cause program.
	Program string `json:"program,omitempty"`
	// CertificateCached reports whether classification was served from
	// the session's certificate cache (an equal-shape query was already
	// prepared or explained).
	CertificateCached bool `json:"certificate_cached"`
}

// ExplainRequest asks why an answer is (whyso) or is not (whyno)
// returned. Exactly one of the URL-addressed prepared query or the
// inline Query must identify the query.
type ExplainRequest struct {
	// Query is an inline conjunctive query, for one-shot explains
	// without preparation.
	Query string `json:"query,omitempty"`
	// Answer is the (non-)answer tuple bound into the query head; empty
	// for Boolean queries.
	Answer []string `json:"answer,omitempty"`
	// Mode selects the responsibility strategy: "auto" (default),
	// "exact", or "paper".
	Mode string `json:"mode,omitempty"`
	// Parallelism overrides the server's per-request ranking worker
	// count (values <= 0 mean the server default; capped at the worker
	// budget). The ranking is byte-identical at every degree.
	Parallelism int `json:"parallelism,omitempty"`
}

// ExplanationDTO is one ranked cause.
type ExplanationDTO struct {
	TupleID int     `json:"tuple_id"`
	Tuple   string  `json:"tuple"`
	Rho     float64 `json:"rho"`
	// ContingencySize is min|Γ|; -1 when the tuple is not a cause.
	ContingencySize int `json:"contingency_size"`
	// ContingencyIDs is the contingency as tuple ids, so remote clients
	// can rehydrate a core.Explanation bit-for-bit. The same few tuples
	// recur across the causes of one answer, so their rendered form
	// travels once per response, in the enclosing Tuples table.
	ContingencyIDs []int  `json:"contingency_ids,omitempty"`
	Method         string `json:"method"`
}

// ExplainResponse is the ranking for one answer or non-answer.
type ExplainResponse struct {
	Database string   `json:"database"`
	QueryID  string   `json:"query_id,omitempty"`
	Query    string   `json:"query"`
	Answer   []string `json:"answer,omitempty"`
	WhyNo    bool     `json:"why_no"`
	// EngineCached reports whether the per-answer engine (lineage and
	// causes already computed) was served from the session cache: the
	// request skipped straight to responsibility ranking.
	EngineCached bool `json:"engine_cached"`
	// CertificateCached reports whether the dichotomy certificate came
	// from the session cache (classification skipped). Implied by
	// EngineCached.
	CertificateCached bool             `json:"certificate_cached"`
	Causes            int              `json:"causes"`
	Explanations      []ExplanationDTO `json:"explanations"`
	// Tuples maps every tuple id the explanations' contingency_ids name
	// to its rendered form ("R^n(a,b)"), each tuple rendered once.
	Tuples        map[int]string `json:"tuples,omitempty"`
	ElapsedMicros int64          `json:"elapsed_micros"`
}

// BatchExplainRequest explains many answers/non-answers in one call; it
// maps onto the library's ExplainAll fan-out.
type BatchExplainRequest struct {
	Requests []BatchItem `json:"requests"`
	// Mode applies to every item: "auto" (default), "exact", "paper".
	Mode string `json:"mode,omitempty"`
	// Parallelism overrides the server's per-request worker budget for
	// this batch (values <= 0 mean the server default).
	Parallelism int `json:"parallelism,omitempty"`
}

// BatchItem is one request of a batch: either a prepared QueryID or an
// inline Query.
type BatchItem struct {
	QueryID string   `json:"query_id,omitempty"`
	Query   string   `json:"query,omitempty"`
	Answer  []string `json:"answer,omitempty"`
	WhyNo   bool     `json:"why_no,omitempty"`
}

// BatchExplainResponse returns per-item results in request order;
// per-item failures (Error != "") do not abort the rest of the batch.
type BatchExplainResponse struct {
	Database string            `json:"database"`
	Results  []BatchItemResult `json:"results"`
}

// BatchItemResult is the outcome of one batch item.
type BatchItemResult struct {
	Error string `json:"error,omitempty"`
	// Code is the machine-readable taxonomy code of Error (see
	// internal/qerr), "" when the failure carries no taxonomy tag.
	Code         string           `json:"code,omitempty"`
	EngineCached bool             `json:"engine_cached"`
	Causes       int              `json:"causes"`
	Explanations []ExplanationDTO `json:"explanations,omitempty"`
	Tuples       map[int]string   `json:"tuples,omitempty"`
}

// StatsResponse is the /v1/stats payload: session registry occupancy,
// cache effectiveness, and request gauges. The integration tests assert
// warm-certificate explains through CertCache.Hits, and the CI smoke
// test asserts Inflight == 0 after the load generator drains.
type StatsResponse struct {
	UptimeSeconds   float64 `json:"uptime_seconds"`
	Sessions        int     `json:"sessions"`
	MaxSessions     int     `json:"max_sessions"`
	SessionsEvicted uint64  `json:"sessions_evicted"`
	PreparedQueries int     `json:"prepared_queries"`
	// Inflight counts explain/batch requests currently inside the
	// handler (queued for admission or computing); PeakInflight is the
	// high-water mark.
	Inflight     int64 `json:"inflight"`
	PeakInflight int64 `json:"peak_inflight"`
	// WorkerBudget is the admission limit on concurrently computing
	// explain requests.
	WorkerBudget     int         `json:"worker_budget"`
	RequestsTotal    uint64      `json:"requests_total"`
	ExplainsTotal    uint64      `json:"explains_total"`
	AdmissionRejects uint64      `json:"admission_rejects"`
	CertCache        cache.Stats `json:"cert_cache"`
	EngineCache      cache.Stats `json:"engine_cache"`

	// SessionBudget is the per-session fairness cap on concurrent
	// explains (0 = unlimited); SessionSheds counts requests shed for
	// exceeding it (surfaced to clients as budget_exceeded / 503).
	SessionBudget int    `json:"session_budget,omitempty"`
	SessionSheds  uint64 `json:"session_sheds,omitempty"`

	// Mutation counters: MutationsTotal counts tuple insert/delete
	// requests served; EnginesInvalid and CertsInvalid count the cached
	// per-answer engines and certificate pairs those mutations
	// incrementally invalidated (everything else stayed warm).
	// EnginesPatched counts engines the delta-maintenance layer revived
	// in place instead of dropping.
	MutationsTotal uint64 `json:"mutations_total,omitempty"`
	EnginesInvalid uint64 `json:"engines_invalidated,omitempty"`
	CertsInvalid   uint64 `json:"certs_invalidated,omitempty"`
	EnginesPatched uint64 `json:"engines_patched,omitempty"`

	// Live-explanation counters: WatchesActive is the gauge of open
	// watch streams, DiffEventsSent the cumulative frames written to
	// them (snapshots, diffs, resyncs, and in-band errors), and
	// DeltaFallbacks the mutations×engines where the delta-maintenance
	// layer could not prove a patch safe and fell back to a cold
	// rebuild. They are always present (not omitempty): a zero reads as
	// "no watch traffic", which monitoring must distinguish from "stat
	// missing".
	WatchesActive  int64  `json:"watches_active"`
	DiffEventsSent uint64 `json:"diff_events_sent"`
	DeltaFallbacks uint64 `json:"delta_fallbacks"`
	// WatchBudget is the per-session cap on concurrent watch
	// subscriptions (0 = unlimited).
	WatchBudget int `json:"watch_budget,omitempty"`

	// Cluster routing counters, present only on clustered servers: Node
	// is this replica's advertised URL, ClusterPeers the ring size,
	// ClusterEpoch the version of the topology currently installed.
	// ClusterRedirected counts requests 307-redirected to their owner,
	// ClusterProxied requests reverse-proxied on the client's behalf.
	Node              string `json:"node,omitempty"`
	ClusterPeers      int    `json:"cluster_peers,omitempty"`
	ClusterEpoch      uint64 `json:"cluster_epoch,omitempty"`
	ClusterRedirected uint64 `json:"cluster_redirected,omitempty"`
	ClusterProxied    uint64 `json:"cluster_proxied,omitempty"`
	// Handoff counters: HandoffsOut counts sessions this node shipped to
	// their new owner after a topology change, HandoffsIn sessions it
	// received, HandoffFails transfers that failed (the session stayed
	// put and is retried on the next topology change).
	HandoffsOut  uint64 `json:"handoffs_out,omitempty"`
	HandoffsIn   uint64 `json:"handoffs_in,omitempty"`
	HandoffFails uint64 `json:"handoff_fails,omitempty"`

	// Persistence counters, present only when a snapshot store is
	// configured: RestoredSessions counts sessions loaded warm (at boot
	// or lazily on first touch), SnapshotWrites the snapshots written by
	// the write-behind flusher, SnapshotsPending the sessions currently
	// marked dirty.
	PersistEnabled   bool   `json:"persist_enabled,omitempty"`
	RestoredSessions uint64 `json:"restored_sessions,omitempty"`
	SnapshotWrites   uint64 `json:"snapshot_writes,omitempty"`
	SnapshotsPending int    `json:"snapshots_pending,omitempty"`
}

// ClusterResponse is the GET /v1/cluster payload: the receiving node's
// advertised URL and the full current membership. Clients build the
// same consistent-hash ring from Peers and route session requests
// straight to owners; a non-clustered server answers with empty Peers.
type ClusterResponse struct {
	// Self is the advertised URL of the answering node ("" when the
	// server is not clustered).
	Self string `json:"self,omitempty"`
	// Peers is the full membership, including Self, sorted.
	Peers []string `json:"peers,omitempty"`
	// Proxy reports whether this node proxies non-owned requests
	// instead of 307-redirecting them.
	Proxy bool `json:"proxy,omitempty"`
	// Epoch is the version of this membership. Every topology change
	// (join, removal) bumps it; redirects and cluster responses carry it
	// in the X-Cluster-Epoch header so clients detect a stale ring and
	// refresh.
	Epoch uint64 `json:"epoch,omitempty"`
}

// ClusterNodeRequest is the POST /v1/cluster/nodes payload: the
// advertised URL of the node joining the ring. The receiving node
// mints the next topology epoch, propagates it to every member
// (including the joiner), and hands off the sessions the new ring
// assigns elsewhere. DELETE /v1/cluster/nodes?url=… removes a node
// the same way.
type ClusterNodeRequest struct {
	URL string `json:"url"`
}

// ClusterChangeResponse reports the outcome of a membership change
// (or a received topology): the installed topology and how far it
// propagated. Propagation is best-effort — unreached peers converge
// when any member re-propagates or they rejoin.
type ClusterChangeResponse struct {
	Epoch uint64   `json:"epoch"`
	Nodes []string `json:"nodes"`
	// PeersNotified counts members the new topology was pushed to;
	// PeersFailed counts members that could not be reached.
	PeersNotified int `json:"peers_notified"`
	PeersFailed   int `json:"peers_failed,omitempty"`
}

// ErrorResponse is the uniform error payload. Code, when present, is
// a stable machine-readable taxonomy code (internal/qerr) that the Go
// client rehydrates into the matching sentinel, so errors.Is behaves
// identically in-process and over the wire.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// CausesRequest asks for the actual causes (Theorem 3.2) of one
// answer or non-answer, without ranking them. The server builds and
// caches the per-answer engine, so a later explain or stream against
// the same request is warm.
type CausesRequest struct {
	// Query is an inline conjunctive query; QueryID addresses a
	// prepared one. Exactly one must be set.
	Query   string   `json:"query,omitempty"`
	QueryID string   `json:"query_id,omitempty"`
	Answer  []string `json:"answer,omitempty"`
	WhyNo   bool     `json:"why_no,omitempty"`
}

// CausesResponse lists the actual causes as tuple ids, sorted.
type CausesResponse struct {
	Database     string   `json:"database"`
	QueryID      string   `json:"query_id,omitempty"`
	Query        string   `json:"query"`
	Answer       []string `json:"answer,omitempty"`
	WhyNo        bool     `json:"why_no"`
	EngineCached bool     `json:"engine_cached"`
	Causes       []int    `json:"causes"`
}

// StreamExplainRequest asks for a streamed ranking: the response is
// NDJSON, one StreamEvent per line — an explanation event per cause as
// its responsibility computation completes, then a terminal done or
// error event.
type StreamExplainRequest struct {
	Query   string   `json:"query,omitempty"`
	QueryID string   `json:"query_id,omitempty"`
	Answer  []string `json:"answer,omitempty"`
	WhyNo   bool     `json:"why_no,omitempty"`
	// Mode selects the responsibility strategy: "auto" (default),
	// "exact", or "paper".
	Mode string `json:"mode,omitempty"`
	// Parallelism overrides the server's per-request worker count
	// (values <= 0 mean the server default; capped at the worker
	// budget).
	Parallelism int `json:"parallelism,omitempty"`
	// CompletionOrder emits explanations in completion order (lowest
	// time-to-first-explanation, scheduling-dependent order) instead of
	// the default deterministic ascending cause order.
	CompletionOrder bool `json:"completion_order,omitempty"`
}

// StreamEvent is one NDJSON line of a streamed ranking. Exactly one
// field is set; Done and Error are terminal.
type StreamEvent struct {
	Explanation *ExplanationDTO `json:"explanation,omitempty"`
	Done        *StreamDone     `json:"done,omitempty"`
	Error       *ErrorResponse  `json:"error,omitempty"`
}

// StreamDone is the terminal event of a successful stream. Tuples
// renders every tuple the streamed explanations' contingency_ids name.
type StreamDone struct {
	Causes        int            `json:"causes"`
	Tuples        map[int]string `json:"tuples,omitempty"`
	ElapsedMicros int64          `json:"elapsed_micros"`
}

// TupleSpec describes one tuple to insert: the relation name, its
// arguments as strings, and whether the tuple is endogenous (a
// candidate cause).
type TupleSpec struct {
	Rel  string   `json:"rel"`
	Args []string `json:"args"`
	Endo bool     `json:"endo,omitempty"`
}

// InsertTuplesRequest appends a batch of tuples to a session database.
// The batch is validated as a whole before anything is applied: a
// request with any malformed tuple (empty relation, no arguments,
// arity mismatch against the live relation or an earlier tuple of the
// batch) mutates nothing. A relation absent from the database is
// created on first insert.
type InsertTuplesRequest struct {
	Tuples []TupleSpec `json:"tuples"`
}

// MutateResponse reports the session state after a successful tuple
// insert or delete.
type MutateResponse struct {
	Database string `json:"database"`
	// Version is the database's mutation version after the request:
	// uploaded tuples plus every insert and delete applied since, so
	// clients can order mutation responses and tie rankings to the
	// state they were computed at.
	Version uint64 `json:"version"`
	// Tuples counts live tuples after the request.
	Tuples int `json:"tuples"`
	// TupleIDs are the server-assigned ids of the inserted tuples, in
	// request order (inserts only). IDs are never reused; a deleted id
	// stays addressable in explanations of historical rankings.
	TupleIDs []int `json:"tuple_ids,omitempty"`
	// EnginesInvalidated and CertsInvalidated count the cached
	// per-answer engines and certificate pairs this mutation dropped;
	// every cache entry not counted here survived and still answers
	// warm. EnginesPatched counts engines the delta layer revived in
	// place (their lineage was patched, not recomputed) instead of
	// dropping — patched engines answer byte-identically to a cold
	// rebuild and are not counted as invalidated.
	EnginesInvalidated int `json:"engines_invalidated"`
	CertsInvalidated   int `json:"certs_invalidated"`
	EnginesPatched     int `json:"engines_patched,omitempty"`
}

// WatchRequest subscribes to the live explanation of one answer or
// non-answer: POST /v1/databases/{db}/watch answers with an NDJSON
// stream of WatchEvent frames. Exactly one of Query/QueryID identifies
// the query, like every explain-family endpoint.
type WatchRequest struct {
	Query   string   `json:"query,omitempty"`
	QueryID string   `json:"query_id,omitempty"`
	Answer  []string `json:"answer,omitempty"`
	WhyNo   bool     `json:"why_no,omitempty"`
	// Mode selects the responsibility strategy the watched ranking is
	// computed under: "auto" (default), "exact", or "paper".
	Mode string `json:"mode,omitempty"`
	// Buffer bounds the frames queued for this subscriber while it is
	// not reading (default 16). A subscriber that falls further behind
	// misses frames and recovers with a full_resync frame.
	Buffer int `json:"buffer,omitempty"`
	// ResumeFrom resumes a broken watch: the version of the last frame
	// the subscriber applied. When the topic's diff buffer still covers
	// that version the stream replays the missed frames and continues
	// the chain gap-free (no snapshot frame); otherwise it starts with a
	// full_resync. Zero (or absent) subscribes fresh with a snapshot.
	ResumeFrom uint64 `json:"resume_from,omitempty"`
}

// WatchEvent is one NDJSON frame of a watch stream. Type is
// "snapshot" (first frame: Ranking is the full current ranking),
// "diff" (one mutation's effect: apply CausesRemoved, then
// RankChanged, then CausesAdded to the previous state and re-sort by
// descending rho then ascending tuple id), "full_resync" (the
// subscriber lagged or the topic recovered from an error; Ranking
// replaces all previous state), or "error" (the re-rank at Version
// failed; the stream continues and recovers via full_resync).
// Consumers must ignore frames whose Version is not greater than the
// version of the last frame they applied: a frame published
// concurrently with a resync may arrive after it, already covered.
type WatchEvent struct {
	Type    string `json:"type"`
	Version uint64 `json:"version"`
	// Ranking is the full ranking, on snapshot and full_resync frames.
	Ranking []ExplanationDTO `json:"ranking,omitempty"`
	// CausesAdded / CausesRemoved / RankChanged are the diff payload:
	// new causes, tuple ids no longer causes, and causes whose
	// explanation (rho, contingency, or method) changed.
	CausesAdded   []ExplanationDTO `json:"causes_added,omitempty"`
	CausesRemoved []int            `json:"causes_removed,omitempty"`
	RankChanged   []RankChangeDTO  `json:"rank_changed,omitempty"`
	// Tuples renders every tuple the frame's explanations (Ranking,
	// CausesAdded, and each RankChanged New) name in contingency_ids.
	Tuples map[int]string `json:"tuples,omitempty"`
	// Error carries the failure of an "error" frame.
	Error *ErrorResponse `json:"error,omitempty"`
}

// RankChangeDTO reports one cause whose explanation changed under a
// mutation: the old and new responsibility, and the full new
// explanation to substitute.
type RankChangeDTO struct {
	TupleID int            `json:"tuple_id"`
	OldRho  float64        `json:"old_rho"`
	NewRho  float64        `json:"new_rho"`
	New     ExplanationDTO `json:"new"`
}

// HealthResponse is the /healthz payload.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}
