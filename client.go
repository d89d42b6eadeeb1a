package querycause

import (
	"bufio"
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/querycause/querycause/internal/cluster"
	"github.com/querycause/querycause/internal/parser"
	"github.com/querycause/querycause/internal/persist"
	"github.com/querycause/querycause/internal/qerr"
	"github.com/querycause/querycause/internal/server"
)

// Wire types of the querycaused HTTP API (see internal/server and
// cmd/querycaused). The client and server share these definitions.
type (
	// DatabaseInfo describes one registered database session.
	DatabaseInfo = server.DatabaseInfo
	// PrepareQueryResponse describes a prepared (parsed + classified +
	// rewritten) query.
	PrepareQueryResponse = server.PrepareQueryResponse
	// ExplainRequest asks why an answer is (why-so) or is not (why-no)
	// returned.
	ExplainRequest = server.ExplainRequest
	// ExplainResponse is the ranking for one answer or non-answer.
	ExplainResponse = server.ExplainResponse
	// ExplanationDTO is one ranked cause on the wire.
	ExplanationDTO = server.ExplanationDTO
	// BatchExplainRequest explains many answers/non-answers in one call.
	BatchExplainRequest = server.BatchExplainRequest
	// BatchItem is one request of a batch.
	BatchItem = server.BatchItem
	// BatchExplainResponse carries per-item batch results.
	BatchExplainResponse = server.BatchExplainResponse
	// BatchItemResult is the outcome of one batch item.
	BatchItemResult = server.BatchItemResult
	// ServerStats is the /v1/stats payload.
	ServerStats = server.StatsResponse
	// CausesRequest asks for the actual causes of one (non-)answer
	// without ranking them.
	CausesRequest = server.CausesRequest
	// CausesResponse lists the causes as tuple ids.
	CausesResponse = server.CausesResponse
	// StreamExplainRequest asks for an NDJSON streamed ranking.
	StreamExplainRequest = server.StreamExplainRequest
	// StreamEvent is one NDJSON line of a streamed ranking.
	StreamEvent = server.StreamEvent
	// StreamDone is the terminal event of a successful stream.
	StreamDone = server.StreamDone
	// ClusterInfo is the /v1/cluster topology payload: the answering
	// node's identity, the full peer list, and the topology epoch.
	ClusterInfo = server.ClusterResponse
	// ClusterChange reports the outcome of a membership change: the
	// installed topology and how far it propagated.
	ClusterChange = server.ClusterChangeResponse
	// TupleSpec describes one tuple to insert into a session database.
	TupleSpec = server.TupleSpec
	// MutateResponse reports the session state after a tuple insert or
	// delete: the new mutation version, the live tuple count, assigned
	// ids, and how much cached explanation state the mutation dropped.
	MutateResponse = server.MutateResponse
	// WatchRequest subscribes to live diff frames for one explanation.
	WatchRequest = server.WatchRequest
	// DiffEvent is one frame of a watch stream: a snapshot, a diff
	// (causes added/removed, ranks changed), a full_resync, or an
	// in-band error. See the type's protocol documentation for the
	// replay contract.
	DiffEvent = server.WatchEvent
	// RankChange reports one cause whose explanation changed in a diff
	// frame.
	RankChange = server.RankChangeDTO
)

// Client is a thin Go client for a querycaused server. It is safe for
// concurrent use; the base URL it talks to may move at runtime (a
// cluster redirect under a newer topology epoch re-pins it, and
// SetFallbacks arms failover to peer nodes when the pinned node stops
// answering).
type Client struct {
	http    *http.Client
	retries int

	// mu guards the routing state below: the pinned base URL, the
	// highest topology epoch observed on responses, and the failover
	// rotation through fallback bases.
	mu        sync.Mutex
	base      string
	epoch     uint64
	fallbacks []string
	fbIdx     int
}

// NewClient returns a client for the server at baseURL (e.g.
// "http://localhost:8347"). httpClient may be nil for
// http.DefaultClient.
//
// Idempotent requests — GETs, DELETEs, and mutations carrying an
// Idempotency-Key (InsertTuples and DeleteTuple generate one) — are
// retried up to two extra times on transport errors and transient
// statuses (429, 502, 503, 504), with jittered exponential backoff; a
// server-sent Retry-After header overrides the computed pause.
// Explain-family POSTs are never retried. SetRetries adjusts or
// disables the behaviour.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: stopClusterRedirects(httpClient), retries: defaultGETRetries}
}

// stopClusterRedirects returns a copy of hc that hands cluster
// redirects (307/308) back to the caller instead of following them, so
// route applies one hop policy to every method; other redirects keep
// hc's policy.
func stopClusterRedirects(hc *http.Client) *http.Client {
	cp := *hc
	cp.CheckRedirect = func(req *http.Request, via []*http.Request) error {
		if code := req.Response.StatusCode; code == http.StatusTemporaryRedirect || code == http.StatusPermanentRedirect {
			return http.ErrUseLastResponse
		}
		if hc.CheckRedirect != nil {
			return hc.CheckRedirect(req, via)
		}
		if len(via) >= 10 { // net/http's default policy
			return errors.New("stopped after 10 redirects")
		}
		return nil
	}
	return &cp
}

const defaultGETRetries = 2

// retryBackoffBase seeds the jittered exponential backoff (it doubles
// per attempt up to retryBackoffCap); a var so tests can shrink it.
var retryBackoffBase = 50 * time.Millisecond

const retryBackoffCap = 2 * time.Second

// retryDelay computes the pause before retry attempt n (1-based):
// the server's Retry-After when it sent one (capped — a clustered
// server answering 503 mid-handoff knows better than any client-side
// curve), otherwise an exponential step with full jitter in [d/2, d]
// so synchronized clients do not retry in lockstep.
func retryDelay(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return min(retryAfter, retryBackoffCap)
	}
	d := retryBackoffBase << (attempt - 1)
	if d <= 0 || d > retryBackoffCap {
		d = retryBackoffCap
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// SetRetries sets how many extra attempts an idempotent request gets
// after a transport error or a transient status (0 disables retries).
// It returns the client for chaining and must not be called
// concurrently with requests.
func (c *Client) SetRetries(n int) *Client {
	if n < 0 {
		n = 0
	}
	c.retries = n
	return c
}

// SetFallbacks arms base-URL failover: when the pinned node stops
// answering (transport error on a retryable request, or a watch
// reconnect), the client rotates to the next fallback and lets the
// cluster's redirect/restore machinery route it onward. Dial wires the
// cluster topology in automatically. It returns the client for
// chaining.
func (c *Client) SetFallbacks(bases []string) *Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fallbacks = nil
	for _, b := range bases {
		if b = strings.TrimRight(b, "/"); b != "" {
			c.fallbacks = append(c.fallbacks, b)
		}
	}
	return c
}

// Base returns the server base URL the client is currently pinned to.
func (c *Client) Base() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.base
}

// rotateBase fails over to the next fallback base differing from the
// current one; no-op without fallbacks.
func (c *Client) rotateBase() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for range c.fallbacks {
		c.fbIdx = (c.fbIdx + 1) % len(c.fallbacks)
		if c.fallbacks[c.fbIdx] != c.base {
			c.base = c.fallbacks[c.fbIdx]
			return
		}
	}
}

// maybeRebase re-pins the client after a second redirect in one
// request — the signal that ownership moved under a topology change
// mid-flight. The redirect's X-Cluster-Epoch header guards the switch:
// a target whose epoch is not newer than the one already observed is a
// stale node, not a fresher topology, and the pin stays.
func (c *Client) maybeRebase(loc string, resp *http.Response) {
	u, err := url.Parse(loc)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return
	}
	origin := u.Scheme + "://" + u.Host
	epoch, eerr := strconv.ParseUint(resp.Header.Get(server.EpochHeader), 10, 64)
	c.mu.Lock()
	defer c.mu.Unlock()
	if eerr == nil {
		if epoch <= c.epoch {
			return
		}
		c.epoch = epoch
	}
	c.base = origin
}

// errMessageCap bounds how much of an error body is kept in an
// APIError: bodies are read up to bodyDrainCap (to drain the
// connection) but a misbehaving proxy's megabyte of HTML is useless in
// an error chain.
const errMessageCap = 8 << 10

// bodyDrainCap bounds how much of a response body is read before the
// underlying connection is released: a fully-drained body lets
// net/http reuse the connection, one abandoned with unread bytes
// forces a close. Every drain path (cluster-redirect bodies, non-2xx
// error bodies) shares this one cap, so no path silently keeps a
// tighter limit that would break keep-alive on bodies the other paths
// would have drained.
const bodyDrainCap = 1 << 20

// APIError is a non-2xx server response. Code carries the server's
// machine-readable error code when present; Unwrap resolves it to the
// matching sentinel (ErrSessionNotFound, ErrInvalidWhyNo, …), so
//
//	errors.Is(err, querycause.ErrSessionNotFound)
//
// works on remote failures exactly as on local ones.
type APIError struct {
	StatusCode int
	// Code is the wire error code ("session_not_found", …); empty when
	// the server predates codes or the body was not an ErrorResponse.
	Code    string
	Message string
	// RetryAfter is the server's Retry-After hint (zero when absent):
	// how long to wait before retrying a 429/503. The client's retry
	// loop honors it in place of its own backoff curve.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("querycaused: %d: %s", e.StatusCode, e.Message)
}

// Unwrap exposes the taxonomy sentinel named by Code, or nil for
// unknown/absent codes.
func (e *APIError) Unwrap() error {
	if s := qerr.FromCode(e.Code); s != nil {
		return s
	}
	return nil
}

// retryableStatus reports whether a response status is worth an
// idempotent retry: gateway-style transient failures (502, 503, 504 —
// a clustered server answers 503 for sessions mid-handoff) and 429
// backpressure. Other 4xx and plain 500 are returned to the caller
// as-is.
func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusBadGateway ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

// newIdempotencyKey mints the dedup key a mutation request carries so
// a retry replays the recorded response instead of applying twice.
func newIdempotencyKey() string {
	var b [16]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back
		// to a time-based key rather than silently dropping dedup.
		return fmt.Sprintf("t%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doKeyed(ctx, method, path, in, out, "")
}

// body is an encoded request body and its Content-Type; the zero body
// sends none.
type body struct {
	raw         []byte
	contentType string
}

// doKeyed is do with an optional Idempotency-Key.
func (c *Client) doKeyed(ctx context.Context, method, path string, in, out any, idemKey string) error {
	var b body
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		b = body{raw, "application/json"}
	}
	return c.send(ctx, method, path, b, out, idemKey)
}

// send performs a request, decoding a JSON response into out. Retries
// apply to idempotent requests: GETs, DELETEs, and anything carrying a
// key (the server dedups keyed mutations, so re-sending one is safe
// even when the first attempt applied and only its response was lost).
func (c *Client) send(ctx context.Context, method, path string, b body, out any, idemKey string) error {
	attempts := 1
	if method == http.MethodGet || method == http.MethodDelete || idemKey != "" {
		attempts += c.retries
	}
	var lastErr error
	url, routed := c.Base()+path, ""
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			var retryAfter time.Duration
			var apiErr *APIError
			if errors.As(lastErr, &apiErr) {
				retryAfter = apiErr.RetryAfter
			}
			select {
			case <-ctx.Done():
				// The caller canceled; cancellation dominates whatever the
				// previous attempt returned, so errors.Is(err,
				// context.Canceled/DeadlineExceeded) holds.
				return ctx.Err()
			case <-time.After(retryDelay(attempt, retryAfter)):
			}
			// Retry where the cluster last routed the request: after a
			// redirect that is the owner, so the retry does not cross the
			// wrong node again. A transport error at the node the attempt
			// entered through means that node may be gone: re-enter through
			// the pinned base, failing over from it (no-op without
			// SetFallbacks) when the base itself failed.
			if apiErr == nil && routed == url {
				if url == c.Base()+path {
					c.rotateBase()
				}
				routed = c.Base() + path
			}
			url = routed
		}
		var retry bool
		routed, retry, lastErr = c.doOnce(ctx, method, url, b, out, idemKey)
		if lastErr == nil || !retry {
			break
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	if lastErr != nil && ctx.Err() == nil && !errors.As(lastErr, new(*APIError)) {
		// The request died on the transport and is being reported to the
		// caller (it was not retryable, or the budget is spent). The
		// pinned node may be gone for good: fail over now so the NEXT
		// request from this client probes a fallback base instead of
		// re-dialing a dead node. The failed request itself is never
		// re-sent — an unkeyed POST must not be duplicated — but a
		// caller-level retry will enter through a live node.
		c.rotateBase()
	}
	return lastErr
}

// maxRedirectHops bounds how many cluster redirects one request
// follows. The common case is zero or one hop (client pinned to the
// wrong node exactly once); more hops mean ownership is moving under
// a topology change mid-flight, which settles within a hop or two —
// the budget absorbs that instead of failing the request, and the
// epoch-guarded rebase (maybeRebase) re-pins the client along the way.
// A request that exhausts the budget refreshes the topology once
// (reroute) and gets one more budget at the owner it names.
const maxRedirectHops = 4

// doOnce performs one HTTP exchange starting at url and decodes a
// JSON response into out; routed is the URL of its last hop and retry
// reports whether the failure is transient enough for an idempotent
// retry. A cluster 307/308 is followed (see route) without consuming a
// retry attempt — it is a re-route, not a retry.
func (c *Client) doOnce(ctx context.Context, method, url string, b body, out any, idemKey string) (routed string, retry bool, err error) {
	resp, routed, retry, err := c.route(ctx, method, url, b, idemKey)
	if err != nil {
		return routed, retry, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return routed, retryableStatus(resp.StatusCode), decodeAPIError(resp)
	}
	if out == nil {
		return routed, false, nil
	}
	return routed, false, json.NewDecoder(resp.Body).Decode(out)
}

// route sends one request starting at target and follows cluster
// 307/308 redirects: a second redirect in one request re-pins the
// client to the newest topology's owner (maybeRebase), and exhausting
// the hop budget twice, once before and once after a topology refresh
// (reroute), is a retryable failure (the topology is still
// converging). It returns the first response that is not a redirect,
// whose body the caller owns, and the URL that answered it. On failure
// routed is the URL of the last hop and retry reports whether the
// failure is transient: a transport error or an exhausted hop budget.
func (c *Client) route(ctx context.Context, method, target string, b body, idemKey string) (resp *http.Response, routed string, retry bool, err error) {
	loop := make(map[string]bool)
	refreshed := false
	for hop := 0; ; hop++ {
		var rd io.Reader
		if b.contentType != "" {
			rd = bytes.NewReader(b.raw)
		}
		req, err := http.NewRequestWithContext(ctx, method, target, rd)
		if err != nil {
			return nil, target, false, err
		}
		if b.contentType != "" {
			req.Header.Set("Content-Type", b.contentType)
		}
		if idemKey != "" {
			req.Header.Set("Idempotency-Key", idemKey)
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return nil, target, true, err // transport error: retryable for idempotent requests
		}
		if resp.StatusCode != http.StatusTemporaryRedirect && resp.StatusCode != http.StatusPermanentRedirect {
			return resp, target, false, nil
		}
		loc, err := redirectTarget(resp)
		if err != nil {
			return nil, target, false, err
		}
		loop[originOf(target)] = true
		if hop >= maxRedirectHops {
			if !refreshed {
				if owned, ok := c.reroute(ctx, target, loop); ok {
					refreshed, hop, target = true, -1, owned
					continue
				}
			}
			return nil, target, true, fmt.Errorf("querycaused: redirect loop: %s redirected again (to %s) after %d cluster hops; topology still converging", target, loc, hop)
		}
		if hop > 0 {
			c.maybeRebase(loc, resp)
		}
		target = loc
	}
}

// originOf returns the scheme://host of an absolute URL, the form base
// URLs and cluster members take.
func originOf(raw string) string {
	u, err := url.Parse(raw)
	if err != nil {
		return raw
	}
	return u.Scheme + "://" + u.Host
}

// reroute refreshes the cluster topology after target's request used
// up its redirect hops among the nodes in loop. It asks GET
// /v1/cluster of every member the client knows (the pinned base and
// the fallbacks) outside the loop — a node in the loop is one side of
// the disagreement — keeps the answer with the highest epoch, and
// returns target at the session's owner under that ring, re-pinning
// the client there when the epoch is newer than any it has seen. ok is
// false when target is not session-addressed or no member answers.
func (c *Client) reroute(ctx context.Context, target string, loop map[string]bool) (owned string, ok bool) {
	u, err := url.Parse(target)
	if err != nil {
		return "", false
	}
	id, ok := server.SessionPathID(u.Path)
	if !ok {
		return "", false
	}
	c.mu.Lock()
	members := append([]string{c.base}, c.fallbacks...)
	c.mu.Unlock()
	var best ClusterInfo
	asked := make(map[string]bool)
	for _, m := range members {
		if loop[m] || asked[m] {
			continue
		}
		asked[m] = true
		topo, err := NewClient(m, c.http).SetRetries(0).Cluster(ctx)
		if err == nil && len(topo.Peers) > 0 && (best.Peers == nil || topo.Epoch > best.Epoch) {
			best = topo
		}
	}
	if best.Peers == nil {
		return "", false
	}
	owner := cluster.New(best.Peers).Owner(id)
	c.mu.Lock()
	if best.Epoch > c.epoch {
		c.epoch, c.base = best.Epoch, owner
	}
	c.mu.Unlock()
	return owner + u.RequestURI(), true
}

// redirectTarget drains a redirect response and resolves its Location
// header against the request URL.
func redirectTarget(resp *http.Response) (string, error) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, bodyDrainCap))
	resp.Body.Close()
	loc, err := resp.Location()
	if err != nil {
		return "", fmt.Errorf("querycaused: %d redirect without a Location header", resp.StatusCode)
	}
	return loc.String(), nil
}

// decodeAPIError turns a non-2xx response into an *APIError. The body
// is read up to bodyDrainCap; an ErrorResponse payload supplies the
// message and code, anything else (plain text, proxy HTML, truncated
// JSON) is kept verbatim, capped at errMessageCap. A Retry-After
// header (delta-seconds or HTTP-date) is parsed into RetryAfter.
func decodeAPIError(resp *http.Response) *APIError {
	apiErr := &APIError{StatusCode: resp.StatusCode, RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, bodyDrainCap))
	if err != nil {
		return apiErr
	}
	var wire server.ErrorResponse
	if json.Unmarshal(raw, &wire) == nil && wire.Error != "" {
		apiErr.Message, apiErr.Code = wire.Error, wire.Code
	} else {
		apiErr.Message = strings.TrimSpace(string(raw))
	}
	if len(apiErr.Message) > errMessageCap {
		apiErr.Message = apiErr.Message[:errMessageCap] + "…(truncated)"
	}
	return apiErr
}

// parseRetryAfter reads a Retry-After header value: integer
// delta-seconds, or an HTTP-date resolved against the local clock.
// Absent, malformed, or already-elapsed values are zero.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// UploadDatabase registers a database given in the parser's textual
// format and returns its session handle.
func (c *Client) UploadDatabase(ctx context.Context, text string) (DatabaseInfo, error) {
	var out DatabaseInfo
	err := c.do(ctx, http.MethodPost, "/v1/databases", server.CreateDatabaseRequest{Database: text}, &out)
	return out, err
}

// UploadDB registers an in-memory database and returns its session
// handle. It posts the database's columns — dictionary, code vectors,
// endo flags and the husks of deleted tuples — in the checksummed
// envelope querycaused's snapshots use (Content-Type
// application/x-querycause-columns), so the session's tuple IDs and
// version equal db's. Unlike the text form, it carries any value,
// including ones FormatDatabase cannot represent.
func (c *Client) UploadDB(ctx context.Context, db *Database) (DatabaseInfo, error) {
	data, err := columnsBody(db)
	if err != nil {
		return DatabaseInfo{}, err
	}
	return c.uploadColumns(ctx, data)
}

// columnsBody encodes db as the body UploadDB posts: its columns in a
// persist snapshot envelope.
func columnsBody(db *Database) ([]byte, error) {
	return persist.Encode(&persist.Snapshot{Columns: db.Columns()})
}

func (c *Client) uploadColumns(ctx context.Context, data []byte) (DatabaseInfo, error) {
	var out DatabaseInfo
	err := c.send(ctx, http.MethodPost, "/v1/databases", body{data, server.ColumnsContentType}, &out, "")
	return out, err
}

// ListDatabases lists the live sessions.
func (c *Client) ListDatabases(ctx context.Context) ([]DatabaseInfo, error) {
	var out []DatabaseInfo
	err := c.do(ctx, http.MethodGet, "/v1/databases", nil, &out)
	return out, err
}

// DropDatabase drops a session explicitly.
func (c *Client) DropDatabase(ctx context.Context, dbID string) error {
	return c.do(ctx, http.MethodDelete, "/v1/databases/"+dbID, nil, nil)
}

// PrepareQuery parses, classifies, and rewrites a query once; later
// explains against its id skip straight to responsibility ranking.
func (c *Client) PrepareQuery(ctx context.Context, dbID, query string) (PrepareQueryResponse, error) {
	var out PrepareQueryResponse
	err := c.do(ctx, http.MethodPost, "/v1/databases/"+dbID+"/queries",
		server.PrepareQueryRequest{Query: query}, &out)
	return out, err
}

// InsertTuples appends a batch of tuples to a session database. The
// batch is atomic: the server validates every tuple before applying
// any, so an error means the database is unchanged. The response
// carries the server-assigned tuple ids (in request order) and the new
// mutation version; cached explanation state the mutation cannot
// affect stays warm on the server.
//
// The request carries a generated Idempotency-Key, so it is safely
// retried: if the first attempt applied and only its response was
// lost, the retry replays the recorded response instead of inserting
// twice.
func (c *Client) InsertTuples(ctx context.Context, dbID string, tuples []TupleSpec) (MutateResponse, error) {
	var out MutateResponse
	err := c.doKeyed(ctx, http.MethodPost, "/v1/databases/"+dbID+"/tuples",
		server.InsertTuplesRequest{Tuples: tuples}, &out, newIdempotencyKey())
	return out, err
}

// DeleteTuple removes one tuple by id. Deleting an unknown or
// already-deleted id fails with ErrTupleNotFound; ids are never
// reused. The request carries a generated Idempotency-Key so a retry
// that races its own first attempt replays the recorded response
// instead of failing with ErrTupleNotFound.
func (c *Client) DeleteTuple(ctx context.Context, dbID string, tupleID int) (MutateResponse, error) {
	var out MutateResponse
	err := c.doKeyed(ctx, http.MethodDelete, fmt.Sprintf("/v1/databases/%s/tuples/%d", dbID, tupleID), nil, &out, newIdempotencyKey())
	return out, err
}

// WhySo explains why the answer is returned, against a prepared query
// (queryID != "") or an inline req.Query.
func (c *Client) WhySo(ctx context.Context, dbID, queryID string, req ExplainRequest) (ExplainResponse, error) {
	return c.explain(ctx, dbID, queryID, "whyso", req)
}

// WhyNo explains why the answer is NOT returned.
func (c *Client) WhyNo(ctx context.Context, dbID, queryID string, req ExplainRequest) (ExplainResponse, error) {
	return c.explain(ctx, dbID, queryID, "whyno", req)
}

func (c *Client) explain(ctx context.Context, dbID, queryID, kind string, req ExplainRequest) (ExplainResponse, error) {
	path := "/v1/databases/" + dbID + "/" + kind
	if queryID != "" {
		path = "/v1/databases/" + dbID + "/queries/" + queryID + "/" + kind
	}
	var out ExplainResponse
	err := c.do(ctx, http.MethodPost, path, req, &out)
	return out, err
}

// Batch explains many answers/non-answers in one call.
func (c *Client) Batch(ctx context.Context, dbID string, req BatchExplainRequest) (BatchExplainResponse, error) {
	var out BatchExplainResponse
	err := c.do(ctx, http.MethodPost, "/v1/databases/"+dbID+"/batch", req, &out)
	return out, err
}

// Causes lists the actual causes (Theorem 3.2) of one answer or
// non-answer without ranking them; the server caches the engine it
// builds, so a following explain or stream is warm.
func (c *Client) Causes(ctx context.Context, dbID string, req CausesRequest) (CausesResponse, error) {
	var out CausesResponse
	err := c.do(ctx, http.MethodPost, "/v1/databases/"+dbID+"/causes", req, &out)
	return out, err
}

// ExplainStream requests a streamed ranking and returns an iterator
// over its explanation events: one ExplanationDTO per cause as its
// responsibility computation completes on the server, ending after a
// terminal done event or with a single non-nil error (rehydrated to
// the taxonomy sentinel when the server sent a code). The sequence is
// single-use; breaking out of the range closes the response body,
// which cancels the server-side computation.
func (c *Client) ExplainStream(ctx context.Context, dbID string, sreq StreamExplainRequest) iter.Seq2[ExplanationDTO, error] {
	return func(yield func(ExplanationDTO, error) bool) {
		raw, err := json.Marshal(sreq)
		if err != nil {
			yield(ExplanationDTO{}, err)
			return
		}
		resp, err := c.openStream(ctx, "/v1/databases/"+dbID+"/explain/stream", raw)
		if err != nil {
			yield(ExplanationDTO{}, err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			yield(ExplanationDTO{}, decodeAPIError(resp))
			return
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		sawTerminal := false
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var ev StreamEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				yield(ExplanationDTO{}, fmt.Errorf("querycaused: malformed stream event: %w", err))
				return
			}
			switch {
			case ev.Explanation != nil:
				if !yield(*ev.Explanation, nil) {
					return
				}
			case ev.Error != nil:
				yield(ExplanationDTO{}, rehydrate(ev.Error))
				return
			case ev.Done != nil:
				sawTerminal = true
			}
		}
		if err := sc.Err(); err != nil {
			yield(ExplanationDTO{}, err)
			return
		}
		if !sawTerminal {
			yield(ExplanationDTO{}, fmt.Errorf("querycaused: stream ended without a terminal event"))
		}
	}
}

// openStream POSTs raw JSON to path (resolved against the current
// base) and returns the (streaming) response, following cluster
// redirects under route's hop policy. The caller owns the response
// body.
func (c *Client) openStream(ctx context.Context, path string, raw []byte) (*http.Response, error) {
	target := c.Base() + path
	resp, routed, _, err := c.route(ctx, http.MethodPost, target, body{raw, "application/json"}, "")
	if err != nil && routed == target && ctx.Err() == nil && errors.As(err, new(*url.Error)) {
		// The node the stream entered through failed on the transport:
		// same failover policy as send. The stream is not re-sent, but
		// the next open from this client enters through a fallback base.
		c.rotateBase()
	}
	return resp, err
}

// watchMaxFailures caps consecutive failed reconnect attempts before
// a watch gives up and surfaces the last error. Any delivered frame
// resets the counter, so a long-lived watch survives any number of
// isolated interruptions.
const watchMaxFailures = 8

// WatchStream subscribes to the live explanation of one answer or
// non-answer (POST /v1/databases/{db}/watch) and returns an iterator
// over its DiffEvent frames: first a snapshot of the current ranking,
// then exactly one frame per mutation request against the session — a
// diff when the mutation can affect the watched query, an empty
// version-bump otherwise. Frames with Type "error" report a re-rank
// failure in-band (the subscription stays open and recovers with a
// full_resync), so they arrive as events with a nil iteration error.
//
// The watch is resumable: when the transport fails or the server
// closes the stream (a node died, or the session moved during a
// handoff), the client reconnects with jittered exponential backoff —
// honoring a server-sent Retry-After — and asks to resume from the
// last delivered version. The server replays the missed diff frames
// when its buffer still covers them, so the resumed stream continues
// the diff chain gaplessly; otherwise the first frame after a
// reconnect is a full_resync snapshot to fold in place of the chain.
// Reconnects rotate through SetFallbacks bases, so a watch survives
// the death of the very node it was streaming from.
//
// The sequence is single-use; breaking out of the range closes the
// subscription. A watch has no terminal event — the sequence ends
// with a non-nil error when the context is canceled, the server
// rejects the subscription outright (a non-retryable status), or
// watchMaxFailures consecutive reconnect attempts fail.
func (c *Client) WatchStream(ctx context.Context, dbID string, wreq WatchRequest) iter.Seq2[DiffEvent, error] {
	return func(yield func(DiffEvent, error) bool) {
		lastVersion := wreq.ResumeFrom
		failures := 0
		var lastErr error
		for {
			if failures > 0 {
				var retryAfter time.Duration
				var apiErr *APIError
				if errors.As(lastErr, &apiErr) {
					retryAfter = apiErr.RetryAfter
				} else {
					c.rotateBase() // transport error: the pinned node may be gone
				}
				select {
				case <-ctx.Done():
					yield(DiffEvent{}, ctx.Err())
					return
				case <-time.After(retryDelay(failures, retryAfter)):
				}
			}
			wreq.ResumeFrom = lastVersion
			delivered, done, err := c.watchOnce(ctx, dbID, wreq, &lastVersion, yield)
			if done {
				return // consumer broke out, or a terminal error was yielded
			}
			if delivered {
				failures = 0
			}
			failures++
			lastErr = err
			if ctx.Err() != nil {
				yield(DiffEvent{}, ctx.Err())
				return
			}
			var apiErr *APIError
			if errors.As(err, &apiErr) && !retryableStatus(apiErr.StatusCode) {
				yield(DiffEvent{}, err) // e.g. session dropped: reconnecting cannot help
				return
			}
			if failures >= watchMaxFailures {
				yield(DiffEvent{}, fmt.Errorf("querycaused: watch failed after %d reconnect attempts: %w", failures, err))
				return
			}
		}
	}
}

// watchOnce runs one watch connection: subscribe, deliver frames,
// track the last delivered version. done means the iteration is over
// (the consumer broke out or a terminal error was yielded); otherwise
// err says why the connection ended and the caller decides whether to
// reconnect. delivered reports whether any frame arrived, which
// resets the caller's failure counter.
func (c *Client) watchOnce(ctx context.Context, dbID string, wreq WatchRequest, lastVersion *uint64, yield func(DiffEvent, error) bool) (delivered, done bool, err error) {
	raw, err := json.Marshal(wreq)
	if err != nil {
		yield(DiffEvent{}, err)
		return false, true, nil
	}
	resp, err := c.openStream(ctx, "/v1/databases/"+dbID+"/watch", raw)
	if err != nil {
		return false, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return false, false, decodeAPIError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev DiffEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			// A malformed frame means the connection truncated mid-line or
			// the stream is corrupt; reconnect and resume rather than fail.
			return delivered, false, fmt.Errorf("querycaused: malformed watch frame: %w", err)
		}
		if !yield(ev, nil) {
			return delivered, true, nil
		}
		delivered = true
		if ev.Version > *lastVersion {
			*lastVersion = ev.Version
		}
	}
	if err := sc.Err(); err != nil {
		return delivered, false, err
	}
	return delivered, false, fmt.Errorf("querycaused: watch stream closed by the server")
}

// rehydrate turns a wire ErrorResponse into an error that matches the
// taxonomy sentinel named by its code under errors.Is, with the
// original message preserved.
func rehydrate(wire *server.ErrorResponse) error {
	err := errors.New(wire.Error)
	if s := qerr.FromCode(wire.Code); s != nil {
		return qerr.Tag(s, err)
	}
	return err
}

// Cluster fetches the server's topology. A non-clustered server
// answers 200 with an empty ClusterInfo, so callers can probe
// unconditionally; Dial uses this to pick the upload node itself and
// avoid ever being redirected.
func (c *Client) Cluster(ctx context.Context) (ClusterInfo, error) {
	var out ClusterInfo
	err := c.do(ctx, http.MethodGet, "/v1/cluster", nil, &out)
	return out, err
}

// JoinNode adds a node (by its advertised base URL) to the cluster the
// client is pinned to. The receiving node mints the next topology
// epoch, propagates it to every member including the joiner, and
// rebalances sessions in the background; propagation is best-effort
// and reported in the response. Joining is an admin operation and is
// not retried automatically.
func (c *Client) JoinNode(ctx context.Context, nodeURL string) (ClusterChange, error) {
	var out ClusterChange
	err := c.do(ctx, http.MethodPost, "/v1/cluster/nodes", server.ClusterNodeRequest{URL: nodeURL}, &out)
	return out, err
}

// RemoveNode removes a node from the cluster. The removed node is
// still told about the new topology (best-effort) so it stops serving
// sessions it no longer owns and hands them to their new owners; wait
// for its session count to drain before shutting it down.
func (c *Client) RemoveNode(ctx context.Context, nodeURL string) (ClusterChange, error) {
	var out ClusterChange
	err := c.do(ctx, http.MethodDelete, "/v1/cluster/nodes?url="+url.QueryEscape(nodeURL), nil, &out)
	return out, err
}

// Stats fetches the server's cache and admission counters.
func (c *Client) Stats(ctx context.Context) (ServerStats, error) {
	var out ServerStats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// FormatDatabase renders db in the textual format ParseDatabase reads
// (and UploadDatabase accepts). It errors on values the line-oriented
// format cannot represent (line breaks, or both quote characters).
func FormatDatabase(db *Database) (string, error) { return parser.FormatDatabase(db) }
