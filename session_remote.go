package querycause

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/querycause/querycause/internal/cluster"
	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/qerr"
)

// Dial opens a Session against a querycaused server: db is uploaded
// into a server-side session and every Session call becomes an HTTP
// request against it. The returned Session has the same semantics as
// Open's — identical rankings byte-for-byte, identical error
// sentinels under errors.Is — with the server's caches, admission
// control, and worker budget behind it. Close drops the server-side
// session.
//
// The tuple-ID space is shared: the upload carries db's columns (see
// Client.UploadDB), the husks of deleted tuples included, so TupleIDs
// in remote Explanations index db exactly as in-process ones do, and
// Insert and Delete keep the two in step.
//
// Against a clustered server (see cmd/querycaused -peers), Dial learns
// the topology from GET /v1/cluster and routes client-side: it uploads
// to the node the database's content hashes onto and pins the session
// there, so no request of this Session is redirected or proxied while
// the topology holds. The peer list also arms failover: when the
// pinned node stops answering (it was killed, or the session moved in
// a handoff after a membership change), requests rotate to a peer and
// follow its epoch-stamped redirect to the new owner. Topology probe
// failures are not fatal — Dial falls back to baseURL.
func Dial(ctx context.Context, baseURL string, db *Database, opts ...Option) (Session, error) {
	if db == nil {
		return nil, qerr.Tag(qerr.ErrBadInstance, fmt.Errorf("querycause: Dial: nil database"))
	}
	data, err := columnsBody(db)
	if err != nil {
		return nil, err
	}
	cfg := defaultConfig().apply(opts)
	c := NewClient(baseURL, cfg.httpClient).SetRetries(cfg.retries)
	dctx, cancel := cfg.withTimeout(ctx)
	defer cancel()
	if topo, err := c.Cluster(dctx); err == nil && len(topo.Peers) >= 2 {
		if owner := cluster.New(topo.Peers).Owner(string(data)); owner != "" && owner != c.Base() {
			c = NewClient(owner, cfg.httpClient).SetRetries(cfg.retries)
		}
		c.SetFallbacks(topo.Peers)
	}
	info, err := c.uploadColumns(dctx, data)
	if err != nil {
		return nil, err
	}
	return &remoteSession{c: c, db: db, dbID: info.ID, cfg: cfg}, nil
}

// remoteSession is the HTTP transport of the Session interface.
type remoteSession struct {
	c    *Client
	db   *Database
	dbID string
	cfg  config
	// dbMu guards the local mirror of the server-side database: Insert
	// and Delete replay every acknowledged mutation into db so the
	// shared tuple-ID space invariant (see Dial) survives mutations.
	dbMu   sync.Mutex
	closed atomic.Bool
}

func (s *remoteSession) checkOpen() error {
	if s.closed.Load() {
		return qerr.Tag(qerr.ErrSessionClosed, fmt.Errorf("querycause: session is closed"))
	}
	return nil
}

func (s *remoteSession) WhySo(ctx context.Context, q *Query, answer ...Value) (Ranking, error) {
	return s.open(ctx, q, answer, false)
}

func (s *remoteSession) WhyNo(ctx context.Context, q *Query, nonAnswer ...Value) (Ranking, error) {
	return s.open(ctx, q, nonAnswer, true)
}

// open mirrors the in-process transport's eager validation: the
// /causes endpoint parses, validates, and lineages the instance
// server-side (caching the engine), so invalid queries and invalid
// Why-No instances fail here — with the same error sentinels — and
// the later Rank or RankStream starts warm.
func (s *remoteSession) open(ctx context.Context, q *Query, answer []Value, whyNo bool) (Ranking, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	cfg := s.cfg
	cctx, cancel := cfg.withTimeout(ctx)
	defer cancel()
	resp, err := s.c.Causes(cctx, s.dbID, CausesRequest{
		Query:  q.String(),
		Answer: valueStrings(answer),
		WhyNo:  whyNo,
	})
	if err != nil {
		return nil, err
	}
	causes := make([]TupleID, len(resp.Causes))
	for i, id := range resp.Causes {
		causes[i] = TupleID(id)
	}
	return &remoteRanking{
		s:      s,
		query:  q.String(),
		answer: valueStrings(answer),
		whyNo:  whyNo,
		causes: causes,
	}, nil
}

func (s *remoteSession) ExplainAll(ctx context.Context, reqs []BatchRequest, opts ...Option) ([]BatchResult, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	cfg := s.cfg.apply(opts)
	ctx, cancel := cfg.withTimeout(ctx)
	defer cancel()
	wire := BatchExplainRequest{Mode: cfg.mode.String(), Parallelism: cfg.parallelism}
	for _, r := range reqs {
		wire.Requests = append(wire.Requests, BatchItem{
			Query:  r.Query.String(),
			Answer: valueStrings(r.Answer),
			WhyNo:  r.WhyNo,
		})
	}
	resp, err := s.c.Batch(ctx, s.dbID, wire)
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(reqs) {
		return nil, fmt.Errorf("querycaused: batch returned %d results for %d requests", len(resp.Results), len(reqs))
	}
	results := make([]BatchResult, len(reqs))
	for i, item := range resp.Results {
		results[i].Request = reqs[i]
		if item.Error != "" {
			err := errors.New(item.Error)
			if s := qerr.FromCode(item.Code); s != nil {
				err = qerr.Tag(s, err)
			}
			results[i].Err = err
			continue
		}
		results[i].Explanations = explanationsFromDTOs(item.Explanations)
	}
	return results, nil
}

// Insert sends the batch to the server and, once acknowledged, replays
// it into the local database so tuple ids stay aligned across the
// transports. A drift between the server-assigned ids and the local
// replay (possible only if the caller mutated db behind the session's
// back) is reported as an error rather than silently misaligning every
// later explanation.
func (s *remoteSession) Insert(ctx context.Context, tuples ...TupleSpec) ([]TupleID, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	cctx, cancel := s.cfg.withTimeout(ctx)
	defer cancel()
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
	resp, err := s.c.InsertTuples(cctx, s.dbID, tuples)
	if err != nil {
		return nil, err
	}
	if len(resp.TupleIDs) != len(tuples) {
		return nil, fmt.Errorf("querycaused: insert returned %d ids for %d tuples", len(resp.TupleIDs), len(tuples))
	}
	ids := make([]TupleID, len(tuples))
	for i, t := range tuples {
		args := make([]Value, len(t.Args))
		for j, a := range t.Args {
			args[j] = Value(a)
		}
		id, err := s.db.Add(t.Rel, t.Endo, args...)
		if err != nil {
			return nil, fmt.Errorf("querycause: mirroring insert locally: %w", err)
		}
		if int(id) != resp.TupleIDs[i] {
			return nil, fmt.Errorf("querycause: tuple-id drift: server assigned %d, local mirror %d — the database was mutated outside the session", resp.TupleIDs[i], id)
		}
		ids[i] = id
	}
	return ids, nil
}

// Delete removes the tuple server-side, then mirrors the deletion into
// the local database (see Insert).
func (s *remoteSession) Delete(ctx context.Context, id TupleID) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	cctx, cancel := s.cfg.withTimeout(ctx)
	defer cancel()
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
	if _, err := s.c.DeleteTuple(cctx, s.dbID, int(id)); err != nil {
		return err
	}
	if s.db.Live(id) {
		if err := s.db.Delete(id); err != nil {
			return fmt.Errorf("querycause: mirroring delete locally: %w", err)
		}
	}
	return nil
}

// Watch on the remote transport is Client.WatchStream against the
// session: the server's WatchSet performs the fanout (diff chains,
// error frames, lag recovery), so the frame sequence is byte-identical
// to the in-process transport's. WatchStream reconnects on transport
// failures and resumes from the last delivered version, so one Watch
// range survives node restarts and session handoffs.
func (s *remoteSession) Watch(ctx context.Context, spec WatchSpec, opts ...Option) iter.Seq2[DiffEvent, error] {
	cfg := s.cfg.apply(opts)
	return func(yield func(DiffEvent, error) bool) {
		if err := s.checkOpen(); err != nil {
			yield(DiffEvent{}, err)
			return
		}
		if spec.Query == nil {
			yield(DiffEvent{}, qerr.Tag(qerr.ErrBadInstance, fmt.Errorf("querycause: Watch: nil query")))
			return
		}
		ctx, cancel := cfg.withTimeout(ctx)
		defer cancel()
		for ev, err := range s.c.WatchStream(ctx, s.dbID, WatchRequest{
			Query:      spec.Query.String(),
			Answer:     valueStrings(spec.Answer),
			WhyNo:      spec.WhyNo,
			Mode:       cfg.mode.String(),
			Buffer:     spec.Buffer,
			ResumeFrom: spec.ResumeFrom,
		}) {
			if !yield(ev, err) {
				return
			}
			if err != nil {
				return
			}
		}
	}
}

// Close drops the server-side session. It uses its own short deadline
// (Close has no context); a session the server already evicted counts
// as closed, not as an error.
func (s *remoteSession) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.c.DropDatabase(ctx, s.dbID); err != nil && !errors.Is(err, qerr.ErrSessionNotFound) {
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound {
			return nil
		}
		return err
	}
	return nil
}

// remoteRanking is one opened explanation on the remote transport.
// The causes came back with the opening /causes call; Rank and
// RankStream hit the (now warm) explain endpoints.
type remoteRanking struct {
	s      *remoteSession
	query  string
	answer []string
	whyNo  bool
	causes []TupleID
}

func (r *remoteRanking) Causes(ctx context.Context) ([]TupleID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return append([]TupleID(nil), r.causes...), nil
}

func (r *remoteRanking) Rank(ctx context.Context, opts ...Option) ([]Explanation, error) {
	cfg := r.s.cfg.apply(opts)
	ctx, cancel := cfg.withTimeout(ctx)
	defer cancel()
	req := ExplainRequest{Query: r.query, Answer: r.answer, Mode: cfg.mode.String(), Parallelism: cfg.parallelism}
	var resp ExplainResponse
	var err error
	if r.whyNo {
		resp, err = r.s.c.WhyNo(ctx, r.s.dbID, "", req)
	} else {
		resp, err = r.s.c.WhySo(ctx, r.s.dbID, "", req)
	}
	if err != nil {
		return nil, err
	}
	return explanationsFromDTOs(resp.Explanations), nil
}

func (r *remoteRanking) RankStream(ctx context.Context, opts ...Option) iter.Seq2[Explanation, error] {
	cfg := r.s.cfg.apply(opts)
	return func(yield func(Explanation, error) bool) {
		ctx, cancel := cfg.withTimeout(ctx)
		defer cancel()
		for dto, err := range r.s.c.ExplainStream(ctx, r.s.dbID, StreamExplainRequest{
			Query:           r.query,
			Answer:          r.answer,
			WhyNo:           r.whyNo,
			Mode:            cfg.mode.String(),
			Parallelism:     cfg.parallelism,
			CompletionOrder: cfg.completionOrder,
		}) {
			if err != nil {
				yield(Explanation{}, err)
				return
			}
			if !yield(explanationFromDTO(dto), nil) {
				return
			}
		}
	}
}

func valueStrings(vs []Value) []string {
	if len(vs) == 0 {
		return nil
	}
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = string(v)
	}
	return out
}

// explanationFromDTO rehydrates the wire shape into the library's
// Explanation, bit-for-bit: contingencies come back as tuple IDs, and
// a cause's empty contingency is the non-nil empty slice the engine
// produces (nil is reserved for non-causes).
func explanationFromDTO(d ExplanationDTO) Explanation {
	ex := Explanation{
		Tuple:           TupleID(d.TupleID),
		Rho:             d.Rho,
		ContingencySize: d.ContingencySize,
	}
	if m, ok := core.ParseMethod(d.Method); ok {
		ex.Method = m
	}
	if d.ContingencySize >= 0 {
		ex.Contingency = make([]TupleID, 0, len(d.ContingencyIDs))
		for _, id := range d.ContingencyIDs {
			ex.Contingency = append(ex.Contingency, TupleID(id))
		}
	}
	return ex
}

func explanationsFromDTOs(dtos []ExplanationDTO) []Explanation {
	out := make([]Explanation, len(dtos))
	for i, d := range dtos {
		out[i] = explanationFromDTO(d)
	}
	return out
}
