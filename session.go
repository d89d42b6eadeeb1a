package querycause

import (
	"context"
	"fmt"
	"iter"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/qerr"
	"github.com/querycause/querycause/internal/server"
)

// Session is the explanation API over one database: the same
// interface whether the engine runs in-process (Open) or behind a
// querycaused server (Dial). Every method is context-first, failures
// are tagged with the package's error taxonomy identically on both
// transports, and rankings — blocking, streamed, or batched — are
// byte-identical across transports and parallelism degrees.
//
// A Session is safe for concurrent use. Close releases the session;
// all later calls fail with ErrSessionClosed.
type Session interface {
	// WhySo opens the explanation of why answer ā is returned by q
	// (Definition 2.1): the database's endogenous tuples are the
	// candidate causes. Pass no answer values for a Boolean query. The
	// causes (Theorem 3.2) are computed here — always polynomial —
	// while responsibility ranking is deferred to the Ranking.
	WhySo(ctx context.Context, q *Query, answer ...Value) (Ranking, error)
	// WhyNo opens the explanation of why ā is NOT an answer: the
	// endogenous tuples are the candidate missing tuples Dⁿ, the
	// exogenous tuples the real database Dˣ (Section 2). Invalid
	// instances fail here with ErrInvalidWhyNo.
	WhyNo(ctx context.Context, q *Query, nonAnswer ...Value) (Ranking, error)
	// ExplainAll explains many answers and non-answers in one call,
	// fanned out across a worker pool. Results arrive in request
	// order; per-request failures land in BatchResult.Err without
	// aborting the rest. It returns a non-nil error only when the
	// whole batch failed (context canceled, transport down).
	ExplainAll(ctx context.Context, reqs []BatchRequest, opts ...Option) ([]BatchResult, error)
	// Insert appends tuples to the session database and returns their
	// assigned tuple ids in request order. The batch is atomic: every
	// tuple is validated (non-empty relation and arguments, consistent
	// arity) before anything is applied, so an ErrBadInstance failure
	// means the database is unchanged. A relation absent from the
	// database is created on first insert. Mutations serialize against
	// in-flight explains; Rankings opened before a mutation are stale —
	// re-open the explanation to rank against the mutated database.
	Insert(ctx context.Context, tuples ...TupleSpec) ([]TupleID, error)
	// Delete removes one tuple by id. Ids are never reused: deleting
	// an unknown or already-deleted id fails with ErrTupleNotFound,
	// and historical explanations keep rendering the removed tuple.
	// Like Insert, a delete invalidates Rankings opened before it.
	Delete(ctx context.Context, id TupleID) error
	// Watch subscribes to the live explanation of one answer (or, with
	// spec.WhyNo, one non-answer): the first frame is a snapshot of
	// the current ranking, then every mutation against the session
	// produces exactly one frame — a diff (causes added/removed, ranks
	// changed) when the mutation can affect the watched query, an
	// empty version-bump otherwise. Replaying frames with ApplyDiff
	// reconstructs, at every version, the ranking a cold Rank would
	// return, byte for byte. A failure to re-rank after a mutation
	// (e.g. a mutation that invalidates a why-no instance) arrives as
	// an in-band frame with Type "error" and a nil iteration error;
	// the subscription stays open and recovers with a full_resync
	// frame once re-ranking succeeds again. A subscriber that falls
	// more than spec.Buffer frames behind has the backlog dropped and
	// is re-seeded with a full_resync instead of a broken diff chain.
	// Invalid specs (nil query, invalid why-no instance) fail as the
	// first iteration error; otherwise the sequence ends only with a
	// non-nil error when ctx is canceled or the transport fails for
	// good. On the remote transport a broken stream reconnects with
	// backoff and resumes from the last delivered version — replaying
	// the missed diffs gap-free when the server still buffers them,
	// re-seeding with a full_resync otherwise — so a watch survives
	// node deaths and session handoffs; set spec.ResumeFrom to hand a
	// replayed state across Watch calls yourself. The sequence is
	// single-use; breaking out of the range unsubscribes.
	Watch(ctx context.Context, spec WatchSpec, opts ...Option) iter.Seq2[DiffEvent, error]
	// Close releases the session (and drops the server-side session on
	// a Dial'ed one).
	Close() error
}

// Ranking is one opened explanation: the causes of a single answer or
// non-answer, with their responsibility ranking available blocking
// (Rank) or incrementally (RankStream). Rankings are safe for
// concurrent use and remain usable after Session.Close only on the
// in-process transport; treat them as scoped to their session.
type Ranking interface {
	// Causes returns all actual causes, sorted by tuple ID (Theorem
	// 3.2). It is precomputed — no responsibility search runs.
	Causes(ctx context.Context) ([]TupleID, error)
	// Rank explains every cause, sorted by descending responsibility
	// with ties by ascending tuple ID (the paper's Fig. 2b ranking).
	// The result is byte-identical for every transport, worker count,
	// and emission order.
	Rank(ctx context.Context, opts ...Option) ([]Explanation, error)
	// RankStream yields each cause's explanation as its responsibility
	// computation completes: on the NP-hard side of the dichotomy the
	// first explanation arrives after one exact search instead of all
	// of them. The default emission order is ascending cause order
	// (deterministic); WithDeterministic(false) switches to completion
	// order. A fully drained stream holds exactly Rank's explanations
	// — sort with SortExplanations to recover the ranking order. The
	// sequence is single-use; breaking out of the range cancels the
	// remaining computation. Errors end the sequence as a final
	// (zero Explanation, err) pair.
	RankStream(ctx context.Context, opts ...Option) iter.Seq2[Explanation, error]
}

// WatchSpec names the explanation a Session.Watch subscribes to.
type WatchSpec struct {
	// Query is the watched query (required).
	Query *Query
	// Answer binds the watched answer (why-so) or non-answer (why-no);
	// empty for a Boolean query.
	Answer []Value
	// WhyNo watches a non-answer: the frames track the ranking of the
	// candidate missing tuples (the database's endogenous tuples).
	WhyNo bool
	// Buffer is the per-subscription frame buffer (default 16). A
	// subscriber that falls more than Buffer frames behind has its
	// backlog dropped and recovers with a full_resync frame.
	Buffer int
	// ResumeFrom resumes a broken watch: the version of the last frame
	// the subscriber applied. When the topic's diff buffer still covers
	// that version the stream replays the missed frames and continues
	// the chain gap-free (no snapshot frame); otherwise it starts with
	// a full_resync. Zero subscribes fresh with a snapshot. The remote
	// transport sets it automatically when reconnecting a dropped watch
	// stream; set it manually to hand a replayed state across Watch
	// calls.
	ResumeFrom uint64
}

// Open returns an in-process Session over db. While the session is in
// use the database must be mutated only through Session.Insert and
// Session.Delete, which serialize against the session's explains.
// Options set the session's defaults (mode, parallelism, timeout,
// streaming determinism); per-call options override them.
func Open(db *Database, opts ...Option) (Session, error) {
	if db == nil {
		return nil, qerr.Tag(qerr.ErrBadInstance, fmt.Errorf("querycause: Open: nil database"))
	}
	return &localSession{db: db, cfg: defaultConfig().apply(opts), watch: server.NewWatchSet()}, nil
}

// SortExplanations sorts a ranking in place into the order Rank
// returns — descending ρ, ties by ascending tuple ID. Draining
// RankStream and sorting with SortExplanations reproduces Rank
// byte-for-byte.
func SortExplanations(exps []Explanation) { core.SortExplanations(exps) }

// ApplyDiff folds one watch frame into a replayed ranking: snapshot
// and full_resync frames replace the state wholesale, diff frames
// apply removals, changes, and additions and re-sort into ranking
// order, and error frames leave the state untouched. Replaying a
// Session.Watch stream through ApplyDiff reconstructs, at every
// version, the ranking a cold Rank would return at that version.
func ApplyDiff(state []ExplanationDTO, ev DiffEvent) []ExplanationDTO {
	return server.ApplyWatchEvent(state, ev)
}

// localSession is the in-process transport: a thin, option-aware
// veneer over internal/core.
type localSession struct {
	db  *Database
	cfg config
	// dbMu serializes mutations (Insert/Delete, write-locked) against
	// engine construction, batch evaluation and a ranking's preparation
	// (read-locked) — the same discipline the server applies per
	// session. Once prepared, a ranking's solving reads only engine
	// state and needs no lock.
	dbMu   sync.RWMutex
	closed atomic.Bool
	// watch fans live-explanation frames out to Watch subscribers.
	// Insert and Delete publish through it before releasing the write
	// lock, so frames advance atomically with the database — the same
	// discipline the server applies (see internal/server WatchSet).
	watch *server.WatchSet
}

func (s *localSession) checkOpen() error {
	if s.closed.Load() {
		return qerr.Tag(qerr.ErrSessionClosed, fmt.Errorf("querycause: session is closed"))
	}
	return nil
}

func (s *localSession) WhySo(ctx context.Context, q *Query, answer ...Value) (Ranking, error) {
	return s.open(ctx, q, answer, false)
}

func (s *localSession) WhyNo(ctx context.Context, q *Query, nonAnswer ...Value) (Ranking, error) {
	return s.open(ctx, q, nonAnswer, true)
}

func (s *localSession) open(ctx context.Context, q *Query, answer []Value, whyNo bool) (Ranking, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	cctx, cancel := s.cfg.withTimeout(ctx)
	defer cancel()
	if err := cctx.Err(); err != nil {
		return nil, err
	}
	// The ranking keeps its own copy of the answer: a later Rank may
	// rebuild the engine from it.
	req := core.BatchRequest{Query: q, Answer: slices.Clone(answer), WhyNo: whyNo}
	s.dbMu.RLock()
	eng, err := core.NewRequestEngine(s.db, req)
	version := s.db.Version()
	s.dbMu.RUnlock()
	if err != nil {
		return nil, err
	}
	// Engine construction (lineage computation) is not interruptible;
	// honor a budget that expired during it the way the remote
	// transport's request deadline would.
	if err := cctx.Err(); err != nil {
		return nil, err
	}
	return &localRanking{s: s, req: req, causes: eng.Causes(), eng: eng, version: version}, nil
}

func (s *localSession) ExplainAll(ctx context.Context, reqs []BatchRequest, opts ...Option) ([]BatchResult, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	cfg := s.cfg.apply(opts)
	ctx, cancel := cfg.withTimeout(ctx)
	defer cancel()
	creqs := make([]core.BatchRequest, len(reqs))
	for i, r := range reqs {
		creqs[i] = core.BatchRequest{Query: r.Query, Answer: r.Answer, WhyNo: r.WhyNo}
	}
	s.dbMu.RLock()
	cres, err := core.ExplainBatch(ctx, s.db, creqs, core.BatchRunOptions{
		Workers: cfg.parallelism,
		Mode:    cfg.mode,
	})
	s.dbMu.RUnlock()
	if err != nil {
		return nil, err
	}
	results := make([]BatchResult, len(reqs))
	for i, r := range cres {
		results[i] = BatchResult{Request: reqs[i], Explanations: r.Explanations, Err: r.Err}
	}
	return results, nil
}

func (s *localSession) Insert(ctx context.Context, tuples ...TupleSpec) ([]TupleID, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
	if err := server.ValidateInsert(s.db, tuples); err != nil {
		return nil, err
	}
	ids := make([]TupleID, 0, len(tuples))
	rels := make(map[string]bool, len(tuples))
	for _, t := range tuples {
		args := make([]Value, len(t.Args))
		for i, a := range t.Args {
			args[i] = Value(a)
		}
		id, err := s.db.Add(t.Rel, t.Endo, args...)
		if err != nil {
			// Unreachable after ValidateInsert; surface it anyway.
			return ids, qerr.Tag(qerr.ErrBadInstance, err)
		}
		ids = append(ids, id)
		rels[t.Rel] = true
	}
	// One frame per Insert call, not per tuple — still inside the write
	// lock, so subscribers see frames in database order.
	s.watch.Fanout(s.db.Version(), rels)
	return ids, nil
}

func (s *localSession) Delete(ctx context.Context, id TupleID) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
	if !s.db.Live(id) {
		return qerr.Tag(qerr.ErrTupleNotFound, fmt.Errorf("querycause: no live tuple %d", id))
	}
	relName := s.db.RelName(id)
	if err := s.db.Delete(id); err != nil {
		return err
	}
	s.watch.Fanout(s.db.Version(), map[string]bool{relName: true})
	return nil
}

// Watch on the in-process transport subscribes directly to the
// session's WatchSet — the exact fanout machinery the server uses, so
// frame sequences are byte-identical across transports. The rank
// closure builds a cold engine per affected fanout; that stays under
// the mutation's write lock, mirroring the server's (delta-patched)
// re-rank window.
func (s *localSession) Watch(ctx context.Context, spec WatchSpec, opts ...Option) iter.Seq2[DiffEvent, error] {
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
		q := spec.Query
		answer := append([]Value(nil), spec.Answer...)
		key := watchKey(q, answer, spec.WhyNo, cfg.mode)
		rank := func() ([]ExplanationDTO, map[int]string, error) {
			// Runs under dbMu — the read side for the snapshot, the
			// mutating call's write side for fanouts — so it takes no
			// database lock and detaches from the subscriber's context.
			eng, err := core.NewRequestEngine(s.db, core.BatchRequest{Query: q, Answer: answer, WhyNo: spec.WhyNo})
			if err != nil {
				return nil, nil, err
			}
			exps, err := eng.Rank(context.Background(), cfg.mode, cfg.parallelism)
			if err != nil {
				return nil, nil, err
			}
			dtos, tuples := server.RenderRanking(s.db, exps)
			return dtos, tuples, nil
		}
		s.dbMu.RLock()
		sub, initial, err := s.watch.Subscribe(key, spec.Buffer, s.db.Version(), spec.ResumeFrom, func(relName string) bool {
			for _, a := range q.Atoms {
				if a.Pred == relName {
					return true
				}
			}
			return false
		}, rank)
		s.dbMu.RUnlock()
		if err != nil {
			yield(DiffEvent{}, err)
			return
		}
		defer s.watch.Unsubscribe(key, sub)
		emit := func(ev DiffEvent) bool { return yield(ev, nil) }
		if err := s.watch.Follow(ctx, key, sub, initial, spec.ResumeFrom, emit); err != nil {
			if err != ctx.Err() {
				err = fmt.Errorf("querycause: %w", err)
			}
			yield(DiffEvent{}, err)
		}
	}
}

// watchKey derives the local topic key: watches of the same query,
// answer, direction, and mode share one topic (and therefore one
// re-rank per mutation), exactly as on the server.
func watchKey(q *Query, answer []Value, whyNo bool, mode Mode) string {
	var b strings.Builder
	if whyNo {
		b.WriteString("no:")
	} else {
		b.WriteString("so:")
	}
	b.WriteString(mode.String())
	b.WriteByte('|')
	b.WriteString(q.String())
	for _, v := range answer {
		b.WriteByte('\x1f')
		b.WriteString(string(v))
	}
	return b.String()
}

func (s *localSession) Close() error {
	s.closed.Store(true)
	return nil
}

// localRanking is one opened explanation on the in-process transport.
// Like the remote transport, whose Rank asks the server again, it ranks
// the database as it stands when Rank is called: Causes reports the
// causes as of WhySo/WhyNo, and a Rank after a mutation rebuilds the
// engine first.
type localRanking struct {
	s      *localSession
	req    core.BatchRequest
	causes []TupleID

	// mu guards eng and version: the engine and the database version
	// (its count of mutations) that the engine was built at.
	mu      sync.Mutex
	eng     *core.Engine
	version uint64
}

// prepare returns the engine to rank in mode: the one built at open, or
// a new one when the session's database has been mutated since. Under
// the session's read lock it rebuilds the engine if need be and builds
// what the ranking reads from the database (certificate, flow network),
// so a concurrent Insert or Delete cannot rewrite the database under
// it. The solving that follows reads only engine state and runs
// unlocked: a RankStream consumer may mutate the session inside its
// loop.
func (r *localRanking) prepare(mode core.Mode) (*core.Engine, error) {
	r.s.dbMu.RLock()
	defer r.s.dbMu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if v := r.s.db.Version(); v != r.version {
		eng, err := core.NewRequestEngine(r.s.db, r.req)
		if err != nil {
			return nil, err
		}
		r.eng, r.version = eng, v
	}
	return r.eng, r.eng.Prepare(mode)
}

func (r *localRanking) Causes(ctx context.Context) ([]TupleID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return append([]TupleID(nil), r.causes...), nil
}

func (r *localRanking) Rank(ctx context.Context, opts ...Option) ([]Explanation, error) {
	cfg := r.s.cfg.apply(opts)
	ctx, cancel := cfg.withTimeout(ctx)
	defer cancel()
	eng, err := r.prepare(cfg.mode)
	if err != nil {
		return nil, err
	}
	return eng.Rank(ctx, cfg.mode, cfg.parallelism)
}

func (r *localRanking) RankStream(ctx context.Context, opts ...Option) iter.Seq2[Explanation, error] {
	cfg := r.s.cfg.apply(opts)
	return func(yield func(Explanation, error) bool) {
		ctx, cancel := cfg.withTimeout(ctx)
		defer cancel()
		eng, err := r.prepare(cfg.mode)
		if err != nil {
			yield(Explanation{}, err)
			return
		}
		for ex, err := range eng.RankStream(ctx, cfg.mode, core.StreamOptions{
			Workers:         cfg.parallelism,
			CompletionOrder: cfg.completionOrder,
		}) {
			if !yield(ex, err) {
				return
			}
		}
	}
}
