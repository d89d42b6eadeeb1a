// Session registry and per-session caches. A session pins one uploaded
// database; the artifacts the paper proves are query-level — dichotomy
// certificates (Corollary 4.14), rewritten cause programs (Theorem
// 3.4), and per-answer engines holding the computed DNF lineage
// (Theorem 3.2) — are cached inside the session so repeated why-so /
// why-no calls skip straight to responsibility ranking.
//
// The registry is an RWMutex'd map with two eviction policies: adding
// beyond MaxSessions evicts the least-recently-used session, and a
// background reaper drops sessions idle longer than SessionTTL.
package server

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/querycause/querycause/internal/cache"
	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/rewrite"
	"github.com/querycause/querycause/internal/shape"
)

// certEntry pairs the two dichotomy certificates of one query shape.
type certEntry struct {
	sound *rewrite.Certificate
	paper *rewrite.Certificate
}

// preparedQuery is a parsed, classified, rewritten query registered
// against one session. It deliberately does not pin a certificate
// pair: certificates live in the session cache and are re-resolved per
// use, so a mutation that flips a relation's endogeneity never leaves
// a prepared query answering with a stale classification.
type preparedQuery struct {
	id      string
	key     string // canonical query string, the prepared-LRU key
	q       *rel.Query
	program string
	// dbVersion is the session database version the program was
	// generated against; a prepare hit at a newer version regenerates
	// the program (its endogeneity hints may be stale). The struct is
	// immutable after publication — regeneration swaps in a fresh one
	// under the same id — so concurrent snapshots read it lock-free.
	dbVersion uint64
}

// session is one registered database plus its caches. The database is
// mutable: explain-family handlers hold dbMu for reading around
// everything that evaluates over db (engine construction, ranking, DTO
// rendering), and the mutation handlers hold it for writing while they
// insert/delete tuples and invalidate the touched explanation state —
// so any number of explains evaluate concurrently and mutations
// serialize against them.
type session struct {
	id string
	// identity tells this session from another minted under the same id
	// by a different node (persist.Snapshot.Identity); 0 when restored
	// from a snapshot that predates it.
	identity uint64
	db       *rel.Database
	endo     int // endogenous tuple count; guarded by dbMu
	created  time.Time
	lastUsed atomic.Int64 // unix nanos
	// inflight counts requests currently inside a handler for this
	// session (explains and mutations): the per-session fairness budget
	// sheds above it, and the eviction paths refuse to drop a session
	// with in-flight work.
	inflight atomic.Int64
	// moved marks a session frozen for handoff to another cluster node:
	// mutation handlers answer 503 + Retry-After instead of applying
	// (the snapshot in flight must stay the final word), reads may
	// still serve. Set under dbMu's write lock so no mutation straddles
	// the freeze.
	moved atomic.Bool

	// dbMu is the database mutation lock (see the type comment).
	dbMu sync.RWMutex

	// idem / idemOrder are the mutation dedup cache (Idempotency-Key →
	// stored response body, FIFO-bounded by idemCacheSize). Guarded by
	// dbMu: entries are written under the mutation's write lock, so a
	// snapshot reading them under the read lock always sees a dedup
	// record if and only if it sees the mutation's effect.
	idem      map[string][]byte
	idemOrder []string

	// watch is the live-explanation subscription registry; mutation
	// handlers fan frames out through it before releasing dbMu. noDelta
	// disables the delta-maintenance layer for this session (set from
	// Config.DisableDelta), forcing every invalidation cold.
	watch   *WatchSet
	noDelta bool

	// mu guards byID and nextQ; prepMu serializes prepare so concurrent
	// identical prepares dedup to one id. Lock order: prepMu, then the
	// prepared LRU's internal lock, then mu (the LRU's onEvict takes mu;
	// never call into prepared while holding mu).
	mu     sync.RWMutex
	byID   map[string]*preparedQuery
	nextQ  int
	prepMu sync.Mutex

	// prepared dedups and bounds the registered queries (key: canonical
	// query string); certs caches certificate pairs by exact bound-query
	// shape (see shapeKeyOf); engines caches per-answer engines, whose
	// construction dominates a cold explain (lineage computation).
	prepared *cache.LRU[string, *preparedQuery]
	certs    *cache.LRU[string, *certEntry]
	engines  *cache.LRU[string, *core.Engine]
}

func (s *session) touch(now time.Time) { s.lastUsed.Store(now.UnixNano()) }

func (s *session) idle(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, s.lastUsed.Load()))
}

func (s *session) preparedCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byID)
}

func (s *session) lookupQuery(id string) (*preparedQuery, bool) {
	s.mu.RLock()
	pq, ok := s.byID[id]
	s.mu.RUnlock()
	if ok {
		// Refresh recency so explain traffic keeps its query registered.
		s.prepared.Get(pq.key)
	}
	return pq, ok
}

// idemCacheSize bounds the per-session mutation dedup cache: the
// responses of the last 256 keyed mutations replay verbatim on retry.
const idemCacheSize = 256

// rememberIdem records a keyed mutation's response for replay on
// retry, FIFO-evicting beyond idemCacheSize. Caller holds dbMu's write
// lock (the same lock the mutation applied under, so dedup records and
// their effects are atomic to snapshots).
func (s *session) rememberIdem(key string, resp []byte) {
	if _, dup := s.idem[key]; dup {
		return
	}
	s.idem[key] = resp
	s.idemOrder = append(s.idemOrder, key)
	for len(s.idemOrder) > idemCacheSize {
		delete(s.idem, s.idemOrder[0])
		s.idemOrder = s.idemOrder[1:]
	}
}

// endoFn is core.EndoFn on the session database: the exact rule the
// engine classifies under, so cached certificates are the ones the
// engine would compute itself.
func (s *session) endoFn() func(string) bool {
	return core.EndoFn(s.db)
}

// shapeKeyOf renders the exact structure of q with its head variables
// treated as bound constants: relation names and atom order are
// preserved, non-head variables are numbered by first occurrence, and
// constants (including head variables, which answer binding turns into
// constants) collapse to '#'. Queries with equal keys have identical
// bound shapes, so their dichotomy certificates are interchangeable —
// one cached certificate serves every answer of a query.
func shapeKeyOf(q *rel.Query) string {
	headVars := make(map[string]bool, len(q.Head))
	for _, t := range q.Head {
		if t.IsVar {
			headVars[t.Var] = true
		}
	}
	ids := make(map[string]int)
	var b strings.Builder
	for _, a := range q.Atoms {
		b.WriteString(a.Pred)
		b.WriteByte('(')
		for _, t := range a.Terms {
			if t.IsVar && !headVars[t.Var] {
				id, ok := ids[t.Var]
				if !ok {
					id = len(ids)
					ids[t.Var] = id
				}
				fmt.Fprintf(&b, "v%d,", id)
			} else {
				b.WriteString("#,")
			}
		}
		b.WriteString(")|")
	}
	return b.String()
}

// boundShape builds the classification shape of q as seen after answer
// binding: head variables become constants (their values are
// immaterial to classification), everything else is untouched. The
// substitution uses one placeholder per distinct head variable, so
// repeated head variables (q(x,x) :- …) and head constants — which
// Query.Bind would reject for distinct placeholder values — are
// handled exactly like a real consistent answer binding.
func (s *session) boundShape(q *rel.Query) *shape.Shape {
	bq := q
	if len(q.Head) > 0 {
		subst := make(map[string]rel.Value)
		for _, h := range q.Head {
			if h.IsVar {
				if _, ok := subst[h.Var]; !ok {
					subst[h.Var] = rel.Value(fmt.Sprintf("\x00ph%d", len(subst)))
				}
			}
		}
		out := &rel.Query{Name: q.Name}
		for _, a := range q.Atoms {
			na := rel.Atom{Pred: a.Pred, Terms: make([]rel.Term, len(a.Terms))}
			for i, t := range a.Terms {
				if t.IsVar {
					if v, ok := subst[t.Var]; ok {
						na.Terms[i] = rel.C(v)
						continue
					}
				}
				na.Terms[i] = t
			}
			out.Atoms = append(out.Atoms, na)
		}
		bq = out
	}
	return shape.FromQuery(bq, s.endoFn())
}

// certsFor returns the certificate pair for q's bound shape, computing
// and caching it on miss. The second return reports a cache hit (the
// classification search was skipped).
func (s *session) certsFor(q *rel.Query) (*certEntry, bool, error) {
	key := shapeKeyOf(q)
	if ce, ok := s.certs.Get(key); ok {
		return ce, true, nil
	}
	sh := s.boundShape(q)
	sound, err := rewrite.ClassifySound(sh)
	if err != nil {
		return nil, false, err
	}
	paper, err := rewrite.Classify(sh)
	if err != nil {
		return nil, false, err
	}
	ce := &certEntry{sound: sound, paper: paper}
	s.certs.Put(key, ce)
	return ce, false, nil
}

// queryKey names a query in the engine cache: a prepared query by its
// id, an inline one by its shape key and canonical text.
func queryKey(q *rel.Query, qID string) string {
	if qID != "" {
		return qID
	}
	return shapeKeyOf(q) + "\x1f" + q.String()
}

// engineKey identifies one (query, answer, why) engine in the session
// cache. Values are length-prefixed so no answer — including ones
// containing separator bytes — can collide with another (JSON requests
// may carry arbitrary strings).
func engineKey(qkey string, answer []rel.Value, whyNo bool) string {
	var b strings.Builder
	if whyNo {
		b.WriteString("no:")
	} else {
		b.WriteString("so:")
	}
	fmt.Fprintf(&b, "%d:%s", len(qkey), qkey)
	for _, v := range answer {
		fmt.Fprintf(&b, "%d:%s", len(v), v)
	}
	return b.String()
}

// engineFor resolves the engine for one explain: per-answer engine
// cache first (hit: lineage and causes already computed), then
// construction primed with the cached certificate pair. It reports
// whether the engine and the certificate were cache hits.
func (s *session) engineFor(q *rel.Query, qID string, answer []rel.Value, whyNo bool) (eng *core.Engine, engineHit, certHit bool, err error) {
	ekey := engineKey(queryKey(q, qID), answer, whyNo)
	if eng, ok := s.engines.Get(ekey); ok {
		return eng, true, true, nil
	}
	certs, certHit, err := s.certsFor(q)
	if err != nil {
		return nil, false, false, err
	}
	eng, err = core.NewRequestEngine(s.db, core.BatchRequest{Query: q, Answer: answer, WhyNo: whyNo})
	if err != nil {
		return nil, false, certHit, err
	}
	eng.Prime(certs.sound, certs.paper)
	s.engines.Put(ekey, eng)
	return eng, false, certHit, nil
}

// registry is the RWMutex'd session store.
type registry struct {
	mu       sync.RWMutex
	sessions map[string]*session
	nextID   int
	evicted  atomic.Uint64

	maxSessions int
	preparedCap int
	certCap     int
	engineCap   int
	clock       func() time.Time

	// disableDelta turns off delta maintenance for every session minted
	// or restored by this registry (Config.DisableDelta).
	disableDelta bool

	// owns, when non-nil (cluster mode), reports whether this node owns
	// a session id on the consistent-hash ring; add mints ids the node
	// owns so creators serve their own sessions without redirects.
	owns func(id string) bool

	// retired accumulates cache counters of evicted sessions so /v1/stats
	// totals survive eviction.
	retiredMu     sync.Mutex
	retiredCerts  cache.Stats
	retiredEngine cache.Stats
}

func newRegistry(maxSessions, preparedCap, certCap, engineCap int, clock func() time.Time) *registry {
	return &registry{
		sessions:    make(map[string]*session),
		maxSessions: maxSessions,
		preparedCap: preparedCap,
		certCap:     certCap,
		engineCap:   engineCap,
		clock:       clock,
	}
}

// add registers a database, evicting the least-recently-used session
// when the registry is full.
func (r *registry) add(db *rel.Database) *session {
	now := r.clock()
	endo := db.NumEndo()
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.sessions) >= r.maxSessions && r.evictLRULocked() {
	}
	r.nextID++
	id := fmt.Sprintf("d%d", r.nextID)
	if r.owns != nil && !r.owns(id) {
		// Pick-until-self: salt the id until it hashes onto this node.
		// Expected tries ≈ cluster size; the bound only guards against a
		// misconfigured ring that can never map here.
		for salt := 1; salt <= 1<<20; salt++ {
			if cand := fmt.Sprintf("d%d-%d", r.nextID, salt); r.owns(cand) {
				id = cand
				break
			}
		}
	}
	s := &session{
		id:       id,
		identity: rand.Uint64(),
		db:       db,
		endo:     endo,
		created:  now,
		watch:    NewWatchSet(),
		noDelta:  r.disableDelta,
		byID:     make(map[string]*preparedQuery),
		idem:     make(map[string][]byte),
		certs:    cache.New[string, *certEntry](r.certCap, nil),
		engines:  cache.New[string, *core.Engine](r.engineCap, nil),
	}
	s.prepared = cache.New[string, *preparedQuery](r.preparedCap, func(_ string, pq *preparedQuery) {
		s.mu.Lock()
		delete(s.byID, pq.id)
		s.mu.Unlock()
	})
	s.touch(now)
	r.sessions[s.id] = s
	return s
}

// get returns the named session and touches its idle clock.
func (r *registry) get(id string) (*session, bool) {
	r.mu.RLock()
	s, ok := r.sessions[id]
	r.mu.RUnlock()
	if ok {
		s.touch(r.clock())
	}
	return s, ok
}

// remove drops a session explicitly.
func (r *registry) remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	if !ok {
		return false
	}
	r.retireLocked(s)
	delete(r.sessions, id)
	return true
}

// evictLRULocked drops the session with the oldest lastUsed time among
// the ones with no in-flight work, reporting whether a victim was
// found. Sessions with requests inside a handler are never evicted: a
// long exact-mode explain must not have its session (and snapshot)
// ripped out from under it. When every session is busy the registry
// temporarily exceeds MaxSessions — bounded by the number of busy
// sessions — instead of evicting live work.
func (r *registry) evictLRULocked() bool {
	var victim *session
	for _, s := range r.sessions {
		if s.inflight.Load() > 0 {
			continue
		}
		if victim == nil || s.lastUsed.Load() < victim.lastUsed.Load() {
			victim = s
		}
	}
	if victim == nil {
		return false
	}
	r.retireLocked(victim)
	delete(r.sessions, victim.id)
	r.evicted.Add(1)
	return true
}

// evictIdle drops every session idle longer than ttl; the background
// reaper calls it periodically. It returns the evicted session ids.
// Sessions with in-flight work are deferred to a later sweep even if
// their idle clock expired (the clock only ticks on request entry, so
// a request that outlives the TTL would otherwise race its own
// session's teardown).
func (r *registry) evictIdle(ttl time.Duration) []string {
	now := r.clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for id, s := range r.sessions {
		if s.inflight.Load() > 0 {
			continue
		}
		if s.idle(now) > ttl {
			r.retireLocked(s)
			delete(r.sessions, id)
			r.evicted.Add(1)
			out = append(out, id)
		}
	}
	return out
}

// retireLocked folds a departing session's cache counters into the
// retired totals.
func (r *registry) retireLocked(s *session) {
	cs, es := s.certs.Stats(), s.engines.Stats()
	r.retiredMu.Lock()
	r.retiredCerts.Hits += cs.Hits
	r.retiredCerts.Misses += cs.Misses
	r.retiredCerts.Evictions += cs.Evictions
	r.retiredEngine.Hits += es.Hits
	r.retiredEngine.Misses += es.Misses
	r.retiredEngine.Evictions += es.Evictions
	r.retiredMu.Unlock()
}

// len returns the live session count.
func (r *registry) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sessions)
}

// list snapshots the live sessions sorted by id.
func (r *registry) list() []*session {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*session, 0, len(r.sessions))
	for _, s := range r.sessions {
		out = append(out, s)
	}
	return out
}

// cacheStats aggregates cert and engine cache counters across live and
// retired sessions.
func (r *registry) cacheStats() (certs, engines cache.Stats) {
	r.retiredMu.Lock()
	certs, engines = r.retiredCerts, r.retiredEngine
	r.retiredMu.Unlock()
	for _, s := range r.list() {
		cs, es := s.certs.Stats(), s.engines.Stats()
		certs.Hits += cs.Hits
		certs.Misses += cs.Misses
		certs.Evictions += cs.Evictions
		certs.Len += cs.Len
		certs.Capacity += cs.Capacity
		engines.Hits += es.Hits
		engines.Misses += es.Misses
		engines.Evictions += es.Evictions
		engines.Len += es.Len
		engines.Capacity += es.Capacity
	}
	return certs, engines
}

// prepare classifies and registers a query, generating the cause
// program only on a miss. Preparing a textually identical query
// returns the existing registration; the registry is a bounded LRU, so
// a client looping distinct prepares recycles old ids instead of
// growing server memory. The certificate pair is re-resolved through
// the session cache on every call (cheap when cached), so a prepared
// hit after a mutation that invalidated the shape's certificates
// reports the fresh classification, exactly like a cold server would.
func (s *session) prepare(q *rel.Query, genProgram func() string) (*preparedQuery, *certEntry, bool, error) {
	key := q.String()
	s.prepMu.Lock()
	defer s.prepMu.Unlock()
	certs, hit, err := s.certsFor(q)
	if err != nil {
		return nil, nil, false, err
	}
	if pq, ok := s.prepared.Get(key); ok {
		if v := s.db.Version(); v != pq.dbVersion {
			// The database mutated since the program was generated: its
			// endogeneity hints (causegen.HintsFromDB) may be stale.
			// Re-register under the same id with a fresh program, so a
			// re-prepare answers exactly like a cold server at this
			// version. Put displaces the old entry (its onEvict removes
			// the shared id from byID), so byID is repointed after.
			pq = &preparedQuery{id: pq.id, key: key, q: pq.q, program: genProgram(), dbVersion: v}
			s.prepared.Put(key, pq)
			s.mu.Lock()
			s.byID[pq.id] = pq
			s.mu.Unlock()
		}
		return pq, certs, hit, nil
	}
	s.mu.Lock()
	s.nextQ++
	pq := &preparedQuery{
		id:        fmt.Sprintf("q%d", s.nextQ),
		key:       key,
		q:         q,
		program:   genProgram(),
		dbVersion: s.db.Version(),
	}
	s.byID[pq.id] = pq
	s.mu.Unlock()
	s.prepared.Put(key, pq)
	return pq, certs, hit, nil
}
