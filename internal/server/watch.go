// Live explanations: POST /v1/databases/{db}/watch subscribes to one
// answer (or why-no non-answer) and streams NDJSON DiffEvent frames as
// the session database mutates. The first frame is a full snapshot of
// the current ranking; every subsequent mutation request produces
// exactly one frame per subscription — a diff (causes added/removed,
// ranks changed) when the watched query mentions a mutated relation,
// an empty version-bump diff otherwise — so a client replaying frames
// reconstructs, at every version, the exact ranking a cold explain
// would return.
//
// The fanout side lives in WatchSet, shared by the HTTP server and the
// in-process transport (the module root) so both expose identical
// semantics: ranks are recomputed per affected topic inside the
// mutation's write-lock window (the delta-maintenance layer in
// internal/delta keeps that cheap), diffed against the topic's last
// published ranking, and published through a watch.Hub. Slow consumers
// never block a mutation: a subscriber whose buffer is full is marked
// lagged and its stream recovers with a full_resync frame instead of a
// broken diff chain.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/qerr"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/watch"
)

// WatchSet is the per-session subscription registry: one topic per
// watched (query, answer, why, mode) key, fanned out through a hub.
// Every mutation calls Fanout under the session's database write lock,
// so topic state (last ranking, version) advances atomically with the
// database and two subscribers of one topic always see the same frame
// sequence.
type WatchSet struct {
	mu     sync.Mutex
	topics map[string]*watchTopic
	hub    *watch.Hub[WatchEvent]
}

// watchReplayBuffer bounds each topic's ring of recent frames — the
// diff buffer a resuming subscriber (resume_from) replays from. 64
// frames cover 64 mutation requests of disconnection; older resumes
// recover with a full_resync.
const watchReplayBuffer = 64

// maxRetainedTopics bounds the subscriber-less topics a session keeps
// alive so a disconnected watcher can resume its diff chain instead of
// paying a full_resync. Beyond the cap, a topic whose last subscriber
// leaves is dropped immediately.
const maxRetainedTopics = 32

// defaultWatchBuffer is a subscriber's frame queue when the request
// names none. Every mutation request queues one frame, so 16 absorbs a
// burst of writes before the subscriber lags and must resync.
const defaultWatchBuffer = 16

// watchTopic is the fanout state of one watched explanation.
type watchTopic struct {
	// mentions reports whether the watched query reads relName — the
	// conservative affected-check deciding whether a mutation re-ranks.
	mentions func(relName string) bool
	// rank recomputes the full current ranking and its tuple table; it
	// runs under the mutating request's write lock (or the subscriber's
	// read lock, for the initial snapshot), so it must not take the
	// database lock.
	rank func() ([]ExplanationDTO, map[int]string, error)
	refs int
	// version is the database version the topic last published at; last
	// is the ranking at that version and tuples its tuple table (always
	// current, so resyncs and second subscribers never recompute or
	// render). lastErr, when non-nil, is the error state the topic is in;
	// the next successful re-rank recovers with a full_resync frame.
	version uint64
	last    []ExplanationDTO
	tuples  map[int]string
	lastErr *ErrorResponse
	// recent is the bounded ring of frames published since floor, oldest
	// first; a subscriber resuming from a version >= floor replays the
	// retained frames after it and rejoins the live chain gap-free.
	recent []WatchEvent
	floor  uint64
}

// remember appends a published frame to the replay ring, advancing the
// resume floor as old frames age out. Aged-out frames are copied down
// over rather than resliced away, so the ring's backing array never
// keeps more than watchReplayBuffer+1 frames reachable.
func (t *watchTopic) remember(ev WatchEvent) {
	if t.recent == nil {
		t.recent = make([]WatchEvent, 0, watchReplayBuffer+1)
	}
	t.recent = append(t.recent, ev)
	if len(t.recent) > watchReplayBuffer {
		t.floor = t.recent[0].Version
		n := copy(t.recent, t.recent[1:])
		t.recent[n] = WatchEvent{}
		t.recent = t.recent[:n]
	}
}

// initialFrames selects a new subscriber's first frames. A fresh
// subscription (resumeFrom 0) gets the current-state snapshot. A
// resume whose version the diff buffer still covers gets the retained
// frames after it — possibly none, when it is already current — and
// rejoins the live chain with no client-visible break in the version
// sequence. Anything else (resumed past the buffer, onto a fresh
// topic at a different version, or from the future) gets a
// full_resync.
func (t *watchTopic) initialFrames(resumeFrom uint64) []WatchEvent {
	switch {
	case resumeFrom == 0:
		return []WatchEvent{t.snapshot("snapshot")}
	case t.lastErr == nil && resumeFrom >= t.floor && resumeFrom <= t.version:
		var out []WatchEvent
		for _, ev := range t.recent {
			if ev.Version > resumeFrom {
				out = append(out, ev)
			}
		}
		return out
	default:
		return []WatchEvent{t.snapshot("full_resync")}
	}
}

// NewWatchSet builds an empty subscription registry.
func NewWatchSet() *WatchSet {
	return &WatchSet{topics: make(map[string]*watchTopic), hub: watch.NewHub[WatchEvent]()}
}

// Active reports the live subscription count (the watch-budget gauge).
func (ws *WatchSet) Active() int64 { return ws.hub.Active() }

// Subscribe registers a subscriber on key, creating the topic on first
// use (which computes the initial ranking via rank — the only eager
// work; a second subscriber reuses the topic's current state). It
// returns the subscription and the initial frames to emit first: a
// snapshot for a fresh subscription, the retained diff frames after
// resumeFrom for a resume the diff buffer still covers (possibly
// none), or a single full_resync when the resume point is gone. A
// buffer ≤ 0 queues defaultWatchBuffer frames. An error means the
// fresh topic's initial ranking failed; nothing was registered.
func (ws *WatchSet) Subscribe(key string, buffer int, version uint64, resumeFrom uint64, mentions func(string) bool, rank func() ([]ExplanationDTO, map[int]string, error)) (*watch.Sub[WatchEvent], []WatchEvent, error) {
	if buffer <= 0 {
		buffer = defaultWatchBuffer
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	t, ok := ws.topics[key]
	if !ok {
		ranking, tuples, err := rank()
		if err != nil {
			return nil, nil, err
		}
		t = &watchTopic{mentions: mentions, rank: rank, version: version, floor: version, last: ranking, tuples: tuples}
		ws.topics[key] = t
	}
	t.refs++
	sub := ws.hub.Subscribe(key, buffer)
	return sub, t.initialFrames(resumeFrom), nil
}

// Follow delivers a subscription's frames to emit: the initial frames
// Subscribe returned, then each live frame, until emit returns false
// (nil), ctx ends (ctx.Err()), or the subscription or its topic goes
// away (an error). A subscriber that lagged discards what is still
// buffered, which predates the drop, and continues from a full_resync
// of the topic's current state; a frame no newer than the last one
// delivered was superseded by such a resync and is skipped. resumeFrom
// is the version the subscriber already holds.
func (ws *WatchSet) Follow(ctx context.Context, key string, sub *watch.Sub[WatchEvent], initial []WatchEvent, resumeFrom uint64, emit func(WatchEvent) bool) error {
	last := resumeFrom
	for _, ev := range initial {
		if !emit(ev) {
			return nil
		}
		last = ev.Version
	}
	for {
		var ev WatchEvent
		var ok bool
		select {
		case <-ctx.Done():
			return ctx.Err()
		case ev, ok = <-sub.C():
		}
		if !ok {
			return errWatchClosed
		}
		if sub.TakeLag() {
			for drained := false; !drained; {
				select {
				case _, ok := <-sub.C():
					if !ok {
						return errWatchClosed
					}
				default:
					drained = true
				}
			}
			if ev, ok = ws.Resync(key); !ok {
				return errWatchDropped
			}
		} else if ev.Version <= last {
			continue
		}
		if !emit(ev) {
			return nil
		}
		last = ev.Version
	}
}

var (
	errWatchClosed  = errors.New("watch subscription closed")
	errWatchDropped = errors.New("watch topic dropped")
)

// Unsubscribe closes sub. The topic survives its last subscriber
// (bounded by maxRetainedTopics) so that subscriber can come back with
// resume_from and replay the frames it missed instead of paying a
// full re-rank.
func (ws *WatchSet) Unsubscribe(key string, sub *watch.Sub[WatchEvent]) {
	sub.Close()
	ws.mu.Lock()
	defer ws.mu.Unlock()
	t, ok := ws.topics[key]
	if !ok {
		return
	}
	if t.refs--; t.refs > 0 {
		return
	}
	retained := 0
	for _, other := range ws.topics {
		if other.refs <= 0 {
			retained++
		}
	}
	if retained > maxRetainedTopics {
		delete(ws.topics, key)
	}
}

// CloseAll ends every subscription and drops all topics. Session
// handoff calls it on the old owner so watch handlers end their
// streams and the clients reconnect — to the new owner — with
// resume_from.
func (ws *WatchSet) CloseAll() {
	ws.mu.Lock()
	ws.topics = make(map[string]*watchTopic)
	ws.mu.Unlock()
	ws.hub.CloseAll()
}

// snapshot renders the topic's current state as a full-state frame:
// typ is "snapshot" for a fresh subscriber, "full_resync" for a lagged
// one. A topic in error state re-reports the error instead.
func (t *watchTopic) snapshot(typ string) WatchEvent {
	if t.lastErr != nil {
		return WatchEvent{Type: "error", Version: t.version, Error: t.lastErr}
	}
	return WatchEvent{Type: typ, Version: t.version, Ranking: t.last, Tuples: t.tuples}
}

// Resync returns a full-state frame for key, for consumers that lagged
// (dropped frames) and must abandon their diff chain. ok=false means
// the topic is gone.
func (ws *WatchSet) Resync(key string) (WatchEvent, bool) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	t, ok := ws.topics[key]
	if !ok {
		return WatchEvent{}, false
	}
	return t.snapshot("full_resync"), true
}

// Fanout publishes one frame per topic for a mutation that left the
// database at version having touched the given relations. Topics whose
// query mentions a touched relation are re-ranked and diffed; the rest
// get an empty version-bump diff, so every subscriber sees exactly one
// frame per mutation request and can prove liveness. Caller holds the
// session's database write lock. It returns the number of frames
// buffered to subscribers.
func (ws *WatchSet) Fanout(version uint64, rels map[string]bool) int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	delivered := 0
	for key, t := range ws.topics {
		affected := false
		for r := range rels {
			if t.mentions(r) {
				affected = true
				break
			}
		}
		if affected && t.refs <= 0 {
			// A retained (subscriber-less) topic would need a re-rank here to
			// stay resumable — explain-sized work inside the mutation's write
			// lock, with nobody listening. Drop it instead; a later resume
			// recovers with a full_resync.
			delete(ws.topics, key)
			continue
		}
		var ev WatchEvent
		switch {
		case !affected:
			t.version = version
			ev = WatchEvent{Type: "diff", Version: version}
		default:
			ranking, tuples, err := t.rank()
			switch {
			case err != nil:
				t.version = version
				t.lastErr = &ErrorResponse{Error: err.Error(), Code: qerr.CodeOf(err)}
				ev = WatchEvent{Type: "error", Version: version, Error: t.lastErr}
			case t.lastErr != nil:
				// Recovery from error state: the last good ranking is too old
				// to diff against, so re-seed subscribers wholesale.
				t.lastErr = nil
				t.last, t.tuples, t.version = ranking, tuples, version
				ev = WatchEvent{Type: "full_resync", Version: version, Ranking: ranking, Tuples: tuples}
			default:
				added, removed, changed := DiffRankings(t.last, ranking)
				t.last, t.tuples, t.version = ranking, tuples, version
				ev = WatchEvent{Type: "diff", Version: version, CausesAdded: added, CausesRemoved: removed, RankChanged: changed,
					Tuples: diffTuples(tuples, added, changed)}
			}
		}
		t.remember(ev)
		delivered += ws.hub.Publish(key, ev)
	}
	return delivered
}

// DiffRankings computes the frame payload turning the old ranking into
// the new one: causes present only in new, tuple ids present only in
// old, and causes present in both whose explanation changed (rho,
// contingency, or method). Replaying removed → changed → added over
// old and re-sorting by descending rho then ascending tuple id — the
// ranking order every endpoint uses — reconstructs new exactly; the
// difftest harness holds that replay byte-equal to a cold ranking.
func DiffRankings(old, new []ExplanationDTO) (added []ExplanationDTO, removed []int, changed []RankChangeDTO) {
	prev := make(map[int]ExplanationDTO, len(old))
	for _, d := range old {
		prev[d.TupleID] = d
	}
	next := make(map[int]bool, len(new))
	for _, d := range new {
		next[d.TupleID] = true
		o, ok := prev[d.TupleID]
		switch {
		case !ok:
			added = append(added, d)
		case !equalExplanationDTO(o, d):
			changed = append(changed, RankChangeDTO{TupleID: d.TupleID, OldRho: o.Rho, NewRho: d.Rho, New: d})
		}
	}
	for _, d := range old {
		if !next[d.TupleID] {
			removed = append(removed, d.TupleID)
		}
	}
	return added, removed, changed
}

// ApplyWatchEvent folds one frame into a replayed ranking: snapshot
// and full_resync frames replace the state wholesale, diff frames
// apply removals, changes, and additions and re-sort by descending
// rho then ascending tuple id (the order every ranking endpoint
// emits), and error frames leave the state untouched (the caller
// inspects ev.Error). Replaying a watch stream through this function
// reconstructs, at every version, the exact ranking a cold explain
// would return — the invariant the difftest harness checks.
func ApplyWatchEvent(state []ExplanationDTO, ev WatchEvent) []ExplanationDTO {
	switch ev.Type {
	case "snapshot", "full_resync":
		return append([]ExplanationDTO(nil), ev.Ranking...)
	case "diff":
		drop := make(map[int]bool, len(ev.CausesRemoved))
		for _, id := range ev.CausesRemoved {
			drop[id] = true
		}
		change := make(map[int]ExplanationDTO, len(ev.RankChanged))
		for _, c := range ev.RankChanged {
			change[c.TupleID] = c.New
		}
		next := make([]ExplanationDTO, 0, len(state)+len(ev.CausesAdded))
		for _, d := range state {
			if drop[d.TupleID] {
				continue
			}
			if nd, ok := change[d.TupleID]; ok {
				d = nd
			}
			next = append(next, d)
		}
		next = append(next, ev.CausesAdded...)
		sort.Slice(next, func(i, j int) bool {
			if next[i].Rho != next[j].Rho {
				return next[i].Rho > next[j].Rho
			}
			return next[i].TupleID < next[j].TupleID
		})
		return next
	}
	return state
}

// diffTuples restricts a ranking's tuple table to the tuples a diff
// frame's explanations name.
func diffTuples(all map[int]string, added []ExplanationDTO, changed []RankChangeDTO) map[int]string {
	var out map[int]string
	pick := func(d ExplanationDTO) {
		for _, id := range d.ContingencyIDs {
			if out == nil {
				out = make(map[int]string)
			}
			out[id] = all[id]
		}
	}
	for _, d := range added {
		pick(d)
	}
	for _, c := range changed {
		pick(c.New)
	}
	return out
}

func equalExplanationDTO(a, b ExplanationDTO) bool {
	return a.TupleID == b.TupleID && a.Tuple == b.Tuple && a.Rho == b.Rho &&
		a.ContingencySize == b.ContingencySize && a.Method == b.Method &&
		slices.Equal(a.ContingencyIDs, b.ContingencyIDs)
}

// queryMentions reports whether q has an atom over relName — the
// conservative affected-check for watch fanout. (Conservative is safe:
// re-ranking an unaffected topic reproduces the identical ranking and
// diffs to an empty frame.)
func queryMentions(q *rel.Query, relName string) bool {
	for _, a := range q.Atoms {
		if a.Pred == relName {
			return true
		}
	}
	return false
}

func errWatchBudget(sess *session, budget int) error {
	return qerr.Tag(qerr.ErrBudgetExceeded, fmt.Errorf("session %s over its watch budget (%d subscriptions)", sess.id, budget))
}

// handleWatch serves POST /v1/databases/{db}/watch: an NDJSON stream
// of WatchEvent frames, starting with a snapshot of the current
// ranking and then one frame per mutation request until the client
// disconnects. The subscription holds the session's in-flight count
// (never evict a session under a live watch) but not the explain
// fairness budget — watches are long-lived and budgeted separately by
// Config.WatchBudget.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	sess, ok := s.sessionOf(w, r)
	if !ok {
		return
	}
	sess.inflight.Add(1)
	defer sess.inflight.Add(-1)
	var req WatchRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeError(w, bodyStatus(err), "%v", err)
		return
	}
	mode, err := core.ParseMode(req.Mode)
	if err != nil {
		writeErr(w, err)
		return
	}
	if b := s.cfg.WatchBudget; b > 0 && sess.watch.Active() >= int64(b) {
		s.sessionSheds.Add(1)
		writeErr(w, errWatchBudget(sess, b))
		return
	}
	// Resolve the topic and compute the initial ranking under the read
	// lock, so the snapshot is consistent with the version it reports
	// and no mutation fans out between them.
	sess.dbMu.RLock()
	q, qID, err := s.resolveQuery(sess, req.QueryID, req.Query)
	if err != nil {
		sess.dbMu.RUnlock()
		writeErr(w, err)
		return
	}
	answer := toValues(req.Answer)
	key := engineKey(queryKey(q, qID), answer, req.WhyNo) + "|" + mode.String()
	rank := func() ([]ExplanationDTO, map[int]string, error) {
		// Runs under dbMu (read side for the snapshot, the mutating
		// request's write side for fanouts), so it takes no database lock
		// and detaches from the subscriber's request context. An engine
		// that survived the mutation answers from its ranking memo.
		eng, _, _, err := sess.engineFor(q, qID, answer, req.WhyNo)
		if err != nil {
			return nil, nil, err
		}
		exps, err := eng.Rank(context.Background(), mode, s.clampWorkers(0))
		if err != nil {
			return nil, nil, err
		}
		dtos, tuples := RenderRanking(sess.db, exps)
		return dtos, tuples, nil
	}

	// The initial ranking of a fresh topic is explain-sized work; run it
	// under the worker budget like any other explain.
	actx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	release, ok := s.admit(actx)
	cancel()
	if !ok {
		sess.dbMu.RUnlock()
		writeErr(w, errBudget("server at capacity: %v", actx.Err()))
		return
	}
	sub, initial, serr := sess.watch.Subscribe(key, req.Buffer, sess.db.Version(), req.ResumeFrom,
		func(relName string) bool { return queryMentions(q, relName) }, rank)
	release()
	sess.dbMu.RUnlock()
	if serr != nil {
		writeErr(w, serr)
		return
	}
	defer sess.watch.Unsubscribe(key, sub)
	s.watchesActive.Add(1)
	defer s.watchesActive.Add(-1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	emit := func(ev WatchEvent) bool {
		// Per-frame write deadline: a wedged client is disconnected
		// instead of pinning the handler forever. Transports without
		// deadline support (httptest recorders) just skip it.
		_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.RequestTimeout))
		if err := enc.Encode(ev); err != nil {
			return false
		}
		// Counted before the flush that delivers the frame, so a client
		// that has read a frame finds it in /v1/stats.
		s.diffEventsSent.Add(1)
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	// However the stream ends, the client sees it end; a client that
	// wants to go on reconnects with resume_from.
	_ = sess.watch.Follow(r.Context(), key, sub, initial, req.ResumeFrom, emit)
}
