// Tuple mutation: sessions are mutable databases. POST
// /v1/databases/{db}/tuples inserts a batch of tuples and DELETE
// /v1/databases/{db}/tuples/{id} removes one, both under the session's
// database write lock, serialized against in-flight explains.
//
// The point of mutating in place — instead of uploading a fresh
// database — is keeping the session's warm explanation state.
// Invalidation is *incremental*: only the per-answer engines whose
// results a mutation can actually change are dropped, decided from the
// lineage each engine already computed.
//
//   - Deleting an endogenous tuple t invalidates engines whose cause
//     set contains t (the minimized DNF lineage mentions it — Theorem
//     3.2 makes the cause set exactly the lineage variables). An engine
//     over a query that mentions t's relation but whose lineage avoids
//     t is provably unaffected: every valuation it ranked survives, and
//     no new valuation can appear from removing a tuple.
//   - Inserting any tuple, or deleting an exogenous one, invalidates
//     engines over queries that mention the relation — the change can
//     create or destroy valuations the cached lineage never saw — and
//     no others: a query that never reads the relation cannot observe
//     the mutation.
//   - A mutation that flips the relation's endogeneity (first
//     endogenous tuple inserted, or last one deleted) additionally
//     invalidates the cached dichotomy certificates whose shape
//     mentions the relation: classification runs against the
//     endogenous/exogenous split (Corollary 4.14), so the flip can move
//     a query shape across the dichotomy and change which
//     responsibility method an explain dispatches to.
//
// A stale engine is no longer necessarily dropped: the delta layer
// (internal/delta) first tries to patch its cached lineage in place —
// inserts merge the pinned-evaluation delta, endogenous deletes filter
// the dead conjuncts — and only mutations it cannot prove safe
// (exogenous deletes, Why-No engines) fall back to the cold drop. A
// patched engine answers byte-identically to a cold rebuild; the
// difftest metamorphic invariant checks exactly that, comparing the
// surviving state against a cold server rebuilt at the final database
// version.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"github.com/querycause/querycause/internal/delta"
	"github.com/querycause/querycause/internal/qerr"
	"github.com/querycause/querycause/internal/rel"
)

// idempotencyHeader keys mutation dedup: a client retrying a mutation
// (after a timeout, a dropped connection, or a mid-handoff 503) sends
// the same key and the session replays the stored response instead of
// applying twice. Replayed responses carry replayHeader: true.
const (
	idempotencyHeader = "Idempotency-Key"
	replayHeader      = "Idempotent-Replay"
)

// writeRawJSON writes a pre-marshaled JSON body.
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeMoved answers a request against a session frozen for handoff:
// its snapshot is in flight to the new owner and must stay the final
// word, so the client retries (the redirect/refresh path lands it on
// the new owner).
func writeMoved(w http.ResponseWriter, id string) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "session %s is migrating to its new owner; retry", id)
}

// idemReplay answers a keyed mutation retry from the dedup cache,
// reporting whether it did. Caller holds dbMu (either side).
func idemReplay(w http.ResponseWriter, sess *session, key string) bool {
	if key == "" {
		return false
	}
	body, ok := sess.idem[key]
	if !ok {
		return false
	}
	w.Header().Set(replayHeader, "true")
	writeRawJSON(w, http.StatusOK, body)
	return true
}

// invalidation counts the explanation state one mutation touched:
// engines dropped cold, engines the delta layer patched in place,
// delta fallbacks (stale engines the delta path declined — a subset of
// engines), and certificates dropped.
type invalidation struct {
	engines   int
	patched   int
	fallbacks int
	certs     int
}

func (a invalidation) add(b invalidation) invalidation {
	return invalidation{
		engines:   a.engines + b.engines,
		patched:   a.patched + b.patched,
		fallbacks: a.fallbacks + b.fallbacks,
		certs:     a.certs + b.certs,
	}
}

// relProfile captures the endogeneity profile of one relation; a
// mutation that changes it can flip classification (HasEndo) for every
// query shape mentioning the relation.
func relProfile(r *rel.Relation) (exists, hasEndo bool) {
	if r == nil {
		return false, false
	}
	return true, r.HasEndo()
}

// invalidateMutation refreshes the session state one mutation can
// have stale: engines by the rules in the package comment,
// certificates when endoFlipped. endoDeleted >= 0 narrows engine
// invalidation for an endogenous delete to engines whose cause set
// contains the tuple; pass -1 for inserts and exogenous deletes. A
// stale engine is first offered to the delta layer (unless the
// session runs with delta maintenance disabled), which patches its
// lineage in place when it can prove the patch byte-equivalent to a
// cold rebuild; only declined engines are dropped. Certificates are
// invalidated before engines are patched: a patched engine carries no
// primed certificate (it re-classifies lazily), so it can never serve
// a stale pre-flip classification. Caller holds dbMu for writing.
func (s *session) invalidateMutation(relName string, endoDeleted rel.TupleID, endoFlipped bool, m delta.Mutation) invalidation {
	var inv invalidation
	if endoFlipped {
		// Certificate keys are shape keys (shapeKeyOf): a sequence of
		// "Pred(terms…)|" segments, so this marker matches exactly the
		// shapes with an atom over relName. It also matches relations
		// whose name ends in relName ("PR(" contains "R(") — conservative
		// over-invalidation; the certificate is recomputed on next use.
		marker := relName + "("
		for _, key := range s.certs.Keys() {
			if strings.Contains(key, marker) {
				s.certs.Remove(key)
				inv.certs++
			}
		}
	}
	for _, key := range s.engines.Keys() {
		eng, ok := s.engines.Peek(key)
		if !ok {
			continue
		}
		var stale bool
		if endoDeleted >= 0 && !endoFlipped {
			stale = eng.Touches(endoDeleted)
		} else if endoDeleted >= 0 {
			stale = eng.Touches(endoDeleted) || eng.Mentions(relName)
		} else {
			stale = eng.Mentions(relName)
		}
		if !stale {
			continue
		}
		if !s.noDelta {
			ne, patched, err := delta.Apply(s.db, eng, m)
			if err == nil && patched {
				s.engines.Put(key, ne)
				inv.patched++
				continue
			}
			inv.fallbacks++
		}
		s.engines.Remove(key)
		inv.engines++
	}
	return inv
}

// ValidateInsert checks a batch of tuple inserts against db without
// applying anything: no empty batch, no empty relation names or
// argument lists, and consistent arity — against the live relation, or
// against the first tuple of the batch for a relation the batch itself
// introduces. Both transports of the Session API share it, so a batch
// the in-process transport rejects fails remotely with the same
// message and sentinel (and vice versa), and a batch it accepts
// applies in full.
func ValidateInsert(db *rel.Database, specs []TupleSpec) error {
	if len(specs) == 0 {
		return qerr.Tag(qerr.ErrBadInstance, fmt.Errorf("empty insert: no tuples"))
	}
	arity := make(map[string]int)
	for i, t := range specs {
		if t.Rel == "" {
			return qerr.Tag(qerr.ErrBadInstance, fmt.Errorf("tuple %d: empty relation name", i))
		}
		if len(t.Args) == 0 {
			return qerr.Tag(qerr.ErrBadInstance, fmt.Errorf("tuple %d: relation %s: no arguments", i, t.Rel))
		}
		want, ok := arity[t.Rel]
		if !ok {
			if r := db.Relation(t.Rel); r != nil {
				want = r.Arity
			} else {
				want = len(t.Args)
			}
			arity[t.Rel] = want
		}
		if len(t.Args) != want {
			return qerr.Tag(qerr.ErrBadInstance,
				fmt.Errorf("tuple %d: relation %s has arity %d, got %d args", i, t.Rel, want, len(t.Args)))
		}
	}
	return nil
}

// applyInsert validates the whole batch (ValidateInsert), then appends
// every tuple and invalidates the state each insert touches.
// Validation is all-upfront so a failed request mutates nothing.
// Caller holds dbMu for writing.
func (s *session) applyInsert(specs []TupleSpec) ([]rel.TupleID, invalidation, error) {
	if err := ValidateInsert(s.db, specs); err != nil {
		return nil, invalidation{}, err
	}
	var inv invalidation
	ids := make([]rel.TupleID, 0, len(specs))
	for _, t := range specs {
		_, endoBefore := relProfile(s.db.Relation(t.Rel))
		id, err := s.db.Add(t.Rel, t.Endo, toValues(t.Args)...)
		if err != nil {
			// Unreachable after upfront validation; surface it anyway.
			return ids, inv, qerr.Tag(qerr.ErrBadInstance, err)
		}
		if t.Endo {
			s.endo++
		}
		_, endoAfter := relProfile(s.db.Relation(t.Rel))
		inv = inv.add(s.invalidateMutation(t.Rel, -1, endoBefore != endoAfter,
			delta.Mutation{Rel: t.Rel, Inserted: id, Deleted: -1}))
		ids = append(ids, id)
	}
	return ids, inv, nil
}

// applyDelete removes one tuple and invalidates the state it touches.
// Caller holds dbMu for writing.
func (s *session) applyDelete(id rel.TupleID) (invalidation, error) {
	if !s.db.Live(id) {
		return invalidation{}, qerr.Tag(qerr.ErrTupleNotFound,
			fmt.Errorf("session %s has no live tuple %d", s.id, id))
	}
	relName := s.db.RelName(id)
	wasEndo := s.db.Endo(id)
	_, endoBefore := relProfile(s.db.Relation(relName))
	if err := s.db.Delete(id); err != nil {
		return invalidation{}, err
	}
	if wasEndo {
		s.endo--
	}
	_, endoAfter := relProfile(s.db.Relation(relName))
	endoDeleted := rel.TupleID(-1)
	if wasEndo {
		endoDeleted = id
	}
	return s.invalidateMutation(relName, endoDeleted, endoBefore != endoAfter,
		delta.Mutation{Rel: relName, Inserted: -1, Deleted: id, WasEndo: wasEndo}), nil
}

// handleInsertTuples serves POST /v1/databases/{db}/tuples.
func (s *Server) handleInsertTuples(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	sess, sessRelease, ok := s.admitSession(w, r)
	if !ok {
		return
	}
	defer sessRelease()
	var req InsertTuplesRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeError(w, bodyStatus(err), "%v", err)
		return
	}
	idemKey := r.Header.Get(idempotencyHeader)
	sess.dbMu.Lock()
	if sess.moved.Load() {
		sess.dbMu.Unlock()
		writeMoved(w, sess.id)
		return
	}
	if idemReplay(w, sess, idemKey) {
		sess.dbMu.Unlock()
		return
	}
	ids, inv, err := sess.applyInsert(req.Tuples)
	version, live := sess.db.Version(), sess.db.NumLive()
	var respBody []byte
	if err == nil {
		// Fan watch frames out while still holding the write lock, so
		// every subscriber sees exactly one frame per mutation request, in
		// mutation order.
		rels := make(map[string]bool, len(req.Tuples))
		for _, t := range req.Tuples {
			rels[t.Rel] = true
		}
		sess.watch.Fanout(version, rels)
		out := make([]int, len(ids))
		for i, id := range ids {
			out[i] = int(id)
		}
		respBody, _ = json.Marshal(MutateResponse{
			Database:           sess.id,
			Version:            version,
			Tuples:             live,
			TupleIDs:           out,
			EnginesInvalidated: inv.engines,
			CertsInvalidated:   inv.certs,
			EnginesPatched:     inv.patched,
		})
		if idemKey != "" {
			sess.rememberIdem(idemKey, respBody)
		}
	}
	sess.dbMu.Unlock()
	if err != nil {
		writeErr(w, err)
		return
	}
	s.finishMutation(sess, inv)
	writeRawJSON(w, http.StatusOK, respBody)
}

// handleDeleteTuple serves DELETE /v1/databases/{db}/tuples/{id}.
func (s *Server) handleDeleteTuple(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	sess, sessRelease, ok := s.admitSession(w, r)
	if !ok {
		return
	}
	defer sessRelease()
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid tuple id %q", r.PathValue("id"))
		return
	}
	idemKey := r.Header.Get(idempotencyHeader)
	var relName string
	sess.dbMu.Lock()
	if sess.moved.Load() {
		sess.dbMu.Unlock()
		writeMoved(w, sess.id)
		return
	}
	if idemReplay(w, sess, idemKey) {
		sess.dbMu.Unlock()
		return
	}
	if sess.db.Live(rel.TupleID(id)) {
		relName = sess.db.RelName(rel.TupleID(id))
	}
	inv, derr := sess.applyDelete(rel.TupleID(id))
	version, live := sess.db.Version(), sess.db.NumLive()
	var respBody []byte
	if derr == nil {
		sess.watch.Fanout(version, map[string]bool{relName: true})
		respBody, _ = json.Marshal(MutateResponse{
			Database:           sess.id,
			Version:            version,
			Tuples:             live,
			EnginesInvalidated: inv.engines,
			CertsInvalidated:   inv.certs,
			EnginesPatched:     inv.patched,
		})
		if idemKey != "" {
			sess.rememberIdem(idemKey, respBody)
		}
	}
	sess.dbMu.Unlock()
	if derr != nil {
		writeErr(w, derr)
		return
	}
	s.finishMutation(sess, inv)
	writeRawJSON(w, http.StatusOK, respBody)
}

// finishMutation bumps the mutation counters and schedules a snapshot
// of the mutated session.
func (s *Server) finishMutation(sess *session, inv invalidation) {
	s.mutations.Add(1)
	s.engineInvalidations.Add(uint64(inv.engines))
	s.certInvalidations.Add(uint64(inv.certs))
	s.enginesPatched.Add(uint64(inv.patched))
	s.deltaFallbacks.Add(uint64(inv.fallbacks))
	s.markDirty(sess)
}
