// Session persistence: the bridge between the live session registry
// and internal/persist snapshots. Handlers mark a session dirty after
// any state-changing work (upload, prepare, certificate classification)
// and the write-behind flusher serializes the latest state in the
// background; graceful drain flushes synchronously so a SIGTERM'd
// server persists everything before exiting. On boot the registry is
// rehydrated from every snapshot on disk, restored sessions the ring
// assigns to another node are handed to their owner, and a request for
// a session that is not in memory (evicted, or owned by a restarted
// node) falls back to a lazy disk load — the warm-restart path.
package server

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/querycause/querycause/internal/cache"
	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/parser"
	"github.com/querycause/querycause/internal/persist"
)

// snapshot serializes the session's current state: the interned
// database (including its deletion husks, so a restore replays to the
// same version), prepared queries in preparation order, and the hot
// certificate cache (MRU first). Safe to run concurrently with request
// traffic — the database is read-locked against mutations and the
// caches lock internally.
func (s *session) snapshot() (*persist.Snapshot, error) {
	snap := &persist.Snapshot{ID: s.id, Identity: s.identity}
	s.dbMu.RLock()
	snap.SetDatabase(s.db)
	// The dedup cache rides along under the same read lock, so the
	// snapshot records a keyed mutation's dedup entry iff it records
	// the mutation's effect — a retry against the restored (or handed-
	// off) session replays instead of double-applying.
	for _, key := range s.idemOrder {
		snap.Idem = append(snap.Idem, persist.Idempotency{Key: key, Response: s.idem[key]})
	}
	s.dbMu.RUnlock()

	s.mu.RLock()
	snap.NextQueryID = s.nextQ
	queries := make([]*preparedQuery, 0, len(s.byID))
	for _, pq := range s.byID {
		queries = append(queries, pq)
	}
	s.mu.RUnlock()
	// q%d ids order by their numeric suffix = preparation order.
	sort.Slice(queries, func(i, j int) bool {
		return querySeq(queries[i].id) < querySeq(queries[j].id)
	})
	for _, pq := range queries {
		snap.Queries = append(snap.Queries, persist.Query{ID: pq.id, Text: pq.key, Program: pq.program})
	}

	for _, key := range s.certs.Keys() { // MRU → LRU
		ce, ok := s.certs.Peek(key)
		if !ok {
			continue // evicted between Keys and Peek
		}
		snap.Certs = append(snap.Certs, persist.Certificate{Key: key, Sound: ce.sound, Paper: ce.paper})
	}
	return snap, nil
}

func querySeq(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "q"))
	return n
}

// sessionSeq extracts the numeric component of a session id ("d12" or
// "d12-3" for ring-salted ids) so restore can advance the id sequence
// past every restored session.
func sessionSeq(id string) int {
	s := strings.TrimPrefix(id, "d")
	if i := strings.IndexByte(s, '-'); i >= 0 {
		s = s[:i]
	}
	n, _ := strconv.Atoi(s)
	return n
}

// restore rehydrates one snapshot into the registry. Restoring an id
// that is already live is a no-op returning the live session (two
// requests racing on a lazy load both win). The restored session's
// database, prepared-query ids, classifications, and certificates are
// byte-identical to the snapshotted ones; per-answer engines rebuild
// on demand.
func (r *registry) restore(snap *persist.Snapshot) (*session, error) {
	db, err := snap.Database()
	if err != nil {
		return nil, err
	}
	endo := db.NumEndo()
	now := r.clock()
	s := &session{
		id:       snap.ID,
		identity: snap.Identity,
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
	for _, rec := range snap.Idem {
		s.rememberIdem(rec.Key, rec.Response)
	}
	s.prepared = cache.New[string, *preparedQuery](r.preparedCap, func(_ string, pq *preparedQuery) {
		s.mu.Lock()
		delete(s.byID, pq.id)
		s.mu.Unlock()
	})
	s.touch(now)

	// Certificates first (reverse order: the snapshot is MRU-first,
	// Put refreshes recency) so query rehydration below hits the cache
	// instead of re-running classification searches.
	for i := len(snap.Certs) - 1; i >= 0; i-- {
		c := snap.Certs[i]
		s.certs.Put(c.Key, &certEntry{sound: c.Sound, paper: c.Paper})
	}
	s.nextQ = snap.NextQueryID
	for _, sq := range snap.Queries {
		q, err := parser.ParseQuery(sq.Text)
		if err != nil {
			return nil, fmt.Errorf("restoring query %s of session %s: %w", sq.ID, snap.ID, err)
		}
		if err := q.Validate(db); err != nil {
			return nil, fmt.Errorf("restoring query %s of session %s: %w", sq.ID, snap.ID, err)
		}
		// Warm the certificate cache for the query's shape (a cache hit
		// when the snapshot carried it, a fresh classification otherwise);
		// the prepared query itself carries no certificate pointer.
		if _, _, err := s.certsFor(q); err != nil {
			return nil, fmt.Errorf("reclassifying query %s of session %s: %w", sq.ID, snap.ID, err)
		}
		// dbVersion 0 never matches a live database version (sessions
		// hold at least one tuple), so the first re-prepare regenerates
		// the program: the snapshot does not record which version the
		// program was generated against, and it may predate the last
		// mutation.
		pq := &preparedQuery{id: sq.ID, key: q.String(), q: q, program: sq.Program, dbVersion: 0}
		s.byID[pq.id] = pq
		s.prepared.Put(pq.key, pq)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if live, ok := r.sessions[snap.ID]; ok {
		return live, nil
	}
	for len(r.sessions) >= r.maxSessions && r.evictLRULocked() {
	}
	if seq := sessionSeq(snap.ID); seq > r.nextID {
		r.nextID = seq
	}
	r.sessions[s.id] = s
	return s, nil
}

// markDirty flags a session for the write-behind flusher; no-op
// without a snapshot store.
func (s *Server) markDirty(sess *session) {
	if s.wb == nil {
		return
	}
	s.wb.Mark(sess.id, func() (*persist.Snapshot, error) { return s.snapshotOf(sess) })
}

// loadSession is the lazy warm path: a request for a session that is
// not in memory loads its snapshot from disk. Misses and corrupt
// snapshots report false (the caller answers session-not-found).
func (s *Server) loadSession(id string) (*session, bool) {
	if s.store == nil {
		return nil, false
	}
	snap, err := s.store.Load(id)
	if err != nil {
		return nil, false
	}
	sess, err := s.reg.restore(snap)
	if err != nil {
		return nil, false
	}
	s.restored.Add(1)
	return sess, true
}

// restoreAll rehydrates every snapshot in the store and returns how
// many it restored; New calls it before the server starts serving, so
// a restarted replica is warm. Unreadable snapshots are skipped — one
// corrupt file must not keep the node down.
func (s *Server) restoreAll() int {
	snaps, _ := s.store.LoadAll()
	restored := 0
	for _, snap := range snaps {
		if _, err := s.reg.restore(snap); err != nil {
			continue
		}
		s.restored.Add(1)
		restored++
	}
	return restored
}

// Boot handoff retry pacing: the first retry follows quickly (the
// owner is often a peer booting alongside this node), later ones back
// off to a slow poll of a peer that stays down.
const (
	handoffRetryBase = 100 * time.Millisecond
	handoffRetryCap  = 5 * time.Second
)

// handOffRestored hands the restored sessions the ring assigns to
// another node over to their owners. A restart under a changed peer
// list restores snapshots this node no longer owns, and a snapshot
// store shared by the ring restores every node's sessions on every
// node; left here, such a session is redirected to an owner that may
// lack it. The owner may still be booting, so the pass repeats, with
// backoff, until every push it may retry is acknowledged or the server
// closes.
func (s *Server) handOffRestored() {
	defer s.bg.Done()
	for delay := handoffRetryBase; s.rebalance(true) > 0; delay = min(2*delay, handoffRetryCap) {
		select {
		case <-s.ctx.Done():
			return
		case <-time.After(delay):
		}
	}
}

// snapshotOf snapshots sess with this node as the holder.
func (s *Server) snapshotOf(sess *session) (*persist.Snapshot, error) {
	snap, err := sess.snapshot()
	if err == nil && s.cluster != nil {
		snap.Holder = s.cluster.self
	}
	return snap, err
}

// dropHandedOff removes this node's snapshot of a session it handed to
// owner, so no restart restores (and hands back) a copy the owner may
// since have mutated or deleted. A snapshot owner wrote stays: the two
// share the store, and it is the owner's now.
func (s *Server) dropHandedOff(id, owner string) {
	if s.store == nil {
		return
	}
	if snap, err := s.store.Load(id); err == nil && snap.Holder != owner {
		_ = s.store.Delete(id)
	}
}

// Flush synchronously writes every dirty session snapshot. The drain
// path of cmd/querycaused calls it after http.Server.Shutdown so a
// graceful exit never loses marked state; no-op without a store.
func (s *Server) Flush() error {
	if s.wb == nil {
		return nil
	}
	return s.wb.Flush()
}

// Restored returns how many sessions were rehydrated from snapshots
// (boot-time restore plus lazy loads).
func (s *Server) Restored() uint64 { return s.restored.Load() }

// persistInterval resolves the write-behind flush interval: 0 means
// the 2s default, negative disables background flushing (flush-on-
// drain and explicit Flush still work).
func persistInterval(d time.Duration) time.Duration {
	if d == 0 {
		return 2 * time.Second
	}
	if d < 0 {
		return 0
	}
	return d
}
