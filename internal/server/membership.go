// Dynamic cluster membership and session handoff. Any member accepts
// an admin membership change (POST/DELETE /v1/cluster/nodes), mints
// the next topology epoch on its versioned ring, pushes the topology
// to every node it can reach (PUT /v1/cluster/topology — installs are
// epoch-monotone, so pushes may race and arrive out of order), and
// rebalances: every live session whose id now hashes onto a different
// node is frozen, snapshotted, and PUT to its new owner.
//
// The handoff protocol keeps exactly one writable copy of a session:
//
//  1. The old owner freezes the session under the database write lock
//     (mutations answer 503 + Retry-After; reads still serve).
//  2. It snapshots the frozen state — database, prepared queries,
//     certificates, and the mutation dedup cache — and PUTs the
//     encoded snapshot to the new owner.
//  3. The new owner installs the snapshot (displacing any stale copy
//     it lazily restored meanwhile) and persists it.
//  4. Only then does the old owner drop its copy, and its snapshot of
//     it, and close the session's watch streams; subscribers reconnect
//     — routed to the new owner — and resume their diff chains with
//     resume_from.
//
// A failed transfer unfreezes the session on the old owner: better a
// stale-but-serving owner than a session nobody holds. So does a
// refused one: a new owner that minted the same id for a session of
// its own answers 409 and keeps it (sessions carry a random identity
// to tell the two apart). Requests that land between drop and install
// answer 503 (the handoff grace window in sessionOf), never 404.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"github.com/querycause/querycause/internal/cluster"
	"github.com/querycause/querycause/internal/persist"
)

// clusterOnly guards the membership endpoints on non-clustered
// servers.
func (s *Server) clusterOnly(w http.ResponseWriter) bool {
	if s.cluster == nil {
		writeError(w, http.StatusBadRequest, "server is not clustered")
		return false
	}
	return true
}

func validNodeURL(node string) error {
	target, err := url.Parse(node)
	if err != nil || target.Scheme == "" || target.Host == "" {
		return fmt.Errorf("invalid node URL %q (want scheme://host[:port])", node)
	}
	return nil
}

// handleClusterJoin serves POST /v1/cluster/nodes: add a node to the
// ring, propagate the new topology, and rebalance in the background.
func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if !s.clusterOnly(w) {
		return
	}
	var req ClusterNodeRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeError(w, bodyStatus(err), "%v", err)
		return
	}
	if err := validNodeURL(req.URL); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	old := s.cluster.ring.Nodes()
	topo, err := s.cluster.ring.Add(req.URL)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	s.finishTopologyChange(w, topo, old)
}

// handleClusterRemove serves DELETE /v1/cluster/nodes?url=…: drop a
// node from the ring. The removed node is still told about the new
// topology (best-effort) so it stops minting ids it no longer owns
// and hands its sessions over.
func (s *Server) handleClusterRemove(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if !s.clusterOnly(w) {
		return
	}
	node := r.URL.Query().Get("url")
	if node == "" {
		writeError(w, http.StatusBadRequest, "missing url query parameter")
		return
	}
	topo, err := s.cluster.ring.Remove(node)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	s.finishTopologyChange(w, topo, []string{node})
}

// finishTopologyChange is the shared tail of a membership change:
// record the change time (starts the handoff grace window), push the
// topology to every reachable member plus extra (the pre-change
// membership on join, the removed node on removal), kick the
// rebalancer, and report the outcome.
func (s *Server) finishTopologyChange(w http.ResponseWriter, topo cluster.Topology, extra []string) {
	s.topoChangedAt.Store(time.Now().UnixNano())
	notified, failed := s.propagateTopology(topo, extra)
	go s.Rebalance()
	writeJSON(w, http.StatusOK, ClusterChangeResponse{
		Epoch:         topo.Epoch,
		Nodes:         topo.Nodes,
		PeersNotified: notified,
		PeersFailed:   failed,
	})
}

// propagateTopology pushes topo to every node of the new membership
// and extra, minus self. Best-effort: an unreachable peer converges
// later (epoch-monotone installs make re-pushes and reordering safe).
func (s *Server) propagateTopology(topo cluster.Topology, extra []string) (notified, failed int) {
	seen := map[string]bool{s.cluster.self: true}
	body, _ := json.Marshal(topo)
	for _, node := range append(append([]string(nil), topo.Nodes...), extra...) {
		if seen[node] {
			continue
		}
		seen[node] = true
		req, err := http.NewRequest(http.MethodPut, node+"/v1/cluster/topology", bytes.NewReader(body))
		if err != nil {
			failed++
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := s.cluster.peers.Do(req)
		if err != nil {
			failed++
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode/100 == 2 {
			notified++
		} else {
			failed++
		}
	}
	return notified, failed
}

// handleClusterTopology serves PUT /v1/cluster/topology: install a
// propagated topology. Installs are strictly epoch-monotone (stale or
// duplicate pushes are no-ops), so any member may push to any other
// in any order. An install triggers a rebalance.
func (s *Server) handleClusterTopology(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if !s.clusterOnly(w) {
		return
	}
	var topo cluster.Topology
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &topo); err != nil {
		writeError(w, bodyStatus(err), "%v", err)
		return
	}
	if s.cluster.ring.Apply(topo) {
		s.topoChangedAt.Store(time.Now().UnixNano())
		go s.Rebalance()
	}
	cur := s.cluster.ring.Current()
	writeJSON(w, http.StatusOK, ClusterChangeResponse{Epoch: cur.Epoch, Nodes: cur.Nodes})
}

// joinRing brings a booting node up to date with the ring: it installs
// the newest topology its peers hold, then hands the sessions it
// restored but no longer owns to their owners (see handOffRestored), or,
// when it restored none but the ring moved, rebalances the sessions
// minted meanwhile.
func (s *Server) joinRing(restored bool) {
	defer s.bg.Done()
	moved := s.pullTopology()
	if restored {
		s.handOffRestored()
	} else if moved {
		s.rebalance(false)
	}
}

// pullTopology asks every other member of its ring for its topology
// (GET /v1/cluster) and installs the newest. A node boots at epoch 1
// over its configured peers, so one restarted after a membership change
// it missed would otherwise route by a stale ring until the next change
// pushes one. The pass repeats, with backoff, until some peer answers
// (or there is none to ask) or the server closes; it reports whether a
// newer topology was installed.
func (s *Server) pullTopology() bool {
	for delay := handoffRetryBase; ; delay = min(2*delay, handoffRetryCap) {
		asked, answered, installed := 0, false, false
		for _, node := range s.cluster.ring.Nodes() {
			if node == s.cluster.self {
				continue
			}
			asked++
			topo, ok := s.peerTopology(node)
			if !ok {
				continue
			}
			answered = true
			if s.cluster.ring.Apply(topo) {
				installed = true
				s.topoChangedAt.Store(time.Now().UnixNano())
			}
		}
		if answered || asked == 0 {
			return installed
		}
		select {
		case <-s.ctx.Done():
			return false
		case <-time.After(delay):
		}
	}
}

// peerTopology fetches node's installed topology; ok is false when the
// node did not answer with a clustered one.
func (s *Server) peerTopology(node string) (cluster.Topology, bool) {
	req, err := http.NewRequestWithContext(s.ctx, http.MethodGet, node+"/v1/cluster", nil)
	if err != nil {
		return cluster.Topology{}, false
	}
	resp, err := s.cluster.peers.Do(req)
	if err != nil {
		return cluster.Topology{}, false
	}
	defer resp.Body.Close()
	var info ClusterResponse
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&info) != nil || len(info.Peers) == 0 {
		return cluster.Topology{}, false
	}
	return cluster.Topology{Epoch: info.Epoch, Nodes: info.Peers}, true
}

// handleSessionTransfer serves PUT /v1/cluster/sessions/{db}: the
// receiving half of a handoff. The body is a persist-encoded snapshot
// of the frozen session; it displaces any copy of the same session this
// node holds (a lazily-restored stale snapshot loses to the old owner's
// final state) and is persisted before the acknowledgment, so the
// sender may drop its own snapshot. A copy of another session under the
// same id (this node minted the id too) is never displaced: the push is
// refused with 409.
func (s *Server) handleSessionTransfer(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if !s.clusterOnly(w) {
		return
	}
	id := r.PathValue("db")
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, bodyStatus(err), "reading snapshot: %v", err)
		return
	}
	snap, err := persist.Decode(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding snapshot: %v", err)
		return
	}
	if snap.ID != id {
		writeError(w, http.StatusBadRequest, "snapshot is for session %q, not %q", snap.ID, id)
		return
	}
	install := true
	if held, ok := s.heldSnapshot(id); ok {
		if held.Identity != 0 && snap.Identity != 0 && held.Identity != snap.Identity {
			writeError(w, http.StatusConflict, "session %s here is another session under the same id", id)
			return
		}
		if r.URL.Query().Has(restoredParam) && held.Version() >= snap.Version() {
			// A restored snapshot may be older than the copy this owner
			// holds: keep a copy at least as new.
			snap, install = held, false
		}
	}
	// Rebuild before persisting: a snapshot that cannot be restored must
	// not reach the store, where the next restart would meet it.
	var sess *session
	if install {
		if sess, err = s.reg.rebuild(snap); err != nil {
			writeError(w, http.StatusUnprocessableEntity, "restoring session %s: %v", id, err)
			return
		}
	}
	if s.store != nil {
		// Nothing mutates the rebuilt database, which now owns the
		// snapshot's columns, before it is registered below.
		snap.Holder = s.cluster.self
		if err := s.store.Save(snap); err != nil {
			writeError(w, http.StatusInternalServerError, "persisting session %s: %v", id, err)
			return
		}
	}
	if install {
		s.reg.remove(id)
		sess = s.reg.register(sess)
		// A flush of the displaced copy may be in flight.
		s.markDirty(sess)
		s.handoffsIn.Add(1)
	}
	w.WriteHeader(http.StatusNoContent)
}

// heldSnapshot snapshots this node's copy of session id: the live
// session, else the one in its store.
func (s *Server) heldSnapshot(id string) (*persist.Snapshot, bool) {
	if sess, ok := s.reg.get(id); ok {
		snap, err := s.snapshotOf(sess)
		return snap, err == nil
	}
	if s.store == nil {
		return nil, false
	}
	snap, err := s.store.Load(id)
	return snap, err == nil
}

// Rebalance hands every live session this node no longer owns to its
// new owner. Membership changes run it in the background; tests and
// operators may call it directly (it is idempotent — a session that
// already moved is simply no longer live here).
func (s *Server) Rebalance() { s.rebalance(false) }

// rebalance runs one handoff pass (restored marks its pushes; see
// transferSession) and returns how many sessions failed to move and
// may move on a retry. A session its owner refused (409) stays here and
// does not count: the owner would refuse it again.
func (s *Server) rebalance(restored bool) (retry int) {
	if s.cluster == nil {
		return 0
	}
	for _, sess := range s.reg.list() {
		owner := s.cluster.ring.Owner(sess.id)
		if owner == "" || owner == s.cluster.self {
			continue
		}
		if s.ctx.Err() != nil {
			break
		}
		if code := s.transferSession(sess, owner, restored); code/100 != 2 && code != http.StatusConflict {
			retry++
		}
	}
	return retry
}

// transferSession executes the sending half of one handoff (see the
// package comment for the protocol) and returns the owner's status
// code, 0 when the push did not get an answer. Unless the owner
// acknowledged, the session unfreezes and stays local; the next
// topology change (or, for a restored session, the boot handoff's next
// pass) retries. restored marks a session this node restored from its
// snapshot store rather than one it served: the owner keeps its own
// copy when that is at least as new.
func (s *Server) transferSession(sess *session, owner string, restored bool) int {
	sess.dbMu.Lock()
	sess.moved.Store(true)
	sess.dbMu.Unlock()
	code := s.pushSession(sess, owner, restored)
	if code/100 != 2 {
		sess.moved.Store(false)
		s.handoffFails.Add(1)
		return code
	}
	// The new owner has acknowledged the authoritative state: stop
	// serving here. Watch subscribers see their channels close, end
	// their streams, and reconnect with resume_from — routed to the new
	// owner. The owner persisted the session before acknowledging, so
	// this node's snapshot goes too.
	sess.watch.CloseAll()
	s.reg.remove(sess.id)
	if s.wb != nil {
		s.wb.Forget(sess.id)
	}
	s.dropHandedOff(sess.id, owner)
	s.handoffsOut.Add(1)
	return code
}

// restoredParam is the query parameter marking a handoff of a restored
// session (see transferSession).
const restoredParam = "restored"

// pushSession snapshots the frozen session, PUTs it to owner and
// returns the status code, 0 when the push got no answer (Close aborts
// a push in flight).
func (s *Server) pushSession(sess *session, owner string, restored bool) int {
	snap, err := sess.snapshot()
	if err != nil {
		return 0
	}
	data, err := persist.Encode(snap)
	if err != nil {
		return 0
	}
	target := owner + "/v1/cluster/sessions/" + url.PathEscape(sess.id)
	if restored {
		target += "?" + restoredParam + "=1"
	}
	req, err := http.NewRequestWithContext(s.ctx, http.MethodPut, target, bytes.NewReader(data))
	if err != nil {
		return 0
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.cluster.peers.Do(req)
	if err != nil {
		return 0
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode
}
