package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/rel"
)

// watchStream is a test client for one watch subscription: it decodes
// NDJSON frames off the response body on demand.
type watchStream struct {
	t    *testing.T
	resp *http.Response
	sc   *bufio.Scanner
}

// openWatch subscribes and returns the stream; the first frame (the
// snapshot) has not been read yet.
func openWatch(t *testing.T, url, dbID string, req WatchRequest) *watchStream {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/databases/"+dbID+"/watch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		var wire ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&wire)
		resp.Body.Close()
		t.Fatalf("watch: status %d (%s)", resp.StatusCode, wire.Error)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch content type %q", ct)
	}
	t.Cleanup(func() { resp.Body.Close() })
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	return &watchStream{t: t, resp: resp, sc: sc}
}

// next reads one frame, failing the test if the stream ends.
func (ws *watchStream) next() WatchEvent {
	ws.t.Helper()
	if !ws.sc.Scan() {
		ws.t.Fatalf("watch stream ended early: %v", ws.sc.Err())
	}
	var ev WatchEvent
	if err := json.Unmarshal(ws.sc.Bytes(), &ev); err != nil {
		ws.t.Fatalf("decoding watch frame %q: %v", ws.sc.Bytes(), err)
	}
	return ev
}

func (ws *watchStream) close() { ws.resp.Body.Close() }

// rankingJSON canonicalizes a ranking for byte comparison.
func rankingJSON(t *testing.T, r []ExplanationDTO) string {
	t.Helper()
	if len(r) == 0 {
		return "[]"
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestWatchSnapshotDiffReplay is the core wire contract: the first
// frame is a snapshot equal to a cold explain, every mutation request
// produces exactly one frame, unaffected mutations produce an empty
// version-bump diff, and replaying the frames reconstructs the exact
// ranking a cold explain returns at the final version.
func TestWatchSnapshotDiffReplay(t *testing.T) {
	_, ts := newTest(t, Config{})
	info := upload(t, ts, mutateDBText) // R(a4,a3) S(a3) S(a2) R(a5,a2) T(a1)
	const q = "q(x) :- R(x,y), S(y)"

	ws := openWatch(t, ts.URL, info.ID, WatchRequest{Query: q, Answer: []string{"a4"}})
	snap := ws.next()
	if snap.Type != "snapshot" || snap.Version != uint64(info.Version) {
		t.Fatalf("first frame = %+v; want snapshot at version %d", snap, info.Version)
	}
	cold := explainWhySo(t, ts.URL, info.ID, q, "a4")
	if rankingJSON(t, snap.Ranking) != rankingJSON(t, cold.Explanations) {
		t.Fatalf("snapshot ranking %s != cold explain %s",
			rankingJSON(t, snap.Ranking), rankingJSON(t, cold.Explanations))
	}
	state := ApplyWatchEvent(nil, snap)

	// Mutating only T cannot affect the watched query: the frame is an
	// empty diff that just bumps the version.
	ins := insertTuples(t, ts.URL, info.ID, TupleSpec{Rel: "T", Args: []string{"zz"}, Endo: true})
	ev := ws.next()
	if ev.Type != "diff" || ev.Version != ins.Version ||
		len(ev.CausesAdded)+len(ev.CausesRemoved)+len(ev.RankChanged) != 0 {
		t.Fatalf("unaffected mutation frame = %+v; want empty diff at version %d", ev, ins.Version)
	}
	state = ApplyWatchEvent(state, ev)

	// Insert a second witness for a4: R(a4,a2) joins S(a2), so both new
	// tuples join the cause set and every rho changes.
	ins = insertTuples(t, ts.URL, info.ID, TupleSpec{Rel: "R", Args: []string{"a4", "a2"}, Endo: true})
	ev = ws.next()
	if ev.Type != "diff" || ev.Version != ins.Version {
		t.Fatalf("affected mutation frame = %+v; want diff at version %d", ev, ins.Version)
	}
	if len(ev.CausesAdded) == 0 {
		t.Fatalf("insert created witnesses but the diff added no causes: %+v", ev)
	}
	state = ApplyWatchEvent(state, ev)
	cold = explainWhySo(t, ts.URL, info.ID, q, "a4")
	if rankingJSON(t, state) != rankingJSON(t, cold.Explanations) {
		t.Fatalf("replayed state %s != cold explain %s", rankingJSON(t, state), rankingJSON(t, cold.Explanations))
	}

	// Delete endogenous S(a3) (id 1): a4 keeps its second witness, so
	// causes shrink and the remaining ones re-rank.
	del := deleteTuple(t, ts.URL, info.ID, 1)
	ev = ws.next()
	if ev.Type != "diff" || ev.Version != del.Version {
		t.Fatalf("delete frame = %+v; want diff at version %d", ev, del.Version)
	}
	state = ApplyWatchEvent(state, ev)
	cold = explainWhySo(t, ts.URL, info.ID, q, "a4")
	if rankingJSON(t, state) != rankingJSON(t, cold.Explanations) {
		t.Fatalf("replayed state %s != cold explain %s after delete", rankingJSON(t, state), rankingJSON(t, cold.Explanations))
	}
}

// TestWatchWhyNo watches a non-answer (exogenous = the real database,
// endogenous = candidate insertions): mutations adding candidate
// witnesses must stream diffs whose replay tracks the cold why-no
// ranking. Why-no engines always take the cold-rebuild fallback (the
// delta layer declines them), so this also exercises the fallback path
// under watch fanout.
func TestWatchWhyNo(t *testing.T) {
	_, ts := newTest(t, Config{})
	info := upload(t, ts, "-R(a4, a3)\n+S(a3)\n")
	const q = "q(x) :- R(x,y), S(y)"

	ws := openWatch(t, ts.URL, info.ID, WatchRequest{Query: q, Answer: []string{"a4"}, WhyNo: true})
	snap := ws.next()
	if snap.Type != "snapshot" {
		t.Fatalf("first frame = %+v; want snapshot", snap)
	}
	state := ApplyWatchEvent(nil, snap)

	// Add a second candidate witness: R(a4,a5) and S(a5) form a new
	// conjunct, so causes are added and the existing cause re-ranks.
	insertTuples(t, ts.URL, info.ID,
		TupleSpec{Rel: "R", Args: []string{"a4", "a5"}, Endo: true},
		TupleSpec{Rel: "S", Args: []string{"a5"}, Endo: true})
	ev := ws.next()
	if ev.Type != "diff" || len(ev.CausesAdded) == 0 {
		t.Fatalf("candidate insert frame = %+v; want diff with added causes", ev)
	}
	state = ApplyWatchEvent(state, ev)

	var cold ExplainResponse
	if code := call(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/whyno",
		ExplainRequest{Query: q, Answer: []string{"a4"}}, &cold); code != 200 {
		t.Fatalf("cold whyno: status %d", code)
	}
	if rankingJSON(t, state) != rankingJSON(t, cold.Explanations) {
		t.Fatalf("replayed why-no state %s != cold %s", rankingJSON(t, state), rankingJSON(t, cold.Explanations))
	}
}

// TestWatchErrorFrameAndRecovery drives a watched topic into an error
// state (the watched instance becomes invalid) and back: the stream
// must carry the error in-band and recover with a full_resync.
func TestWatchErrorFrameAndRecovery(t *testing.T) {
	_, ts := newTest(t, Config{})
	// Valid why-no instance: the real (exogenous) part is empty, the
	// candidates R(a), S(a) make q hold.
	info := upload(t, ts, "+R(a)\n+S(a)\n")
	const q = "q :- R(x), S(x)"
	ws := openWatch(t, ts.URL, info.ID, WatchRequest{Query: q, WhyNo: true})
	snap := ws.next()
	if snap.Type != "snapshot" {
		t.Fatalf("first frame = %+v; want snapshot", snap)
	}

	// Insert exogenous R(a), S(a): q now holds on the real database
	// alone, so it is no longer a non-answer — the re-rank fails and
	// the frame carries the error in-band, leaving the stream open.
	ins := insertTuples(t, ts.URL, info.ID,
		TupleSpec{Rel: "R", Args: []string{"a"}},
		TupleSpec{Rel: "S", Args: []string{"a"}})
	ev := ws.next()
	if ev.Type != "error" || ev.Error == nil {
		t.Fatalf("frame after invalidating mutation = %+v; want error", ev)
	}

	// Delete one exogenous tuple: q is a non-answer again and the
	// stream recovers with a full resync of the re-validated ranking.
	deleteTuple(t, ts.URL, info.ID, ins.TupleIDs[0])
	ev = ws.next()
	if ev.Type != "full_resync" {
		t.Fatalf("frame after recovery = %+v; want full_resync", ev)
	}
	if len(ev.Ranking) == 0 {
		t.Fatal("recovered ranking is empty; want the candidate causes back")
	}
}

// TestWatchSharedTopic: two subscribers of the same key share one
// topic — both receive the same frames, and the second snapshot is
// served from topic state without recomputation.
func TestWatchSharedTopic(t *testing.T) {
	_, ts := newTest(t, Config{})
	info := upload(t, ts, mutateDBText)
	const q = "q(x) :- R(x,y), S(y)"
	req := WatchRequest{Query: q, Answer: []string{"a4"}}

	a := openWatch(t, ts.URL, info.ID, req)
	b := openWatch(t, ts.URL, info.ID, req)
	snapA, snapB := a.next(), b.next()
	if rankingJSON(t, snapA.Ranking) != rankingJSON(t, snapB.Ranking) || snapA.Version != snapB.Version {
		t.Fatalf("shared-topic snapshots diverge: %+v vs %+v", snapA, snapB)
	}
	ins := insertTuples(t, ts.URL, info.ID, TupleSpec{Rel: "S", Args: []string{"a3"}, Endo: true})
	evA, evB := a.next(), b.next()
	rawA, _ := json.Marshal(evA)
	rawB, _ := json.Marshal(evB)
	if !bytes.Equal(rawA, rawB) || evA.Version != ins.Version {
		t.Fatalf("shared-topic frames diverge: %s vs %s", rawA, rawB)
	}
}

// TestWatchBudget: Config.WatchBudget sheds subscriptions over the
// per-session cap with the budget taxonomy code, and closing a stream
// frees its slot.
func TestWatchBudget(t *testing.T) {
	_, ts := newTest(t, Config{WatchBudget: 1})
	info := upload(t, ts, chainDBText)
	const q = "q(x) :- R(x,y), S(y)"

	ws := openWatch(t, ts.URL, info.ID, WatchRequest{Query: q, Answer: []string{"a4"}})
	ws.next() // snapshot: the subscription is live

	code, wire := callErr(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/watch",
		WatchRequest{Query: q, Answer: []string{"a5"}})
	if code != 503 || wire.Code != "budget_exceeded" {
		t.Fatalf("over-budget watch: status %d code %q; want 503 budget_exceeded", code, wire.Code)
	}

	ws.close()
	waitForCondition(t, func() bool { return stats(t, ts).WatchesActive == 0 })
}

func waitForCondition(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestWatchSlowConsumerResync: a subscriber with a 1-frame buffer that
// stops reading while mutations pile up must recover with a
// full_resync frame equal to the cold ranking, not a broken diff
// chain.
func TestWatchSlowConsumerResync(t *testing.T) {
	_, ts := newTest(t, Config{})
	info := upload(t, ts, mutateDBText)
	const q = "q(x) :- R(x,y), S(y)"

	ws := openWatch(t, ts.URL, info.ID, WatchRequest{Query: q, Answer: []string{"a4"}, Buffer: 1})
	snap := ws.next()
	state := ApplyWatchEvent(nil, snap)

	// Fire mutations without reading: the handler is blocked writing at
	// most a frame or two into the response, the subscription's buffer
	// (1) fills, and later frames drop.
	var last MutateResponse
	for i := 0; i < 8; i++ {
		last = insertTuples(t, ts.URL, info.ID,
			TupleSpec{Rel: "S", Args: []string{fmt.Sprintf("w%d", i)}, Endo: true},
			TupleSpec{Rel: "R", Args: []string{"a4", fmt.Sprintf("w%d", i)}, Endo: true})
	}

	// Drain frames until the stream catches up to the final version;
	// every frame must keep the replayed state consistent, and at least
	// the final state must byte-equal the cold ranking.
	sawResync := false
	for {
		ev := ws.next()
		if ev.Type == "full_resync" {
			sawResync = true
		}
		state = ApplyWatchEvent(state, ev)
		if ev.Version == last.Version {
			break
		}
	}
	cold := explainWhySo(t, ts.URL, info.ID, q, "a4")
	if rankingJSON(t, state) != rankingJSON(t, cold.Explanations) {
		t.Fatalf("slow-consumer replay %s != cold %s", rankingJSON(t, state), rankingJSON(t, cold.Explanations))
	}
	_ = sawResync // lag is timing-dependent; correctness of the replay is the invariant
}

// TestWatchStats is the table-driven stats contract (watches_active,
// diff_events_sent, delta_fallbacks): each step mutates watch/mutation
// state and asserts the counters the /v1/stats payload must report.
func TestWatchStats(t *testing.T) {
	_, ts := newTest(t, Config{})
	info := upload(t, ts, mutateDBText)
	const q = "q(x) :- R(x,y), S(y)"

	// The stream outlives the subtests, so it is opened against the
	// parent t (openWatch registers its cleanup on the t it is given).
	var ws *watchStream
	steps := []struct {
		name string
		run  func()
		// want asserts on the stats snapshot taken after run.
		wantActive    int64
		wantEventsMin uint64 // diff_events_sent is cumulative; assert a floor
		wantFallbacks uint64
		wantPatched   uint64
	}{
		{
			name:       "no watches",
			run:        func() {},
			wantActive: 0,
		},
		{
			name: "one subscription, snapshot frame",
			run: func() {
				ws = openWatch(t, ts.URL, info.ID, WatchRequest{Query: q, Answer: []string{"a4"}})
				ws.next()
			},
			wantActive:    1,
			wantEventsMin: 1,
		},
		{
			name: "patchable insert fans out one diff",
			run: func() {
				insertTuples(t, ts.URL, info.ID, TupleSpec{Rel: "S", Args: []string{"a3"}, Endo: true})
				ws.next()
			},
			wantActive:    1,
			wantEventsMin: 2,
			wantPatched:   1,
		},
		{
			name: "exogenous delete falls back",
			run: func() {
				// Insert an exogenous S tuple and delete it: the delete is
				// unpatchable, so the (stale) a4 engine rebuilds cold.
				ins := insertTuples(t, ts.URL, info.ID, TupleSpec{Rel: "S", Args: []string{"zz"}})
				ws.next()
				deleteTuple(t, ts.URL, info.ID, ins.TupleIDs[0])
				ws.next()
			},
			wantActive:    1,
			wantEventsMin: 4,
			wantFallbacks: 1,
			wantPatched:   2, // the exo insert also patched the engine once
		},
		{
			name: "disconnect zeroes the gauge",
			run: func() {
				ws.close()
				waitForCondition(t, func() bool { return stats(t, ts).WatchesActive == 0 })
			},
			wantActive:    0,
			wantEventsMin: 4,
			wantFallbacks: 1,
		},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			step.run()
			st := stats(t, ts)
			if st.WatchesActive != step.wantActive {
				t.Errorf("watches_active = %d; want %d", st.WatchesActive, step.wantActive)
			}
			if st.DiffEventsSent < step.wantEventsMin {
				t.Errorf("diff_events_sent = %d; want >= %d", st.DiffEventsSent, step.wantEventsMin)
			}
			if st.DeltaFallbacks != step.wantFallbacks {
				t.Errorf("delta_fallbacks = %d; want %d", st.DeltaFallbacks, step.wantFallbacks)
			}
			if step.wantPatched > 0 && st.EnginesPatched < step.wantPatched {
				t.Errorf("engines_patched = %d; want >= %d", st.EnginesPatched, step.wantPatched)
			}
		})
	}
}

// TestWatchBadRequests pins the 4xx surface: unknown session, missing
// query, bad mode, and an invalid why-no instance must all fail the
// subscription up front (no stream, no registration).
func TestWatchBadRequests(t *testing.T) {
	_, ts := newTest(t, Config{})
	info := upload(t, ts, chainDBText)

	if code, wire := callErr(t, http.MethodPost, ts.URL+"/v1/databases/nope/watch",
		WatchRequest{Query: "q :- R(x,y)"}); code != 404 || wire.Code != "session_not_found" {
		t.Fatalf("unknown session: %d %q", code, wire.Code)
	}
	if code, _ := callErr(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/watch",
		WatchRequest{}); code != 400 {
		t.Fatalf("missing query: %d", code)
	}
	if code, _ := callErr(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/watch",
		WatchRequest{Query: "q :- R(x,y)", Mode: "bogus"}); code != 400 {
		t.Fatalf("bad mode: %d", code)
	}
	// A why-no that cannot hold even with every candidate tuple is an
	// invalid instance: the subscription fails up front.
	if code, _ := callErr(t, http.MethodPost, ts.URL+"/v1/databases/"+info.ID+"/watch",
		WatchRequest{Query: "q(x) :- R(x,y), S(y)", Answer: []string{"a9"}, WhyNo: true}); code != 422 {
		t.Fatalf("invalid why-no watch: %d", code)
	}
	if st := stats(t, ts); st.WatchesActive != 0 {
		t.Fatalf("failed subscriptions leaked the gauge: %d", st.WatchesActive)
	}
}

// TestWatchResumeReplaysMissedDiffs: a subscriber that disconnects,
// misses mutations, and resubscribes with resume_from gets exactly the
// retained diff frames it missed — no snapshot, no full_resync — and
// the stream then continues live. A second subscriber stays on the
// topic throughout, so even mutations affecting the watched query keep
// the diff chain alive (a subscriber-less topic hit by an affected
// mutation is dropped instead, and resumes pay a full_resync — that
// contract is TestWatchResumeBeyondBufferResyncs). Replaying missed
// plus live frames over the pre-disconnect state reconstructs the cold
// ranking.
func TestWatchResumeReplaysMissedDiffs(t *testing.T) {
	_, ts := newTest(t, Config{})
	info := upload(t, ts, mutateDBText)
	const q = "q(x) :- R(x,y), S(y)"
	req := WatchRequest{Query: q, Answer: []string{"a4"}}

	keeper := openWatch(t, ts.URL, info.ID, req) // keeps the topic live
	keeper.next()
	ws := openWatch(t, ts.URL, info.ID, req)
	state := ApplyWatchEvent(nil, ws.next())
	ins := insertTuples(t, ts.URL, info.ID, TupleSpec{Rel: "R", Args: []string{"a4", "a2"}, Endo: true})
	last := ws.next()
	if last.Version != ins.Version {
		t.Fatalf("live frame at version %d, want %d", last.Version, ins.Version)
	}
	state = ApplyWatchEvent(state, last)
	ws.close()

	// Missed while disconnected: two mutations, both touching watched
	// relations, so the replayed frames carry real diffs.
	missed1 := insertTuples(t, ts.URL, info.ID, TupleSpec{Rel: "S", Args: []string{"w1"}, Endo: true})
	missed2 := insertTuples(t, ts.URL, info.ID, TupleSpec{Rel: "R", Args: []string{"a4", "w1"}, Endo: true})

	req.ResumeFrom = last.Version
	ws2 := openWatch(t, ts.URL, info.ID, req)
	for _, want := range []MutateResponse{missed1, missed2} {
		ev := ws2.next()
		if ev.Type != "diff" || ev.Version != want.Version {
			t.Fatalf("replayed frame = type %q version %d; want diff at %d", ev.Type, ev.Version, want.Version)
		}
		state = ApplyWatchEvent(state, ev)
	}
	cold := explainWhySo(t, ts.URL, info.ID, q, "a4")
	if rankingJSON(t, state) != rankingJSON(t, cold.Explanations) {
		t.Fatalf("resumed replay %s != cold %s", rankingJSON(t, state), rankingJSON(t, cold.Explanations))
	}

	// The resumed stream is live, not just a replay: the next mutation
	// arrives as an ordinary diff.
	ins = insertTuples(t, ts.URL, info.ID, TupleSpec{Rel: "T", Args: []string{"zz"}, Endo: true})
	if ev := ws2.next(); ev.Type != "diff" || ev.Version != ins.Version {
		t.Fatalf("post-resume live frame = %+v; want empty diff at %d", ev, ins.Version)
	}
}

// TestWatchResumeGapFree: resuming exactly at the topic's current
// version replays nothing — the subscriber continues from where it
// left off, and the next frame it sees is the next mutation's diff.
func TestWatchResumeGapFree(t *testing.T) {
	_, ts := newTest(t, Config{})
	info := upload(t, ts, mutateDBText)
	const q = "q(x) :- R(x,y), S(y)"
	req := WatchRequest{Query: q, Answer: []string{"a4"}}

	ws := openWatch(t, ts.URL, info.ID, req)
	snap := ws.next()
	ws.close()

	// A gap-free resume has zero initial frames, and the handler only
	// flushes on frame writes — fire the mutation concurrently so the
	// subscribe call unblocks on its diff. Whether the mutation lands
	// before the resubscription (replayed) or after (delivered live),
	// the first frame is the same diff.
	done := make(chan MutateResponse, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		done <- insertTuples(t, ts.URL, info.ID, TupleSpec{Rel: "R", Args: []string{"a4", "a2"}, Endo: true})
	}()
	req.ResumeFrom = snap.Version
	ws2 := openWatch(t, ts.URL, info.ID, req)
	ev := ws2.next()
	ins := <-done
	if ev.Type != "diff" || ev.Version != ins.Version {
		t.Fatalf("gap-free resume's first frame = type %q version %d; want diff at %d", ev.Type, ev.Version, ins.Version)
	}
}

// TestWatchResumeBeyondBufferResyncs: a resume_from the diff buffer no
// longer covers recovers with a single full_resync frame whose ranking
// byte-equals the cold explain — and so does a resume onto a fresh
// topic (created after the original owner's topic died, e.g. on the
// new owner after a handoff) whose floor is above the resume point.
func TestWatchResumeBeyondBufferResyncs(t *testing.T) {
	_, ts := newTest(t, Config{})
	info := upload(t, ts, mutateDBText)
	const q = "q(x) :- R(x,y), S(y)"
	req := WatchRequest{Query: q, Answer: []string{"a4"}}

	// Fresh-topic case first: no one has watched this key, the topic's
	// floor is the current version, and a resume from version 1 (far in
	// the past) cannot be a diff chain.
	req.ResumeFrom = 1
	ws := openWatch(t, ts.URL, info.ID, req)
	ev := ws.next()
	if ev.Type != "full_resync" {
		t.Fatalf("fresh-topic stale resume frame = %q; want full_resync", ev.Type)
	}
	cold := explainWhySo(t, ts.URL, info.ID, q, "a4")
	if rankingJSON(t, ev.Ranking) != rankingJSON(t, cold.Explanations) {
		t.Fatalf("full_resync ranking %s != cold %s", rankingJSON(t, ev.Ranking), rankingJSON(t, cold.Explanations))
	}
	ws.close()

	// Aged-out case: push more frames than the topic retains, then
	// resume from before the retained window.
	resumeAt := ev.Version
	for i := 0; i < watchReplayBuffer+4; i++ {
		insertTuples(t, ts.URL, info.ID, TupleSpec{Rel: "S", Args: []string{fmt.Sprintf("w%d", i)}, Endo: true})
	}
	req.ResumeFrom = resumeAt
	ws2 := openWatch(t, ts.URL, info.ID, req)
	ev = ws2.next()
	if ev.Type != "full_resync" {
		t.Fatalf("aged-out resume frame = %q; want full_resync", ev.Type)
	}
	cold = explainWhySo(t, ts.URL, info.ID, q, "a4")
	if rankingJSON(t, ev.Ranking) != rankingJSON(t, cold.Explanations) {
		t.Fatalf("aged-out full_resync %s != cold %s", rankingJSON(t, ev.Ranking), rankingJSON(t, cold.Explanations))
	}
}

// TestWatchResumeOntoErroredTopic: resuming onto a topic wedged in an
// error state gets the error frame up front (not a bogus diff chain),
// and recovers with a full_resync once the instance is valid again.
func TestWatchResumeOntoErroredTopic(t *testing.T) {
	_, ts := newTest(t, Config{})
	info := upload(t, ts, "+R(a)\n+S(a)\n")
	const q = "q :- R(x), S(x)"
	req := WatchRequest{Query: q, WhyNo: true}

	ws := openWatch(t, ts.URL, info.ID, req)
	snap := ws.next()
	// Exogenous R(a), S(a) make q hold for real: the why-no instance is
	// invalid and the topic enters its error state.
	ins := insertTuples(t, ts.URL, info.ID,
		TupleSpec{Rel: "R", Args: []string{"a"}},
		TupleSpec{Rel: "S", Args: []string{"a"}})
	if ev := ws.next(); ev.Type != "error" {
		t.Fatalf("frame after invalidating mutation = %+v; want error", ev)
	}
	ws.close()

	req.ResumeFrom = snap.Version
	ws2 := openWatch(t, ts.URL, info.ID, req)
	ev := ws2.next()
	if ev.Type != "error" || ev.Error == nil {
		t.Fatalf("resume onto errored topic = %+v; want error frame", ev)
	}
	// Deleting one exogenous tuple re-validates the instance; the
	// resumed stream recovers like any live one.
	deleteTuple(t, ts.URL, info.ID, ins.TupleIDs[0])
	ev = ws2.next()
	if ev.Type != "full_resync" || len(ev.Ranking) == 0 {
		t.Fatalf("recovery frame = %+v; want non-empty full_resync", ev)
	}
}

// watchTestQuery is the query the WatchSet unit tests watch answers of.
var watchTestQuery = &rel.Query{Name: "q", Head: []rel.Term{rel.V("x")}, Atoms: []rel.Atom{{Pred: "R", Terms: []rel.Term{rel.V("x"), rel.V("y")}}}}

// subscribeTest subscribes to watchTestQuery's answer x ranked by rank.
func subscribeTest(ws *WatchSet, x string, buffer int, version, resumeFrom uint64, rank func() ([]ExplanationDTO, map[int]string, error)) (*WatchSub, []WatchEvent, error) {
	return ws.Subscribe(watchTestQuery, []rel.Value{rel.Value(x)}, false, core.ModeAuto, buffer, version, resumeFrom, rank)
}

func noRank() ([]ExplanationDTO, map[int]string, error) { return nil, nil, nil }

// TestWatchReplayRingBounded publishes ten rings' worth of frames into
// one topic: the ring's backing array must stay at one ring plus the
// slot an append needs, so aged-out frames are not kept reachable, and
// a resume from the floor must still replay the retained frames
// gap-free up to the live version.
func TestWatchReplayRingBounded(t *testing.T) {
	ws := NewWatchSet()
	// The ranking at version v is one cause with ρ = 1/v, so every
	// mutation's frame is a real diff.
	version := uint64(1)
	rank := func() ([]ExplanationDTO, map[int]string, error) {
		return []ExplanationDTO{{TupleID: 1, Rho: 1 / float64(version)}}, nil, nil
	}
	sub, initial, err := subscribeTest(ws, "a", 1, version, 0, rank)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Unsubscribe(sub)
	for i := 0; i < 10*watchReplayBuffer; i++ {
		version++
		ws.Fanout(version, map[string]bool{"R": true})
	}

	ws.mu.Lock()
	top := ws.topics[sub.key]
	ringLen, ringCap, floor := len(top.recent), cap(top.recent), top.floor
	ws.mu.Unlock()
	if ringLen != watchReplayBuffer || ringCap > watchReplayBuffer+1 {
		t.Fatalf("ring len %d cap %d after %d frames; want len %d, cap <= %d",
			ringLen, ringCap, 10*watchReplayBuffer, watchReplayBuffer, watchReplayBuffer+1)
	}
	if floor != version-watchReplayBuffer {
		t.Fatalf("floor = %d; want %d", floor, version-watchReplayBuffer)
	}

	resumed, replay, err := subscribeTest(ws, "a", 1, version, floor, rank)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Unsubscribe(resumed)
	if len(replay) != watchReplayBuffer {
		t.Fatalf("resume from floor replayed %d frames; want %d", len(replay), watchReplayBuffer)
	}
	state := []ExplanationDTO{{TupleID: 1, Rho: 1 / float64(floor)}}
	for i, ev := range replay {
		if want := floor + 1 + uint64(i); ev.Type != "diff" || ev.Version != want {
			t.Fatalf("replayed frame %d = type %q version %d; want diff at %d", i, ev.Type, ev.Version, want)
		}
		state = ApplyWatchEvent(state, ev)
	}
	want, _, _ := rank()
	if rankingJSON(t, state) != rankingJSON(t, want) {
		t.Fatalf("replay from floor = %s; want %s", rankingJSON(t, state), rankingJSON(t, want))
	}
	if initial[0].Type != "snapshot" {
		t.Fatalf("fresh subscription's first frame = %q; want snapshot", initial[0].Type)
	}
}

// TestFollowLagAndSupersede drives WatchSet.Follow, the subscriber loop
// both transports share, without timing: a lagged subscriber gets one
// full_resync of the topic's current state in place of its stale
// queued frame, a frame no newer than the last delivered one is
// skipped, and the loop reports why it stopped.
func TestFollowLagAndSupersede(t *testing.T) {
	ws := NewWatchSet()
	sub, initial, err := subscribeTest(ws, "a", 2, 1, 0, noRank)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Unsubscribe(sub)
	// A loop that misses the frame it should stop at fails on the
	// deadline instead of hanging the test.
	bounded, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	var got []string
	follow := func(ctx context.Context, initial []WatchEvent, from, until uint64) error {
		return ws.Follow(ctx, sub, initial, from, func(ev WatchEvent) bool {
			got = append(got, fmt.Sprintf("%s@%d", ev.Type, ev.Version))
			return ev.Version < until
		})
	}

	// Three mutations against a two-frame queue: v2 and v3 are queued,
	// v4 is dropped, and the subscription lags.
	for v := uint64(2); v <= 4; v++ {
		ws.Fanout(v, nil)
	}
	if err := follow(bounded, initial, 0, 4); err != nil {
		t.Fatalf("%v after frames %v", err, got)
	}
	sub.ch <- WatchEvent{Type: "diff", Version: 4}
	ws.Fanout(5, nil)
	if err := follow(bounded, nil, 4, 5); err != nil {
		t.Fatalf("%v after frames %v", err, got)
	}
	if want := []string{"snapshot@1", "full_resync@4", "diff@5"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("frames %v, want %v", got, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := follow(ctx, nil, 5, 99); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Follow returned %v", err)
	}
	ws.CloseAll()
	if err := follow(bounded, nil, 5, 99); err != errWatchClosed {
		t.Fatalf("Follow on a closed subscription returned %v", err)
	}
}

// TestWatchSetTopicIsolation: subscribers of one answer share a topic
// and its frames; a subscriber of another answer of the same query has
// its own topic, ranked by its own rank function.
func TestWatchSetTopicIsolation(t *testing.T) {
	ws := NewWatchSet()
	version := uint64(1)
	rankOf := func(id int) func() ([]ExplanationDTO, map[int]string, error) {
		return func() ([]ExplanationDTO, map[int]string, error) {
			return []ExplanationDTO{{TupleID: id, Rho: 1 / float64(version)}}, nil, nil
		}
	}
	var subs []*WatchSub
	for _, x := range []string{"a4", "a4", "a5"} {
		sub, _, err := subscribeTest(ws, x, 4, version, 0, rankOf(len(subs)))
		if err != nil {
			t.Fatal(err)
		}
		defer ws.Unsubscribe(sub)
		subs = append(subs, sub)
	}
	if n := ws.Active(); n != 3 || len(ws.topics) != 2 {
		t.Fatalf("Active() = %d over %d topics; want 3 over 2", n, len(ws.topics))
	}
	version = 2
	if n := ws.Fanout(version, map[string]bool{"R": true}); n != 3 {
		t.Fatalf("Fanout delivered %d frames, want 3", n)
	}
	// The a4 topic keeps the first subscriber's rank function: tuple 0.
	for i, want := range []int{0, 0, 2} {
		ev := <-subs[i].ch
		if len(ev.RankChanged) != 1 || ev.RankChanged[0].TupleID != want {
			t.Fatalf("subscriber %d got %+v; want a rank change of tuple %d", i, ev, want)
		}
	}
}

// TestWatchSetSlowConsumerLags: Fanout never blocks on a full
// subscriber; it drops the frame and marks the subscription lagged,
// and the frames still queued are the oldest ones.
func TestWatchSetSlowConsumerLags(t *testing.T) {
	ws := NewWatchSet()
	sub, _, err := subscribeTest(ws, "a", 2, 1, 0, noRank)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Unsubscribe(sub)
	delivered := 0
	for v := uint64(2); v <= 6; v++ {
		delivered += ws.Fanout(v, nil)
	}
	if delivered != 2 {
		t.Fatalf("Fanout delivered %d frames into a 2-frame buffer", delivered)
	}
	if !sub.lagged.Swap(false) {
		t.Fatal("subscriber with a full buffer must be marked lagged")
	}
	for _, want := range []uint64{2, 3} {
		if ev := <-sub.ch; ev.Version != want {
			t.Fatalf("queued frame at version %d, want %d", ev.Version, want)
		}
	}
}

// TestWatchSetUnsubscribeIdempotent: Unsubscribe closes the channel,
// a second call is a no-op, and the subscriber-less topic is retained
// for a resume but receives nothing.
func TestWatchSetUnsubscribeIdempotent(t *testing.T) {
	ws := NewWatchSet()
	sub, _, err := subscribeTest(ws, "a", 1, 1, 0, noRank)
	if err != nil {
		t.Fatal(err)
	}
	ws.Unsubscribe(sub)
	ws.Unsubscribe(sub)
	if _, ok := <-sub.ch; ok {
		t.Fatal("channel must be closed after Unsubscribe")
	}
	if n := ws.Active(); n != 0 || len(ws.topics) != 1 {
		t.Fatalf("after Unsubscribe: Active() = %d, %d topics; want 0 and 1 retained", n, len(ws.topics))
	}
	if n := ws.Fanout(2, nil); n != 0 {
		t.Fatalf("Fanout after Unsubscribe delivered %d frames", n)
	}
}

// TestWatchSetFanoutRace holds the no-send-after-close contract under
// the race detector: Fanout racing subscribers that Follow and
// Unsubscribe, and a CloseAll, never panics, and leaves no
// subscription counted.
func TestWatchSetFanoutRace(t *testing.T) {
	ws := NewWatchSet()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		sub, initial, err := subscribeTest(ws, fmt.Sprint(i%4), 1, 1, 0, noRank)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ws.Unsubscribe(sub)
			// Half the subscribers leave after their first live frame, the
			// rest follow until CloseAll ends them.
			_ = ws.Follow(context.Background(), sub, initial, 0, func(ev WatchEvent) bool {
				return ev.Type == "snapshot" || i%2 == 0
			})
		}()
	}
	for v := uint64(2); v <= 100; v++ {
		var rels map[string]bool // every third mutation re-ranks
		if v%3 == 0 {
			rels = map[string]bool{"R": true}
		}
		ws.Fanout(v, rels)
	}
	ws.CloseAll()
	wg.Wait()
	if n := ws.Active(); n != 0 {
		t.Fatalf("Active() = %d after every subscription ended", n)
	}
}
