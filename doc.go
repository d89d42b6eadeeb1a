// Package querycause is a from-scratch Go implementation of
//
//	Meliou, Gatterbauer, Moore, Suciu:
//	"The Complexity of Causality and Responsibility for Query Answers
//	and non-Answers", PVLDB 4(1), 2010 (also UW CSE TR / arXiv:1009.2021)
//
// The module path is github.com/querycause/querycause; import this
// root package as
//
//	import qc "github.com/querycause/querycause"
//
// It explains answers and non-answers of conjunctive queries over
// relational data through the lens of actual causality: given a
// database partitioned into endogenous tuples (candidate causes) and
// exogenous tuples (context), it computes
//
//   - the actual causes of an answer (Why-So) or non-answer (Why-No) —
//     always in polynomial time, by the n-lineage criterion of
//     Theorem 3.2, or equivalently by a generated stratified Datalog¬
//     program (Theorem 3.4);
//   - each cause's responsibility ρ_t = 1/(1+min|Γ|) over contingency
//     sets Γ (Definition 2.3) — by the max-flow Algorithm 1 when the
//     query is (weakly) linear, and by exact branch-and-bound search on
//     the NP-hard side of the dichotomy of Corollary 4.14;
//   - the dichotomy classification itself, with replayable certificates
//     (weakening sequences or rewrite chains to the canonical hard
//     queries h₁*, h₂*, h₃* of Theorem 4.1).
//
// # The Session API: one interface, two transports
//
// All explanation goes through the Session interface. Open(db) runs
// the engine in-process; Dial(ctx, url, db) uploads the database into
// a querycaused server and serves the same interface over HTTP. The
// two transports are deliberately indistinguishable — byte-identical
// rankings, errors.Is-equal failures — and the differential harness
// (internal/difftest) enforces that equivalence on randomized
// instances in CI.
//
//	sess, _ := qc.Open(db)                        // in-process
//	// sess, _ := qc.Dial(ctx, serverURL, db)     // same calls over HTTP
//	defer sess.Close()
//
//	r, err := sess.WhySo(ctx, q, "a4")            // causes computed here (PTIME)
//	if err != nil { ... }
//	ranked, err := r.Rank(ctx)                    // the Fig. 2b ranking
//
// Every method is context-first; cancellation and deadlines propagate
// into the engine (between per-cause computations) and over the wire.
// Functional options configure a session at Open/Dial or per call:
//
//	qc.Open(db, qc.WithMode(qc.ModeExact), qc.WithParallelism(8))
//	r.Rank(ctx, qc.WithTimeout(5*time.Second))
//
// WithMode picks the responsibility strategy, WithParallelism the
// worker count (rankings are byte-identical at every degree),
// WithTimeout a per-call budget, WithDeterministic the streaming
// emission order; WithHTTPClient and WithRetries tune a Dial'ed
// session's transport.
//
// # Mutable sessions
//
// Sessions are not frozen at the database they were opened with:
// Session.Insert appends tuples (an atomic, validated batch returning
// the assigned tuple ids) and Session.Delete removes one tuple by id.
// Ids are never reused — a deleted id stays dead, Delete on it fails
// with ErrTupleNotFound, and historical explanations keep rendering
// the removed tuple. Mutations serialize against in-flight explains on
// both transports; Rankings opened before a mutation are stale and
// should be re-opened.
//
// Mutating beats re-uploading because invalidation is incremental: the
// server consults the lineage each cached per-answer engine already
// computed and drops only what the mutation can actually change —
// deleting an endogenous tuple invalidates exactly the engines whose
// cause set contains it (Theorem 3.2 makes the cause set the lineage
// variables), inserts and exogenous deletes invalidate engines over
// queries mentioning the relation, and only a mutation that flips a
// relation's endogeneity (first endogenous tuple in, or last one out)
// touches the cached dichotomy certificates whose shape mentions it
// (classification runs against the endogenous/exogenous split,
// Corollary 4.14). Everything else keeps answering warm, and the
// differential harness holds the surviving state byte-identical to a
// cold rebuild at the final version.
//
// # Live explanations
//
// Session.Watch turns an explanation from a poll into a subscription:
// it yields a snapshot of the current ranking and then one diff frame
// per mutation call, each carrying the causes added and removed, the
// causes whose responsibility changed (old ρ, new ρ, new
// explanation), and the database version it brings the subscriber to:
//
//	for ev, err := range sess.Watch(ctx, qc.WatchSpec{Query: q, Answer: []qc.Value{"a4"}}) {
//	    if err != nil { ... }              // terminal: cancellation or setup
//	    state = qc.ApplyDiff(state, ev)    // replay ≡ cold Rank at ev.Version
//	}
//
// ApplyDiff is the canonical replay, and the contract it folds over is
// enforced by the differential harness: after any mutation sequence,
// the replayed frames equal a cold ranking at the final version byte
// for byte, on both transports (remotely the stream is NDJSON from
// POST …/watch, routed to the session's owning node on a cluster). A
// slow consumer is never left silently stale — when its frame buffer
// overflows, the backlog is dropped and a full_resync frame carries
// the complete current ranking instead. WhyNo watches subscribe to a
// non-answer the same way.
//
// Under the hood, mutations keep watched engines warm through delta
// maintenance (internal/delta): instead of dropping a cached engine
// whose relation was touched, the server patches its lineage DNF in
// place when the patch is provably equivalent (endogenous inserts and
// deletes; exogenous deletes and why-no engines fall back cold), so
// the re-ranking behind each diff frame skips re-evaluating the
// query. The mutate response and /v1/stats report the split
// (engines_patched vs delta_fallbacks); BENCH_delta.json records the
// win over cold rebuilds on the million-tuple curve.
//
// # Streaming rankings
//
// The dichotomy makes full rankings either instant (max-flow) or
// minutes-long (one NP-hard exact search per cause). RankStream
// returns a Go iterator that yields each cause's explanation the
// moment its own computation completes, so the first explanation of
// an NP-hard instance costs one search instead of all of them:
//
//	for e, err := range r.RankStream(ctx) {
//	    if err != nil { ... }          // terminal: cancellation or setup
//	    fmt.Printf("ρ=%.2f %s\n", e.Rho, db.Render(e.Tuple))
//	}
//
// The default emission order is ascending cause order — deterministic
// for every worker count and identical on both transports (over HTTP
// the stream is NDJSON from POST …/explain/stream);
// WithDeterministic(false) switches to completion order for minimal
// time-to-first-explanation. Either way, a drained stream sorted with
// SortExplanations equals Rank byte-for-byte. BENCH_api.json records
// the time-to-first-explanation win and the per-transport overhead.
//
// # The error taxonomy
//
// Failures are tagged with sentinel errors — ErrBadQuery,
// ErrBadInstance, ErrInvalidWhyNo, ErrNotCause, ErrSessionNotFound,
// ErrQueryNotFound, ErrTupleNotFound, ErrBudgetExceeded,
// ErrSessionClosed — carried as
// machine-readable codes in the wire ErrorResponse and rehydrated by
// the client, so callers branch the same way on either transport:
//
//	if errors.Is(err, qc.ErrInvalidWhyNo) { ... }   // local and remote
//
// Messages remain human-readable; ErrorCode(err) exposes the wire
// code.
//
// # Batching and the explanation server
//
// Session.ExplainAll explains many answers/non-answers in one call,
// fanned out across a worker pool (in-process) or through the
// server's batch endpoint (remote) with identical semantics. The
// querycaused server itself (cmd/querycaused, internal/server) keeps
// a session registry with LRU/TTL eviction, prepared queries
// classified once, and certificate/lineage caches, behind
// admission-controlled JSON endpoints. Three commands build on the
// library:
//
//	go run ./cmd/causality    one-shot explanations (add -server URL for
//	                          remote, -stream for incremental output)
//	go run ./cmd/experiments  every figure/table/construction of the paper
//	                          (plus a server load generator, -run load)
//	go run ./cmd/querycaused  the long-running explanation server
//
// Session is the only explanation API: the context-free v1 entry
// points (package-level WhySo/WhyNo and ExplainAll, and the rankers
// they returned) have been removed; see "Migrating from the v1 API" in
// README.md for the mapping. The raw Client remains for
// server-specific features (prepared queries, stats).
//
// # Clustering and durability
//
// querycaused shards horizontally: started with -self and an initial
// -peers list, each node joins a consistent-hash ring
// (internal/cluster) that assigns every session id exactly one owner.
// Session-id minting picks ids the creating node owns, so uploads
// never hop; a request landing on the wrong node is answered with a
// 307 to the owner (or reverse-proxied under -cluster-proxy), and GET
// /v1/cluster publishes the topology. The client follows one cluster
// hop transparently, and Dial probes the topology to connect straight
// to the owner. With -persist-dir set, sessions are snapshotted
// write-behind (versioned, checksummed gob, one file per session
// under the directory) every -persist-interval, flushed on SIGTERM,
// and restored warm at boot — same session ids, prepared-query ids,
// and cached certificates — so a drained replica loses nothing.
// Per-session explain budgets (-session-budget) shed runaway tenants
// with ErrBudgetExceeded. See "Running a cluster" in README.md.
//
// # Surviving failures
//
// Membership is dynamic: the ring is versioned by an epoch, and
// Client.JoinNode / Client.RemoveNode (POST/DELETE /v1/cluster/nodes
// against any member) mint the next epoch and propagate it to every
// node with epoch-monotone installs. A topology change rebalances:
// sessions whose ids now hash elsewhere are frozen, snapshotted, and
// handed to their new owners warm — caches, prepared queries, and the
// idempotency ledger included — while racing requests get 503 +
// Retry-After rather than errors. Redirects carry the new epoch in
// X-Cluster-Epoch so pinned clients refresh their ring. On the client
// side, retries back off exponentially with jitter (honoring a
// server-sent Retry-After), mutation retries are deduplicated with
// Idempotency-Key so an ambiguous timeout cannot double-apply, a dead
// pinned base fails over to SetFallbacks bases, and watch streams
// reconnect with resume_from to continue their diff chain gap-free
// (or re-seed with one full_resync when the server's replay buffer no
// longer covers the gap). internal/faultinject drops, delays, errors,
// and truncates requests at the transport to prove all of it: the
// differential sweep runs under injected faults, and the chaoscurve
// soak (cmd/experiments -run chaoscurve) joins and kills nodes under
// mixed load with live watches, requiring zero unrecovered failures
// and byte-equal watch replays. See "Operating the cluster" in
// README.md.
//
// # The data plane
//
// Databases are stored columnar and dictionary-interned
// (internal/rel): per-column uint32 code vectors over a per-database
// value dictionary, with per-column code indexes built on first probe
// and maintained in place by every insert and delete. Query evaluation
// is a planned streaming pipeline (internal/ra) — atoms ordered by
// selectivity, joins that probe those persistent indexes on shared
// variables, bindings flowing through reusable buffers as codes — so
// an evaluation costs what it returns rather than a hash build over
// every relation it touches. A valuation is the list of witness rows
// that produced it, so lineage is captured during evaluation rather
// than recomputed in a second pass, and Algorithm 1's flow network is
// laid out from the witnesses' codes. The
// naive row-at-a-time reference evaluator remains available
// (rel.EvalNaive), and the differential harness holds the two planes
// to identical valuations and byte-identical lineage DNFs.
// BENCH_eval.json records the size curve to a million tuples.
//
// # Verifying the dichotomy
//
// The dichotomy is not just implemented but continuously enforced by
// a differential and metamorphic harness (internal/difftest): a
// seeded generator emits arbitrary safe conjunctive queries with
// randomized endogenous/exogenous masks (Why-So and Why-No), and
// every instance is cross-checked — flow vs exact rankings, every
// contingency set witness-validated against the database, brute-force
// oracles confirming each minimum and each non-cause, the Theorem 3.4
// Datalog¬ program re-deriving the cause set, metamorphic invariants
// (exogenous duplication, non-cause exogenous marking, irrelevant
// growth), a byte-level replay through the querycaused server, the
// Session-transport equivalence above, and seeded random mutation
// sequences whose incrementally-maintained session state must equal a
// cold rebuild at the final version byte-for-byte. Instances derive from a
// single int64 seed, so any failure reproduces with
//
//	go test ./internal/difftest -run 'TestDifferentialSweep$' -args -seed=<N> -n=1
//
// and is auto-shrunk for internal/difftest/testdata/. CI sweeps 4k
// instances under the race detector on every push and soaks 50k
// nightly via cmd/fuzzcause; go test -fuzz targets
// (FuzzDifferential, FuzzGreedyVsExact, FuzzParseDatabase,
// FuzzParseQuery) extend the search coverage-guided.
//
// # Fidelity notes
//
// The library reproduces every definition, algorithm, worked example
// and reduction in the paper, and documents two findings made during
// the reproduction (see the tests in internal/core and
// internal/rewrite): the domination rule of Definition 4.9 does not
// always preserve responsibility (Example 4.12b admits a concrete
// counterexample instance), and the dichotomy machinery of Theorem 4.13
// implicitly assumes connected queries. The default engine therefore
// uses a provably sound restriction of domination and falls back to
// exact search elsewhere; ModePaper reproduces the paper's literal
// behaviour.
package querycause
