// Package core is the causality engine of the reproduction: it wires
// the lineage machinery (Theorem 3.2), the dichotomy classifier
// (Corollary 4.14), the max-flow responsibility algorithm (Algorithm 1)
// and the exact solvers into one orchestrated API for Why-So and Why-No
// explanations of query answers and non-answers.
//
// Responsibility dispatch (Why-So):
//
//  1. t not an actual cause → ρ = 0 (Theorem 3.2).
//  2. t counterfactual (every minimal conjunct contains it) → ρ = 1.
//  3. Self-join-free query that is weakly linear under the *sound*
//     domination rule → Algorithm 1 (max-flow), polynomial time.
//  4. Otherwise → exact branch-and-bound search (the query is NP-hard,
//     in the paper's dichotomy gap, has self-joins, or is weakly linear
//     only under the paper's unsound domination rule).
//
// ModePaper reproduces the paper's behaviour literally (Algorithm 1 on
// any Definition 4.9 weakening); see the counterexample test for where
// it diverges from Definition 2.3.
package core

import (
	"fmt"
	"sync"

	"github.com/querycause/querycause/internal/exact"
	"github.com/querycause/querycause/internal/lineage"
	"github.com/querycause/querycause/internal/qerr"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/respflow"
	"github.com/querycause/querycause/internal/rewrite"
	"github.com/querycause/querycause/internal/shape"
	"github.com/querycause/querycause/internal/whyno"
)

// Mode selects the responsibility computation strategy.
type Mode int

const (
	// ModeAuto uses the flow algorithm when soundly applicable, exact
	// search otherwise.
	ModeAuto Mode = iota
	// ModeExact always uses exact branch-and-bound search.
	ModeExact
	// ModePaper follows the paper literally: Algorithm 1 whenever the
	// query is weakly linear under Definition 4.9. For queries whose
	// weakening uses an unsound domination this can disagree with
	// Definition 2.3 (see TestDominationCounterexample).
	ModePaper
)

// String renders the wire form of a mode: "auto", "exact", "paper".
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeExact:
		return "exact"
	case ModePaper:
		return "paper"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses the wire form of a mode; "" means ModeAuto.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "auto":
		return ModeAuto, nil
	case "exact":
		return ModeExact, nil
	case "paper":
		return ModePaper, nil
	}
	return 0, qerr.Tag(qerr.ErrBadQuery, fmt.Errorf("core: unknown mode %q (want auto, exact, or paper)", s))
}

// Method records how a responsibility value was computed.
type Method int

const (
	// MethodNone: the tuple is not an actual cause (ρ = 0).
	MethodNone Method = iota
	// MethodCounterfactual: ρ = 1 directly from the lineage.
	MethodCounterfactual
	// MethodFlow: Algorithm 1 (max-flow on the linearized query).
	MethodFlow
	// MethodExact: branch-and-bound minimum hitting set.
	MethodExact
	// MethodWhyNo: closed form for non-answers (Theorem 4.17).
	MethodWhyNo
)

func (m Method) String() string {
	switch m {
	case MethodNone:
		return "not-a-cause"
	case MethodCounterfactual:
		return "counterfactual"
	case MethodFlow:
		return "max-flow"
	case MethodExact:
		return "exact-search"
	case MethodWhyNo:
		return "why-no-closed-form"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ParseMethod inverts Method.String; the wire carries methods as
// strings and the remote client rehydrates them.
func ParseMethod(s string) (Method, bool) {
	for _, m := range []Method{MethodNone, MethodCounterfactual, MethodFlow, MethodExact, MethodWhyNo} {
		if m.String() == s {
			return m, true
		}
	}
	return MethodNone, false
}

// Explanation is the causal verdict for one tuple.
type Explanation struct {
	Tuple rel.TupleID
	// Rho is the responsibility ρ_t ∈ [0,1].
	Rho float64
	// ContingencySize is min|Γ|, or -1 when t is not a cause.
	ContingencySize int
	// Contingency is an actual minimum contingency set witnessing
	// ContingencySize: removing (Why-So) or inserting (Why-No) exactly
	// these tuples makes t counterfactual. Empty for counterfactual
	// causes; nil when t is not a cause.
	Contingency []rel.TupleID
	Method      Method
}

// Engine computes causes and responsibilities for one Boolean query
// over one database instance. Build one per (db, query, answer). An
// Engine may be shared by concurrent goroutines (e.g. a server
// answering repeated explain requests): the lazily computed
// certificates, flow networks and sorted rankings are mutex-guarded and
// read-only once built, every flow computation solves on residuals
// private to the call over the shared network, and everything else is
// immutable after construction. A mutation that can change an
// engine's answers replaces or drops the engine (see internal/server's
// invalidation), so none of these caches needs invalidating.
type Engine struct {
	db    *rel.Database
	q     *rel.Query
	whyNo bool

	nlineage lineage.DNF
	causeSet map[rel.TupleID]bool
	causes   []rel.TupleID

	// exIndex is the interned lineage backing every exact search on
	// this engine: built once (lazily — flow-only engines never pay for
	// it), then shared read-only by all causes and workers.
	exOnce  sync.Once
	exIndex *lineage.Index

	// mu guards the lazy caches below; all other fields are read-only
	// after newEngine returns. A cached network is read-only once
	// built, so workers solve on it without the lock. ranks memoizes
	// Rank's sorted result per mode, allocated by the first Rank (most
	// engines of an in-process session are never ranked twice); Rank
	// hands out deep copies, so the memo itself is never written after
	// it is stored.
	mu        sync.Mutex
	soundCert *rewrite.Certificate
	paperCert *rewrite.Certificate
	nets      map[Mode]*respflow.Network
	ranks     map[Mode][]Explanation
}

// NewWhySo builds the engine for an answer: q may be Boolean (no
// answer values) or have a head matching the answer tuple, which is
// bound per Section 2.
func NewWhySo(db *rel.Database, q *rel.Query, answer ...rel.Value) (*Engine, error) {
	bq := q
	if len(q.Head) > 0 || len(answer) > 0 {
		var err error
		bq, err = q.Bind(answer...)
		if err != nil {
			return nil, err
		}
	}
	return newEngine(db, bq, false)
}

// NewWhyNo builds the engine for a non-answer: the database's
// endogenous tuples are the candidate missing tuples Dⁿ. The instance
// is validated (q false on Dˣ, true on Dˣ ∪ Dⁿ).
func NewWhyNo(db *rel.Database, q *rel.Query, nonAnswer ...rel.Value) (*Engine, error) {
	bq := q
	if len(q.Head) > 0 || len(nonAnswer) > 0 {
		var err error
		bq, err = q.Bind(nonAnswer...)
		if err != nil {
			return nil, err
		}
	}
	if err := whyno.CheckInstance(db, bq); err != nil {
		return nil, err
	}
	return newEngine(db, bq, true)
}

func newEngine(db *rel.Database, bq *rel.Query, isWhyNo bool) (*Engine, error) {
	if err := bq.Validate(db); err != nil {
		return nil, err
	}
	n, err := lineage.NLineageOf(db, bq)
	if err != nil {
		return nil, err
	}
	return engineFromLineage(db, bq, n, isWhyNo), nil
}

// NewWhySoFromLineage builds a Why-So engine around an externally
// maintained minimal endogenous lineage, skipping the evaluation pass
// entirely. The delta-maintenance layer (internal/delta) uses it to
// revive an invalidated engine from a patched DNF; the caller is
// responsible for n being exactly the minimal Φⁿ of bq on db (the
// differential harness holds patched engines byte-identical to cold
// ones). bq must already be Boolean (answer bound).
func NewWhySoFromLineage(db *rel.Database, bq *rel.Query, n lineage.DNF) (*Engine, error) {
	if err := bq.Validate(db); err != nil {
		return nil, err
	}
	return engineFromLineage(db, bq, n, false), nil
}

func engineFromLineage(db *rel.Database, bq *rel.Query, n lineage.DNF, isWhyNo bool) *Engine {
	e := &Engine{
		db: db, q: bq, whyNo: isWhyNo,
		nlineage: n,
		causeSet: make(map[rel.TupleID]bool),
		nets:     make(map[Mode]*respflow.Network),
	}
	if !n.True {
		e.causes = n.Vars()
		for _, id := range e.causes {
			e.causeSet[id] = true
		}
	}
	return e
}

// Causes returns all actual causes, sorted by tuple ID (Theorem 3.2).
func (e *Engine) Causes() []rel.TupleID {
	return append([]rel.TupleID(nil), e.causes...)
}

// NLineage exposes the minimal endogenous lineage (for display).
func (e *Engine) NLineage() lineage.DNF { return e.nlineage }

// Query returns the bound Boolean query the engine explains.
func (e *Engine) Query() *rel.Query { return e.q }

// WhyNo reports whether the engine explains a non-answer. The
// delta-maintenance layer branches on it: Why-No lineage is computed
// over a hypothetical instance and is never patched incrementally.
func (e *Engine) WhyNo() bool { return e.whyNo }

// Touches reports (in O(1)) whether the identified tuple occurs in the
// engine's minimal endogenous lineage. A mutation of a tuple the
// lineage does not touch provably leaves this engine's explanations
// unchanged — deleting such an exogenous tuple can only remove
// witnesses whose minimized conjuncts never referenced it, and the
// minimization already canceled any conjunct it appeared in against a
// surviving subset (see internal/server's invalidation rules).
func (e *Engine) Touches(id rel.TupleID) bool { return e.causeSet[id] }

// Mentions reports whether the engine's bound query references the
// named relation in any atom. Insertions (and exogenous deletions) can
// only affect engines whose query mentions the mutated relation, so
// this is the conservative invalidation predicate for them.
func (e *Engine) Mentions(relName string) bool {
	for _, a := range e.q.Atoms {
		if a.Pred == relName {
			return true
		}
	}
	return false
}

// EndoFn returns the endogeneity rule the engine classifies under: a
// relation is endogenous iff it holds at least one endogenous tuple.
// Anything that computes certificates on the engine's behalf (e.g. a
// server's certificate cache feeding Prime) must use this same rule.
func EndoFn(db *rel.Database) func(relName string) bool {
	return func(name string) bool {
		r := db.Relation(name)
		if r == nil {
			return false
		}
		return r.HasEndo()
	}
}

// endoShape flags a relation endogenous per EndoFn.
func (e *Engine) endoShape() *shape.Shape {
	return shape.FromQuery(e.q, EndoFn(e.db))
}

// Classification returns the sound-rule certificate used by ModeAuto.
func (e *Engine) Classification() (*rewrite.Certificate, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.certificateLocked(ModeAuto)
}

// PaperClassification returns the Definition 4.9 certificate (Fig. 3
// semantics) used by ModePaper.
func (e *Engine) PaperClassification() (*rewrite.Certificate, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.certificateLocked(ModePaper)
}

// certificateLocked returns the certificate mode dispatches on — the
// Definition 4.9 one for ModePaper, the sound-rule one otherwise —
// classifying on first use. The caller holds mu.
func (e *Engine) certificateLocked(mode Mode) (*rewrite.Certificate, error) {
	slot, classify := &e.soundCert, rewrite.ClassifySound
	if mode == ModePaper {
		slot, classify = &e.paperCert, rewrite.Classify
	}
	if *slot == nil {
		c, err := classify(e.endoShape())
		if err != nil {
			return nil, err
		}
		*slot = c
	}
	return *slot, nil
}

// Prime seeds the engine's lazily computed certificates with
// classifications obtained elsewhere (e.g. a server's certificate
// cache), so the first Responsibility call skips re-classification.
// Either argument may be nil to leave that slot lazy. The certificates
// must have been derived from the same query shape and endogenous
// flags the engine sees (the same bound query over the same database,
// up to variable names: the flow network reads shape variables by
// first occurrence, not by name); Prime does not re-validate this.
func (e *Engine) Prime(sound, paper *rewrite.Certificate) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if sound != nil && e.soundCert == nil {
		e.soundCert = sound
	}
	if paper != nil && e.paperCert == nil {
		e.paperCert = paper
	}
}

// exactIndex returns the interned lineage index backing the exact
// solvers, built on first use and shared (read-only) by every
// concurrent worker afterwards.
func (e *Engine) exactIndex() *lineage.Index {
	e.exOnce.Do(func() { e.exIndex = lineage.NewIndex(e.nlineage) })
	return e.exIndex
}

// isCounterfactual reports whether every minimal conjunct contains t.
func (e *Engine) isCounterfactual(t rel.TupleID) bool {
	if e.nlineage.True || len(e.nlineage.Conjuncts) == 0 {
		return false
	}
	for _, c := range e.nlineage.Conjuncts {
		if !c.Contains(t) {
			return false
		}
	}
	return true
}

// baseNetwork returns the engine's flow network for mode — built on
// first use and cached read-only, every flow computation solving on it
// — or nil when no cause takes the flow path:
// Why-No engines, ModeExact, self-joins, queries the mode's
// certificate does not place on the PTIME side of the dichotomy, and
// lineages whose causes are all counterfactual.
func (e *Engine) baseNetwork(mode Mode) (*respflow.Network, error) {
	if e.whyNo || mode == ModeExact || e.q.HasSelfJoin() || !e.anyNonCounterfactualCause() {
		return nil, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if net, ok := e.nets[mode]; ok {
		return net, nil
	}
	cert, err := e.certificateLocked(mode)
	if err != nil || !cert.Class.PTime() {
		return nil, nil // not weakly linear (or unclassifiable): exact search
	}
	ws, order, err := cert.Replay()
	if err != nil {
		return nil, err
	}
	net, err := respflow.Build(e.db, e.q, ws, order)
	if err != nil {
		return nil, err
	}
	e.nets[mode] = net
	return net, nil
}

// Prepare resolves everything a ranking in mode reads from the
// database — the mode's certificate and, on the flow path, its base
// network — so that the solving which follows reads only the engine's
// own state (lineage, certificates, networks). A caller whose database
// may be mutated while it ranks calls Prepare under the lock its
// mutations take and then ranks without holding it; Rank and RankStream
// prepare on their own otherwise.
func (e *Engine) Prepare(mode Mode) error {
	_, err := e.baseNetwork(mode)
	return err
}

// anyNonCounterfactualCause reports whether some cause would reach the
// flow/exact dispatch (i.e. needs more than the lineage to explain).
func (e *Engine) anyNonCounterfactualCause() bool {
	for _, t := range e.causes {
		if !e.isCounterfactual(t) {
			return true
		}
	}
	return false
}

// Responsibility computes the explanation for tuple t, on the flow path
// by solving on the engine's shared network like a ranking worker.
// Requests for tuples that can never be causes (out of range, or
// exogenous) are tagged qerr.ErrNotCause.
func (e *Engine) Responsibility(t rel.TupleID, mode Mode) (Explanation, error) {
	if int(t) < 0 || int(t) >= e.db.NumTuples() {
		return Explanation{}, qerr.Tag(qerr.ErrNotCause, fmt.Errorf("core: tuple id %d out of range", t))
	}
	if !e.db.Endo(t) {
		return Explanation{}, qerr.Tag(qerr.ErrNotCause, fmt.Errorf("core: tuple %s is exogenous; only endogenous tuples have responsibilities", e.db.Render(t)))
	}
	var net *respflow.Network
	if e.causeSet[t] && !e.isCounterfactual(t) {
		var err error
		if net, err = e.baseNetwork(mode); err != nil {
			return Explanation{}, err
		}
	}
	return e.explain(t, net), nil
}

// explain computes the explanation for one endogenous tuple. A non-nil
// net (the engine's network for the mode) selects the flow path; nil
// dispatches the non-trivial Why-So case to the exact solver. The
// network is read-only and everything else explain reads on the engine
// is immutable after construction, so concurrent calls are race-free.
func (e *Engine) explain(t rel.TupleID, net *respflow.Network) Explanation {
	if !e.causeSet[t] {
		return Explanation{Tuple: t, Rho: 0, ContingencySize: -1, Method: MethodNone}
	}
	if e.whyNo {
		set, ok := whyno.MinContingencySetDNF(e.nlineage, t)
		if !ok {
			return Explanation{Tuple: t, Rho: 0, ContingencySize: -1, Method: MethodNone}
		}
		size := len(set)
		return Explanation{Tuple: t, Rho: 1 / (1 + float64(size)), ContingencySize: size, Contingency: set, Method: MethodWhyNo}
	}
	if e.isCounterfactual(t) {
		return Explanation{Tuple: t, Rho: 1, ContingencySize: 0, Contingency: []rel.TupleID{}, Method: MethodCounterfactual}
	}
	if net != nil {
		set, ok := net.Contingency(t)
		if !ok {
			// Causes always admit a finite protected cut; reaching this
			// point indicates an engine bug, except under ModePaper where
			// unsound weakenings may mis-handle edge cases.
			return Explanation{Tuple: t, Rho: 0, ContingencySize: -1, Method: MethodFlow}
		}
		size := len(set)
		return Explanation{Tuple: t, Rho: 1 / (1 + float64(size)), ContingencySize: size, Contingency: set, Method: MethodFlow}
	}
	set, ok := exact.MinContingencySetIndex(e.exactIndex(), t, exact.Options{})
	if !ok {
		return Explanation{Tuple: t, Rho: 0, ContingencySize: -1, Method: MethodExact}
	}
	size := len(set)
	return Explanation{Tuple: t, Rho: 1 / (1 + float64(size)), ContingencySize: size, Contingency: set, Method: MethodExact}
}
