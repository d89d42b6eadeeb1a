// Package causegen generates, from a Boolean conjunctive query, the
// stratified Datalog¬ program of Theorem 3.4 of Meliou et al.
// (VLDB 2010) that computes all actual causes (Why-So or Why-No) as
// relational views — one IDB predicate C_R per relation R.
//
// # Construction
//
// The program works over per-relation endogenous/exogenous views: for
// each relation R the EDB exposes R#n (endogenous tuples) and R#x
// (exogenous tuples). Following the proof of Theorem 3.4:
//
//   - A refinement N ⊆ atoms labels each atom endogenous or exogenous;
//     a valuation θ realizes exactly one refinement.
//   - θ's conjunct (its set of endogenous witness tuples) is redundant
//     iff some valuation θ′ has endo(θ′) ⊊ endo(θ). Containment is
//     witnessed by a relation-preserving map f from the endogenous atoms
//     M of θ′'s refinement into N with θ′(g) = θ(f(g)); unifying the
//     pattern of g with that of f(g) yields equalities among θ′'s and
//     θ's variables (the proof's "image queries").
//   - Strictness reduces to a condition on θ alone: some h ∈ N must have
//     θ(h) ∉ {θ(f(g))}, i.e. θ(h) ≠ θ(f(g)) for every g ∈ M with
//     rel(g) = rel(h) — a conjunction of tuple-disequalities.
//
// For each refinement N the generator emits a witness predicate W_N
// (one rule per containment pattern (M, f, h)) holding the variable
// bindings of redundant valuations, and cause rules
// C_R(x̄_j) :- body(N), ¬W_N(all vars). The program has exactly two
// strata, as Theorem 3.4 states.
//
// # Deviation from the paper (see the fidelity notes in doc.go)
//
// The paper's Example 3.6 program lacks a strictness guard for
// valuations whose self-join atoms collapse onto the same tuple: on
// R = {(a4,a3),(a3,a3)}, S = {a3,a4} it rejects the true cause S(a3).
// The disequality constraints above repair this; for self-join-free
// queries they vanish and the program coincides with the paper's
// (Example 3.5 is reproduced verbatim as a golden test).
package causegen

import (
	"fmt"
	"sort"
	"strings"

	"github.com/querycause/querycause/internal/datalog"
	"github.com/querycause/querycause/internal/rel"
)

// EndoSuffix and ExoSuffix name the per-relation EDB views.
const (
	EndoSuffix = "#n"
	ExoSuffix  = "#x"
)

// CausePred returns the IDB predicate name carrying causes of relation
// relName.
func CausePred(relName string) string { return "C_" + relName }

// Hints tell the generator which relations can hold endogenous or
// exogenous tuples, pruning refinements that cannot match anything.
// A nil entry (relation absent) means "both possible".
type Hints map[string]struct{ HasEndo, HasExo bool }

// HintsFromDB derives hints from an instance, reading the endo flags.
func HintsFromDB(db *rel.Database) Hints {
	h := make(Hints)
	for name, r := range db.Relations {
		e := struct{ HasEndo, HasExo bool }{}
		for _, id := range r.RowIDs() {
			if db.Endo(id) {
				e.HasEndo = true
			} else {
				e.HasExo = true
			}
		}
		h[name] = e
	}
	return h
}

func (h Hints) may(relName string, endo bool) bool {
	if h == nil {
		return true
	}
	e, ok := h[relName]
	if !ok {
		return false // relation absent: no tuples at all
	}
	if endo {
		return e.HasEndo
	}
	return e.HasExo
}

// Generate builds the cause program for the Boolean query q. With nil
// hints all 2^m refinements are emitted; with hints, impossible
// refinements are pruned (Corollary 3.7 then yields a purely positive
// program when each relation is fully endogenous or exogenous and no
// endogenous relation repeats).
func Generate(q *rel.Query, hints Hints) (*datalog.Program, error) {
	if !q.IsBoolean() {
		return nil, fmt.Errorf("causegen: query %s is not Boolean; bind the answer first", q.Name)
	}
	m := len(q.Atoms)
	if m == 0 {
		return nil, fmt.Errorf("causegen: empty query")
	}
	if m > 12 {
		return nil, fmt.Errorf("causegen: %d atoms exceed the generator's limit (refinements are exponential in the atom count)", m)
	}
	allVars := q.Vars()
	prog := &datalog.Program{}
	ruleSeen := make(map[string]bool)
	addRule := func(r datalog.Rule) {
		k := r.String()
		if !ruleSeen[k] {
			ruleSeen[k] = true
			prog.Rules = append(prog.Rules, r)
		}
	}

	for bits := 0; bits < (1 << m); bits++ {
		n := subset(bits, m)
		if !refinementPossible(q, n, hints) {
			continue
		}
		if len(n) == 0 {
			continue // no endogenous atoms: no causes from this refinement
		}
		wPred := witnessPred(n)
		wRules := witnessRules(q, n, wPred, allVars, hints)
		for _, r := range wRules {
			addRule(r)
		}
		body := refinementBody(q, n)
		for _, j := range n {
			head := datalog.Literal{Pred: CausePred(q.Atoms[j].Pred), Terms: toDatalogTerms(q.Atoms[j].Terms, "")}
			rule := datalog.Rule{Head: head, Body: append([]datalog.Literal(nil), body...)}
			if len(wRules) > 0 {
				rule.Body = append(rule.Body, datalog.Not(wPred, varTerms(allVars)...))
			}
			addRule(rule)
		}
	}
	return prog, nil
}

// subset expands a bitmask into sorted atom indexes.
func subset(bits, m int) []int {
	var out []int
	for i := 0; i < m; i++ {
		if bits&(1<<i) != 0 {
			out = append(out, i)
		}
	}
	return out
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func refinementPossible(q *rel.Query, n []int, hints Hints) bool {
	for i, a := range q.Atoms {
		if !hints.may(a.Pred, contains(n, i)) {
			return false
		}
	}
	return true
}

// refinementBody renders the atoms of q with #n/#x views per the
// refinement.
func refinementBody(q *rel.Query, n []int) []datalog.Literal {
	out := make([]datalog.Literal, len(q.Atoms))
	for i, a := range q.Atoms {
		suffix := ExoSuffix
		if contains(n, i) {
			suffix = EndoSuffix
		}
		out[i] = datalog.Literal{Pred: a.Pred + suffix, Terms: toDatalogTerms(a.Terms, "")}
	}
	return out
}

func witnessPred(n []int) string {
	parts := make([]string, len(n))
	for i, j := range n {
		parts[i] = fmt.Sprintf("%d", j)
	}
	return "W_" + strings.Join(parts, "_")
}

func toDatalogTerms(ts []rel.Term, primeSuffix string) []datalog.Term {
	out := make([]datalog.Term, len(ts))
	for i, t := range ts {
		if t.IsVar {
			out[i] = datalog.V(t.Var + primeSuffix)
		} else {
			out[i] = datalog.C(t.Const)
		}
	}
	return out
}

func varTerms(vars []string) []datalog.Term {
	out := make([]datalog.Term, len(vars))
	for i, v := range vars {
		out[i] = datalog.V(v)
	}
	return out
}

// witnessRules emits one rule per containment pattern (M, f, h): W_N
// holds θ's variable bindings whose conjunct is redundant.
func witnessRules(q *rel.Query, n []int, wPred string, allVars []string, hints Hints) []datalog.Rule {
	m := len(q.Atoms)
	var rules []datalog.Rule
	seen := make(map[string]bool)
	for bits := 0; bits < (1 << m); bits++ {
		mset := subset(bits, m)
		// θ′'s refinement must itself be realizable.
		if !refinementPossible(q, mset, hints) {
			continue
		}
		// Enumerate relation-preserving maps f : M → N.
		cands := make([][]int, len(mset))
		feasible := true
		for i, g := range mset {
			for _, h := range n {
				if q.Atoms[g].Pred == q.Atoms[h].Pred && len(q.Atoms[g].Terms) == len(q.Atoms[h].Terms) {
					cands[i] = append(cands[i], h)
				}
			}
			if len(cands[i]) == 0 {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		assign := make([]int, len(mset))
		var enumerate func(i int)
		enumerate = func(i int) {
			if i == len(mset) {
				for _, r := range rulesForPattern(q, n, mset, assign, wPred, allVars) {
					k := r.String()
					if !seen[k] {
						seen[k] = true
						rules = append(rules, r)
					}
				}
				return
			}
			for _, h := range cands[i] {
				assign[i] = h
				enumerate(i + 1)
			}
		}
		enumerate(0)
	}
	return rules
}

// rulesForPattern builds the W_N rules for one containment map
// f(mset[i]) = assign[i], one rule per strictness witness h.
func rulesForPattern(q *rel.Query, n, mset, assign []int, wPred string, allVars []string) []datalog.Rule {
	// Unify primed terms of each g ∈ M with θ-terms of f(g).
	u := newUnifier()
	for i, g := range mset {
		fg := assign[i]
		for k := range q.Atoms[g].Terms {
			a := symOf(q.Atoms[g].Terms[k], "'")
			b := symOf(q.Atoms[fg].Terms[k], "")
			if !u.unify(a, b) {
				return nil // inconsistent constants
			}
		}
	}
	// Image of f as a set.
	image := make(map[int]bool)
	for _, fg := range assign {
		image[fg] = true
	}
	var rules []datalog.Rule
	for _, h := range n {
		if image[h] {
			continue // θ(h) = θ(f(g)) for g with f(g)=h: never strict
		}
		// Strictness constraints: θ(f(g)) ≠ θ(h) for same-relation g.
		var neqs []datalog.Constraint
		violated := false
		for _, fg := range sortedKeys(image) {
			if q.Atoms[fg].Pred != q.Atoms[h].Pred {
				continue
			}
			left := u.resolveTerms(q.Atoms[fg].Terms, "")
			right := u.resolveTerms(q.Atoms[h].Terms, "")
			if termsEqual(left, right) {
				violated = true // identical under unification: h is covered
				break
			}
			neqs = append(neqs, datalog.Constraint{Left: left, Right: right})
		}
		if violated {
			continue
		}
		// Body: θ's atoms under the unifier's θ-side equalities, plus
		// θ′'s atoms (endo for M, exo otherwise) under the unifier.
		var body []datalog.Literal
		for i, a := range q.Atoms {
			sfx := ExoSuffix
			if containsInt(n, i) {
				sfx = EndoSuffix
			}
			body = append(body, datalog.Literal{Pred: a.Pred + sfx, Terms: u.resolveTerms(a.Terms, "")})
		}
		for i, a := range q.Atoms {
			sfx := ExoSuffix
			if containsInt(mset, i) {
				sfx = EndoSuffix
			}
			body = append(body, datalog.Literal{Pred: a.Pred + sfx, Terms: u.resolveTerms(a.Terms, "'")})
		}
		head := datalog.Literal{Pred: wPred, Terms: u.resolveVarList(allVars)}
		rules = append(rules, datalog.Rule{Head: head, Body: dedupeLits(body), Neq: neqs})
	}
	return rules
}

func containsInt(xs []int, x int) bool { return contains(xs, x) }

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func termsEqual(a, b []datalog.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IsVar != b[i].IsVar || a[i].Var != b[i].Var || a[i].Const != b[i].Const {
			return false
		}
	}
	return true
}

func dedupeLits(lits []datalog.Literal) []datalog.Literal {
	seen := make(map[string]bool)
	out := lits[:0]
	for _, l := range lits {
		k := l.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, l)
		}
	}
	return out
}

// unifier is a union-find over variable symbols and constants.
// Symbols: "v" for θ-variable v, "v'" for θ′-variable v, "\x00c" for
// constant c. Representatives prefer constants, then θ-variables.
type unifier struct {
	parent map[string]string
}

func newUnifier() *unifier {
	return &unifier{parent: make(map[string]string)}
}

func symOf(t rel.Term, primeSuffix string) string {
	if t.IsVar {
		return t.Var + primeSuffix
	}
	return "\x00" + string(t.Const)
}

func isConstSym(s string) bool { return strings.HasPrefix(s, "\x00") }
func isPrimeSym(s string) bool { return strings.HasSuffix(s, "'") }

func (u *unifier) find(x string) string {
	p, ok := u.parent[x]
	if !ok || p == x {
		return x
	}
	r := u.find(p)
	u.parent[x] = r
	return r
}

// unify merges the classes of a and b; returns false on constant clash.
func (u *unifier) unify(a, b string) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return true
	}
	if isConstSym(ra) && isConstSym(rb) {
		return false
	}
	// Prefer constants, then θ-variables (unprimed) as representatives.
	switch {
	case isConstSym(ra):
		u.parent[rb] = ra
	case isConstSym(rb):
		u.parent[ra] = rb
	case !isPrimeSym(ra):
		u.parent[rb] = ra
	default:
		u.parent[ra] = rb
	}
	return true
}

func (u *unifier) resolveSym(s string) datalog.Term {
	r := u.find(s)
	if isConstSym(r) {
		return datalog.C(rel.Value(r[1:]))
	}
	return datalog.V(r)
}

func (u *unifier) resolveTerms(ts []rel.Term, primeSuffix string) []datalog.Term {
	out := make([]datalog.Term, len(ts))
	for i, t := range ts {
		out[i] = u.resolveSym(symOf(t, primeSuffix))
	}
	return out
}

func (u *unifier) resolveVarList(vars []string) []datalog.Term {
	out := make([]datalog.Term, len(vars))
	for i, v := range vars {
		out[i] = u.resolveSym(v)
	}
	return out
}
