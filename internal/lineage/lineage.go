// Package lineage implements the positive-DNF lineage algebra of
// Section 3 of Meliou et al. (VLDB 2010): building the lineage Φ of a
// Boolean conjunctive query, specializing it to the endogenous lineage
// Φⁿ (Definition 3.1), removing redundant conjuncts, and extracting the
// set of actual causes (Theorem 3.2).
//
// A lineage is a monotone Boolean expression in DNF over tuple variables
// X_t. Conjuncts are represented as sorted, duplicate-free TupleID sets,
// so set semantics (needed for the strictness condition on redundancy)
// are automatic.
package lineage

import (
	"fmt"
	"sort"
	"strings"

	"github.com/querycause/querycause/internal/ra"
	"github.com/querycause/querycause/internal/rel"
)

// Conjunct is one monomial of a DNF lineage: a sorted set of tuple IDs.
type Conjunct []rel.TupleID

// NewConjunct builds a sorted, deduplicated conjunct.
func NewConjunct(ids ...rel.TupleID) Conjunct {
	c := append(Conjunct(nil), ids...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	out := c[:0]
	for i, id := range c {
		if i == 0 || c[i-1] != id {
			out = append(out, id)
		}
	}
	return out
}

// Contains reports whether the conjunct includes the tuple variable.
func (c Conjunct) Contains(id rel.TupleID) bool {
	i := sort.Search(len(c), func(i int) bool { return c[i] >= id })
	return i < len(c) && c[i] == id
}

// SubsetOf reports whether c ⊆ other. Both must be sorted (invariant).
func (c Conjunct) SubsetOf(other Conjunct) bool {
	if len(c) > len(other) {
		return false
	}
	i := 0
	for _, id := range c {
		for i < len(other) && other[i] < id {
			i++
		}
		if i == len(other) || other[i] != id {
			return false
		}
		i++
	}
	return true
}

// StrictSubsetOf reports whether c ⊊ other.
func (c Conjunct) StrictSubsetOf(other Conjunct) bool {
	return len(c) < len(other) && c.SubsetOf(other)
}

// Equal reports set equality.
func (c Conjunct) Equal(other Conjunct) bool {
	if len(c) != len(other) {
		return false
	}
	for i := range c {
		if c[i] != other[i] {
			return false
		}
	}
	return true
}

func (c Conjunct) key() string {
	var b strings.Builder
	for _, id := range c {
		fmt.Fprintf(&b, "%d,", id)
	}
	return b.String()
}

// DNF is a positive Boolean expression in disjunctive normal form over
// tuple variables. True marks the expression equivalent to the constant
// true (some conjunct evaluated to the empty set after substitution).
type DNF struct {
	Conjuncts []Conjunct
	True      bool
}

// BuildNaive computes the lineage Φ of the Boolean query q over db with
// the naive reference evaluator (rel.EvalNaive): one conjunct per
// valuation, containing the variables of all witness tuples (Section
// 3), duplicate conjuncts merged. The differential harness composes it
// into NLineageOfNaive to check the streamed lineage (NLineageOf, which
// captures Φⁿ during evaluation) against the definitional two-pass
// construction.
func BuildNaive(db *rel.Database, q *rel.Query) (DNF, error) {
	if !q.IsBoolean() {
		return DNF{}, fmt.Errorf("lineage: query %s is not Boolean; call Bind first", q.Name)
	}
	vals, err := rel.EvalNaive(db, q)
	if err != nil {
		return DNF{}, err
	}
	return buildFrom(vals), nil
}

func buildFrom(vals []rel.Valuation) DNF {
	d := DNF{}
	seen := make(map[string]bool)
	for _, v := range vals {
		c := NewConjunct(v.Witness...)
		k := c.key()
		if !seen[k] {
			seen[k] = true
			d.Conjuncts = append(d.Conjuncts, c)
		}
	}
	return d
}

// NLineage computes Φⁿ = Φ[X_t := true ∀ t ∈ Dx] (Definition 3.1):
// exogenous variables are removed from each conjunct; a conjunct that
// becomes empty makes the whole expression true (the query holds on the
// exogenous tuples alone, so no endogenous tuple is a cause).
func NLineage(d DNF, db *rel.Database) DNF {
	if d.True {
		return d
	}
	out := DNF{}
	seen := make(map[string]bool)
	for _, c := range d.Conjuncts {
		nc := make(Conjunct, 0, len(c))
		for _, id := range c {
			if db.Endo(id) {
				nc = append(nc, id)
			}
		}
		if len(nc) == 0 {
			return DNF{True: true}
		}
		k := nc.key()
		if !seen[k] {
			seen[k] = true
			out.Conjuncts = append(out.Conjuncts, nc)
		}
	}
	return out
}

// RemoveRedundant drops every conjunct that strictly contains another
// conjunct (Section 3: "a conjunct c is redundant if there exists another
// conjunct c′ that is a strict subset of c"). The result is the unique
// minimal equivalent DNF of a monotone expression, in canonical order
// (by size, then lexicographically by tuple ID) — independent of the
// evaluation backend that produced the conjuncts, so naive and planned
// lineages compare byte-for-byte.
func RemoveRedundant(d DNF) DNF {
	if d.True {
		return d
	}
	// Canonical order also puts potential subsets first.
	cs := append([]Conjunct(nil), d.Conjuncts...)
	sort.Slice(cs, func(i, j int) bool { return conjunctLess(cs[i], cs[j]) })
	var kept []Conjunct
	for _, c := range cs {
		redundant := false
		for _, k := range kept {
			if k.StrictSubsetOf(c) {
				redundant = true
				break
			}
		}
		if !redundant {
			kept = append(kept, c)
		}
	}
	return DNF{Conjuncts: kept}
}

// conjunctLess orders conjuncts canonically: by size, then
// lexicographically by tuple ID.
func conjunctLess(a, b Conjunct) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Satisfiable reports whether the positive DNF is satisfiable: it is
// unless it has no conjuncts (Section 3).
func (d DNF) Satisfiable() bool { return d.True || len(d.Conjuncts) > 0 }

// EvalWithout reports whether the DNF is true when all variables in
// removed are set false and all others true (i.e., whether some conjunct
// survives the removal).
func (d DNF) EvalWithout(removed map[rel.TupleID]bool) bool {
	if d.True {
		return true
	}
outer:
	for _, c := range d.Conjuncts {
		for _, id := range c {
			if removed[id] {
				continue outer
			}
		}
		return true
	}
	return false
}

// Vars returns the sorted set of tuple variables occurring in the DNF.
func (d DNF) Vars() []rel.TupleID {
	seen := make(map[rel.TupleID]bool)
	for _, c := range d.Conjuncts {
		for _, id := range c {
			seen[id] = true
		}
	}
	out := make([]rel.TupleID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ConjunctsWith returns the conjuncts containing the given variable.
func (d DNF) ConjunctsWith(id rel.TupleID) []Conjunct {
	var out []Conjunct
	for _, c := range d.Conjuncts {
		if c.Contains(id) {
			out = append(out, c)
		}
	}
	return out
}

// String renders the DNF deterministically, e.g. "X1·X3 ∨ X1·X4".
func (d DNF) String() string {
	if d.True {
		return "true"
	}
	if len(d.Conjuncts) == 0 {
		return "false"
	}
	parts := make([]string, len(d.Conjuncts))
	for i, c := range d.Conjuncts {
		ids := make([]string, len(c))
		for j, id := range c {
			ids[j] = fmt.Sprintf("X%d", id)
		}
		parts[i] = strings.Join(ids, "·")
	}
	sort.Strings(parts)
	return strings.Join(parts, " ∨ ")
}

// Causes computes the set of actual causes of the Boolean query q on db
// per Theorem 3.2: the endogenous tuples occurring in some non-redundant
// conjunct of the n-lineage Φⁿ. The result is sorted by tuple ID.
//
// It returns nil both when the query is false (nothing to explain) and
// when the query already holds on the exogenous part alone (no
// endogenous tuple makes a difference).
func Causes(db *rel.Database, q *rel.Query) ([]rel.TupleID, error) {
	n, err := NLineageOf(db, q)
	if err != nil {
		return nil, err
	}
	if n.True {
		return nil, nil
	}
	return n.Vars(), nil
}

// NLineageOf returns the minimal endogenous lineage Φⁿ of q on db. The
// conjuncts are captured during evaluation: the streaming evaluator
// (internal/ra) drops exogenous witnesses as bindings are produced, so
// there is no second pass over the valuations and the full Φ is never
// materialized. Only redundancy removal runs afterwards.
func NLineageOf(db *rel.Database, q *rel.Query) (DNF, error) {
	if !q.IsBoolean() {
		return DNF{}, fmt.Errorf("lineage: query %s is not Boolean; call Bind first", q.Name)
	}
	conjs, isTrue, err := ra.NLineageConjuncts(db, q)
	if err != nil {
		return DNF{}, err
	}
	if isTrue {
		return DNF{True: true}, nil
	}
	d := DNF{Conjuncts: make([]Conjunct, 0, len(conjs))}
	for _, c := range conjs {
		d.Conjuncts = append(d.Conjuncts, Conjunct(c))
	}
	return RemoveRedundant(d), nil
}

// NLineageOfNaive composes BuildNaive, NLineage and RemoveRedundant —
// the definitional two-pass construction of the minimal Φⁿ over the
// naive reference evaluator. The differential harness checks it against
// the streamed NLineageOf; thanks to canonical conjunct order the two
// are identical structures, not merely equivalent expressions.
func NLineageOfNaive(db *rel.Database, q *rel.Query) (DNF, error) {
	phi, err := BuildNaive(db, q)
	if err != nil {
		return DNF{}, err
	}
	return RemoveRedundant(NLineage(phi, db)), nil
}
