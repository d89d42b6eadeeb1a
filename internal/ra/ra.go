// Package ra is the planned streaming evaluator of the relational data
// plane: composable relational-algebra iterators — scan, selection,
// projection-to-slots, and index-probe join on shared variables —
// running directly over internal/rel's dictionary-interned columnar
// relations.
//
// A conjunctive query is compiled once into a left-deep pipeline whose
// atom order a small planner picks by estimated selectivity: atoms
// joined to an already-bound variable before unconnected (cartesian)
// arms, then by constants bound, shared-variable count, and relation
// cardinality (see plan.go). Evaluation then streams variable bindings
// through the pipeline as dense uint32 code slots: the first step scans
// its relation (constant columns pre-filtered through the code
// indexes), and every later step probes the persistent code index
// (rel.Relation.CodeIndex) of each column holding an already-bound
// variable, takes the smallest bucket, and filters it on the remaining
// join columns, constants, repeated variables and removals. The indexes
// live on the relations and are maintained in place by every mutation,
// so an evaluation builds nothing over a whole relation and costs what
// it returns. Buckets are in ascending row order, so the valuation
// order is the one a hash join over the filtered relation would give.
// Comparisons are uint32 code comparisons; no Value string is touched
// until a result is materialized.
//
// Provenance rides along: every streamed binding carries the
// contributing tuple IDs (one witness per atom), so the endogenous
// lineage of Meliou et al. (VLDB 2010, §3) is captured during
// evaluation — NLineageConjuncts assembles Φⁿ's conjuncts, already in
// the dense TupleID space lineage.Index interns, in the same pass that
// evaluates the query, instead of a second evaluation pass.
//
// This is the evaluator every caller of the library uses: Valuations,
// Holds, HoldsWithout, Answers and NLineageConjuncts. The naive
// reference evaluator stays in internal/rel (rel.EvalNaive, HoldsNaive,
// HoldsWithoutNaive), and internal/difftest differential-tests the two
// on every sweep.
package ra

import (
	"slices"
	"strings"

	"github.com/querycause/querycause/internal/rel"
)

// Valuations enumerates all valuations of the query body over db
// through the planned pipeline. Semantics match rel.EvalNaive (the
// head, if any, is ignored); enumeration order is the deterministic
// pipeline order, which differs from the naive backtracking order.
func Valuations(db *rel.Database, q *rel.Query) ([]rel.Valuation, error) {
	p, err := compile(db, q)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, nil
	}
	var out []rel.Valuation
	p.run(nil, func(_ []uint32, witness []rel.TupleID) bool {
		out = append(out, rel.Valuation{Witness: append([]rel.TupleID(nil), witness...)})
		return true
	})
	return out, nil
}

// Answers evaluates a non-Boolean query and groups its valuations by
// head value, reading each head variable off its pipeline slot. Within
// an answer the valuations keep pipeline order; the answers are sorted
// by their head values joined with NUL bytes.
func Answers(db *rel.Database, q *rel.Query) ([]rel.Answer, error) {
	if err := q.Validate(db); err != nil {
		return nil, err
	}
	p, err := compile(db, q)
	if err != nil {
		return nil, err
	}
	out := []rel.Answer{}
	if p == nil {
		return out, nil
	}
	// slot[i] holds head term i's value, or is -1 for a constant.
	slot := make([]int, len(q.Head))
	for i, h := range q.Head {
		slot[i] = -1
		if h.IsVar {
			slot[i] = slices.Index(p.varNames, h.Var)
		}
	}
	groups := make(map[string]int) // joined head values → index into out
	var keys []string
	vals := make([]rel.Value, len(q.Head))
	p.run(nil, func(slots []uint32, witness []rel.TupleID) bool {
		for i, h := range q.Head {
			if vals[i] = h.Const; slot[i] >= 0 {
				vals[i] = db.Dict().Value(slots[slot[i]])
			}
		}
		key := joinValues(vals)
		g, ok := groups[key]
		if !ok {
			g = len(out)
			groups[key] = g
			keys = append(keys, key)
			out = append(out, rel.Answer{Values: slices.Clone(vals)})
		}
		out[g].Valuations = append(out[g].Valuations, rel.Valuation{Witness: append([]rel.TupleID(nil), witness...)})
		return true
	})
	slices.Sort(keys)
	sorted := make([]rel.Answer, len(keys))
	for i, k := range keys {
		sorted[i] = out[groups[k]]
	}
	return sorted, nil
}

func joinValues(vs []rel.Value) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = string(v)
	}
	return strings.Join(parts, "\x00")
}

// Holds reports whether the Boolean query holds, stopping at the first
// streamed valuation (later pipeline steps are never even prepared
// when an early step has no matches).
func Holds(db *rel.Database, q *rel.Query) (bool, error) {
	return HoldsWithout(db, q, nil)
}

// HoldsWithout reports whether q holds with the given tuples removed.
// The removal filter is pushed into the scans and join probes, so
// pruned rows never enter the pipeline, and evaluation stops at the
// first surviving valuation.
func HoldsWithout(db *rel.Database, q *rel.Query, removed map[rel.TupleID]bool) (bool, error) {
	p, err := compile(db, q)
	if err != nil {
		return false, err
	}
	if p == nil {
		return false, nil
	}
	found := false
	p.run(removed, func([]uint32, []rel.TupleID) bool {
		found = true
		return false
	})
	return found, nil
}

// NLineageConjuncts evaluates the Boolean query and returns the
// conjuncts of its endogenous lineage Φⁿ (Definition 3.1), captured
// during evaluation: for each streamed valuation the exogenous
// witnesses are dropped on the spot, the surviving tuple IDs form one
// conjunct (sorted, set semantics), and duplicate conjuncts are merged
// as they stream. A valuation witnessed by exogenous tuples alone makes
// Φⁿ ≡ true, reported via isTrue with evaluation cut short.
//
// The caller (lineage.NLineageOf) only minimizes the result; there is
// no separate lineage-building evaluation pass.
func NLineageConjuncts(db *rel.Database, q *rel.Query) (conjuncts [][]rel.TupleID, isTrue bool, err error) {
	return nlineageConjuncts(db, q, -1, 0)
}

// NLineageConjunctsPinned is NLineageConjuncts restricted to the
// valuations whose witness uses tuple id at atom position atom — the
// lineage delta contributed by one inserted tuple at one atom
// occurrence. Callers maintaining a cached DNF under an insert union
// the pinned conjuncts over every atom whose predicate is the inserted
// tuple's relation (self-joins contribute one pin per occurrence;
// duplicates merge under DNF set semantics). isTrue reports an
// all-exogenous pinned witness, which makes the whole Φⁿ ≡ true.
func NLineageConjunctsPinned(db *rel.Database, q *rel.Query, atom int, id rel.TupleID) (conjuncts [][]rel.TupleID, isTrue bool, err error) {
	return nlineageConjuncts(db, q, atom, id)
}

func nlineageConjuncts(db *rel.Database, q *rel.Query, pinAtom int, pinID rel.TupleID) (conjuncts [][]rel.TupleID, isTrue bool, err error) {
	p, err := compile(db, q)
	if err != nil {
		return nil, false, err
	}
	if p == nil {
		return nil, false, nil
	}
	seen := make(map[string]bool)
	var key []byte
	conj := make([]rel.TupleID, 0, len(q.Atoms))
	p.runPinned(nil, pinAtom, pinID, func(_ []uint32, witness []rel.TupleID) bool {
		conj = conj[:0]
		for _, id := range witness {
			if db.Endo(id) {
				conj = append(conj, id)
			}
		}
		if len(conj) == 0 {
			isTrue = true
			return false
		}
		sortIDs(conj)
		conj = dedupIDs(conj)
		key = key[:0]
		for _, id := range conj {
			key = appendID(key, id)
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			conjuncts = append(conjuncts, append([]rel.TupleID(nil), conj...))
		}
		return true
	})
	if isTrue {
		return nil, true, nil
	}
	return conjuncts, false, nil
}

// sortIDs sorts a small TupleID slice in place (insertion sort: witness
// lists are atom-count long).
func sortIDs(ids []rel.TupleID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// dedupIDs removes adjacent duplicates from a sorted slice in place.
func dedupIDs(ids []rel.TupleID) []rel.TupleID {
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || ids[i-1] != id {
			out = append(out, id)
		}
	}
	return out
}

func appendID(dst []byte, id rel.TupleID) []byte {
	u := uint64(id)
	return append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24), byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}
