package ra

import (
	"fmt"

	"github.com/querycause/querycause/internal/qerr"
	"github.com/querycause/querycause/internal/rel"
)

// colCode requires a column to carry a fixed interned code (a constant
// term, resolved at compile time).
type colCode struct {
	col  int
	code uint32
}

// colSlot ties a column to a variable slot: a join column must equal an
// already-bound slot; a bind column writes a fresh slot.
type colSlot struct {
	col  int
	slot int
}

// step is one atom of the left-deep pipeline, classified at compile
// time. Columns split four ways: consts are equality selections against
// interned codes, eq pairs are intra-atom variable repeats, join columns
// are probed through their code indexes against slots bound by earlier
// steps, and bind columns introduce new slots. A step with no join columns is a scan
// (the pipeline head, a constant-only atom, or a cartesian arm).
type step struct {
	atom   int // index into q.Atoms — witness position
	rl     *rel.Relation
	consts []colCode
	eq     [][2]int
	join   []colSlot
	bind   []colSlot
}

// plan is a compiled left-deep pipeline: steps in planner order, plus
// the slot → variable-name table for materializing bindings.
type plan struct {
	db       *rel.Database
	numAtoms int
	steps    []step
	varNames []string
}

// compile validates the query against db exactly as the naive evaluator
// does, orders the atoms by estimated selectivity, and assigns variable
// slots. A nil plan (with nil error) means the result is provably empty:
// a missing relation, an empty relation, or a constant never interned
// into the database dictionary.
func compile(db *rel.Database, q *rel.Query) (*plan, error) {
	// Mirror rel.EvalNaive's per-atom validation order: the first atom
	// with a missing relation empties the result before a later atom's
	// arity mismatch can raise an error.
	for _, a := range q.Atoms {
		r := db.Relation(a.Pred)
		if r == nil {
			return nil, nil
		}
		if r.Arity != len(a.Terms) {
			return nil, qerr.Tag(qerr.ErrBadInstance, fmt.Errorf("rel: atom %s arity mismatch with relation (arity %d)", a, r.Arity))
		}
	}
	for _, a := range q.Atoms {
		if db.Relation(a.Pred).Len() == 0 {
			return nil, nil
		}
		for _, t := range a.Terms {
			if !t.IsVar {
				if _, ok := db.Dict().Code(t.Const); !ok {
					return nil, nil
				}
			}
		}
	}
	p := &plan{db: db, numAtoms: len(q.Atoms)}
	slotOf := make(map[string]int)
	chosen := make([]bool, len(q.Atoms))
	for range q.Atoms {
		ai := nextAtom(db, q, chosen, slotOf)
		chosen[ai] = true
		a := q.Atoms[ai]
		st := step{atom: ai, rl: db.Relation(a.Pred)}
		firstCol := make(map[string]int)
		for c, t := range a.Terms {
			if !t.IsVar {
				code, _ := db.Dict().Code(t.Const)
				st.consts = append(st.consts, colCode{col: c, code: code})
				continue
			}
			if fc, ok := firstCol[t.Var]; ok {
				// Repeated variable within the atom: an intra-row
				// equality against its first column covers it whether
				// that column is a join or a bind.
				st.eq = append(st.eq, [2]int{fc, c})
				continue
			}
			firstCol[t.Var] = c
			if s, ok := slotOf[t.Var]; ok {
				st.join = append(st.join, colSlot{col: c, slot: s})
				continue
			}
			s := len(p.varNames)
			slotOf[t.Var] = s
			p.varNames = append(p.varNames, t.Var)
			st.bind = append(st.bind, colSlot{col: c, slot: s})
		}
		p.steps = append(p.steps, st)
	}
	return p, nil
}

// nextAtom greedily picks the most selective remaining atom. An atom
// that joins on an already-bound variable always outranks one that
// doesn't — an unconnected atom is a cartesian arm that multiplies the
// pipeline by its match count, no matter how selective its constants
// are. Within each class: most constant terms, then most distinct
// already-bound variables, then smallest relation, ties broken by
// lowest atom index.
func nextAtom(db *rel.Database, q *rel.Query, chosen []bool, slotOf map[string]int) int {
	best := -1
	var bestJoins bool
	var bestConsts, bestShared, bestCard int
	for i, a := range q.Atoms {
		if chosen[i] {
			continue
		}
		nConsts, nShared := 0, 0
		seen := make(map[string]bool)
		for _, t := range a.Terms {
			if !t.IsVar {
				nConsts++
			} else if _, ok := slotOf[t.Var]; ok && !seen[t.Var] {
				seen[t.Var] = true
				nShared++
			}
		}
		joins := nShared > 0
		card := db.Relation(a.Pred).Len()
		better := best < 0 ||
			(joins && !bestJoins) ||
			(joins == bestJoins &&
				(nConsts > bestConsts ||
					(nConsts == bestConsts && nShared > bestShared) ||
					(nConsts == bestConsts && nShared == bestShared && card < bestCard)))
		if better {
			best, bestJoins, bestConsts, bestShared, bestCard = i, joins, nConsts, nShared, card
		}
	}
	return best
}
