package rel

import (
	"fmt"
	"strings"

	"github.com/querycause/querycause/internal/qerr"
)

// Term is either a variable or a constant appearing in a query atom.
type Term struct {
	IsVar bool
	Var   string
	Const Value
}

// V returns a variable term.
func V(name string) Term { return Term{IsVar: true, Var: name} }

// C returns a constant term.
func C(v Value) Term { return Term{Const: v} }

func (t Term) String() string {
	if t.IsVar {
		return t.Var
	}
	// Pick the quote character the constant does not contain, so the
	// rendering reparses (the query grammar has no escapes; the parser
	// rejects constants holding both quote characters).
	if strings.Contains(string(t.Const), "'") {
		return `"` + string(t.Const) + `"`
	}
	return "'" + string(t.Const) + "'"
}

// Atom is a relational subgoal R(t1,…,tk) of a conjunctive query.
type Atom struct {
	Pred  string
	Terms []Term
}

// NewAtom builds an atom.
func NewAtom(pred string, terms ...Term) Atom {
	return Atom{Pred: pred, Terms: terms}
}

// Vars returns the distinct variables of the atom in first-occurrence
// order.
func (a Atom) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	for _, t := range a.Terms {
		if t.IsVar && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	return out
}

func (a Atom) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", a.Pred, strings.Join(parts, ","))
}

// Query is a conjunctive query. A Boolean query has an empty Head.
// Head terms must be variables occurring in the body or constants.
type Query struct {
	Name  string
	Head  []Term
	Atoms []Atom
}

// NewBoolean builds a Boolean conjunctive query from atoms.
func NewBoolean(atoms ...Atom) *Query {
	return &Query{Name: "q", Atoms: atoms}
}

// Vars returns the distinct variables of the query in first-occurrence
// order over the body.
func (q *Query) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range q.Atoms {
		for _, v := range a.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// IsBoolean reports whether the query has an empty head.
func (q *Query) IsBoolean() bool { return len(q.Head) == 0 }

// Mentions reports whether q has an atom over relName. A mutation of a
// relation q does not mention cannot change q's answers or their
// causes, so this is the conservative affected-check of cache
// invalidation and watch fanout.
func (q *Query) Mentions(relName string) bool {
	for _, a := range q.Atoms {
		if a.Pred == relName {
			return true
		}
	}
	return false
}

// HasSelfJoin reports whether any relation name occurs in two atoms.
func (q *Query) HasSelfJoin() bool {
	seen := make(map[string]bool)
	for _, a := range q.Atoms {
		if seen[a.Pred] {
			return true
		}
		seen[a.Pred] = true
	}
	return false
}

// Bind substitutes the answer tuple for the head variables and returns
// the resulting Boolean query (Section 2: causes of answer ā to q(x̄) are
// the causes of the Boolean query q[ā/x̄]).
func (q *Query) Bind(answer ...Value) (*Query, error) {
	if len(answer) != len(q.Head) {
		return nil, qerr.Tag(qerr.ErrBadInstance, fmt.Errorf("rel: query %s has %d head terms, got %d answer values", q.Name, len(q.Head), len(answer)))
	}
	subst := make(map[string]Value)
	for i, h := range q.Head {
		if !h.IsVar {
			if h.Const != answer[i] {
				return nil, qerr.Tag(qerr.ErrBadInstance, fmt.Errorf("rel: head constant %s incompatible with answer value %s", h.Const, answer[i]))
			}
			continue
		}
		if prev, ok := subst[h.Var]; ok && prev != answer[i] {
			return nil, qerr.Tag(qerr.ErrBadInstance, fmt.Errorf("rel: head variable %s bound to both %s and %s", h.Var, prev, answer[i]))
		}
		subst[h.Var] = answer[i]
	}
	out := &Query{Name: q.Name}
	for _, a := range q.Atoms {
		na := Atom{Pred: a.Pred, Terms: make([]Term, len(a.Terms))}
		for i, t := range a.Terms {
			if t.IsVar {
				if v, ok := subst[t.Var]; ok {
					na.Terms[i] = C(v)
					continue
				}
			}
			na.Terms[i] = t
		}
		out.Atoms = append(out.Atoms, na)
	}
	return out, nil
}

// Validate checks arities against the database and that head variables
// appear in the body.
func (q *Query) Validate(db *Database) error {
	bodyVars := make(map[string]bool)
	for _, a := range q.Atoms {
		if r := db.Relation(a.Pred); r != nil && r.Arity != len(a.Terms) {
			return qerr.Tag(qerr.ErrBadInstance, fmt.Errorf("rel: atom %s has %d terms but relation %s has arity %d", a, len(a.Terms), a.Pred, r.Arity))
		}
		for _, v := range a.Vars() {
			bodyVars[v] = true
		}
	}
	for _, h := range q.Head {
		if h.IsVar && !bodyVars[h.Var] {
			return qerr.Tag(qerr.ErrBadInstance, fmt.Errorf("rel: head variable %s does not occur in the body", h.Var))
		}
	}
	return nil
}

func (q *Query) String() string {
	var b strings.Builder
	b.WriteString(q.Name)
	if len(q.Head) > 0 {
		parts := make([]string, len(q.Head))
		for i, h := range q.Head {
			parts[i] = h.String()
		}
		fmt.Fprintf(&b, "(%s)", strings.Join(parts, ","))
	}
	b.WriteString(" :- ")
	parts := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		parts[i] = a.String()
	}
	b.WriteString(strings.Join(parts, ", "))
	return b.String()
}

// Valuation is one way of satisfying a Boolean query, given by its
// witness tuples: Witness[i] is the ID of the tuple matched by
// q.Atoms[i]. The witnesses determine the binding of every query
// variable (each variable occurs in some atom), so a caller that needs a
// variable's value reads it off the witness of an atom that holds it.
type Valuation struct {
	Witness []TupleID
}

// Answer is a distinct head tuple together with all valuations deriving
// it.
type Answer struct {
	Values     []Value
	Valuations []Valuation
}

// EvalNaive enumerates all valuations with the naive reference
// evaluator: a greedy bound-variable join order probing the code index
// of one bound column, one backtracking search matching atom terms
// against the values of each candidate row's codes. The head of a
// non-Boolean query is ignored: the valuations are those of its body.
// It is the permanently available baseline the planned evaluator
// (internal/ra) is differential-tested against.
func EvalNaive(db *Database, q *Query) ([]Valuation, error) {
	for _, a := range q.Atoms {
		r := db.Relation(a.Pred)
		if r == nil {
			return nil, nil // empty relation: no valuations
		}
		if r.Arity != len(a.Terms) {
			return nil, qerr.Tag(qerr.ErrBadInstance, fmt.Errorf("rel: atom %s arity mismatch with relation (arity %d)", a, r.Arity))
		}
	}
	var out []Valuation
	binding := make(map[string]Value)
	witness := make([]TupleID, len(q.Atoms))
	used := make([]bool, len(q.Atoms))

	var rec func(depth int)
	rec = func(depth int) {
		if depth == len(q.Atoms) {
			out = append(out, Valuation{Witness: append([]TupleID(nil), witness...)})
			return
		}
		ai := pickNextAtom(q, used, binding)
		used[ai] = true
		a := q.Atoms[ai]
		r := db.Relation(a.Pred)
		for _, row := range candidates(r, a, binding) {
			newVars, ok := matchAtom(a, r, row, binding)
			if !ok {
				continue
			}
			witness[ai] = r.rowIDs[row]
			rec(depth + 1)
			for _, v := range newVars {
				delete(binding, v)
			}
		}
		used[ai] = false
	}
	rec(0)
	return out, nil
}

// pickNextAtom chooses the unused atom with the most bound terms
// (constants or already-bound variables), breaking ties by index.
func pickNextAtom(q *Query, used []bool, binding map[string]Value) int {
	best, bestScore := -1, -1
	for i, a := range q.Atoms {
		if used[i] {
			continue
		}
		score := 0
		for _, t := range a.Terms {
			if !t.IsVar {
				score++
			} else if _, ok := binding[t.Var]; ok {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// candidates returns rows of r worth testing for atom a under the
// current binding, using a code index when some term is bound.
func candidates(r *Relation, a Atom, binding map[string]Value) []int32 {
	col, val := -1, Value("")
	for i, t := range a.Terms {
		if !t.IsVar {
			col, val = i, t.Const
			break
		}
		if v, ok := binding[t.Var]; ok {
			col, val = i, v
			break
		}
	}
	if col < 0 {
		all := make([]int32, r.Len())
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}
	code, ok := r.db.dict.Code(val)
	if !ok {
		return nil // value never interned: no row can match
	}
	return r.ensureIndex(col)[code]
}

// matchAtom attempts to unify atom a with the given row of r under
// binding. On success it extends binding in place and returns the newly
// bound variables (for backtracking).
func matchAtom(a Atom, r *Relation, row int32, binding map[string]Value) (newVars []string, ok bool) {
	vals := r.db.dict.vals
	for i, t := range a.Terms {
		got := vals[r.cols[i][row]]
		if !t.IsVar {
			if t.Const != got {
				return unwind(binding, newVars)
			}
			continue
		}
		if v, bound := binding[t.Var]; bound {
			if v != got {
				return unwind(binding, newVars)
			}
			continue
		}
		binding[t.Var] = got
		newVars = append(newVars, t.Var)
	}
	return newVars, true
}

func unwind(binding map[string]Value, newVars []string) ([]string, bool) {
	for _, v := range newVars {
		delete(binding, v)
	}
	return nil, false
}

// HoldsNaive reports whether the Boolean query q is true on db, on the
// naive reference evaluator (the reference for ra.Holds).
func HoldsNaive(db *Database, q *Query) (bool, error) {
	vals, err := EvalNaive(db, q)
	if err != nil {
		return false, err
	}
	return len(vals) > 0, nil
}

// HoldsWithoutNaive reports whether q is true on db with the given
// tuples removed, without mutating db, on the naive reference
// evaluator: enumerate every valuation, then filter. The differential harness uses
// it as the definitional oracle so witness validation stays independent
// of the planned evaluator under test.
func HoldsWithoutNaive(db *Database, q *Query, removed map[TupleID]bool) (bool, error) {
	if len(removed) == 0 {
		return HoldsNaive(db, q)
	}
	vals, err := EvalNaive(db, q)
	if err != nil {
		return false, err
	}
outer:
	for _, v := range vals {
		for _, id := range v.Witness {
			if removed[id] {
				continue outer
			}
		}
		return true, nil
	}
	return false, nil
}
