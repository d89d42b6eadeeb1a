// Package whyno implements Why-No causality and responsibility
// (Sections 2 and 4.2 of Meliou et al., VLDB 2010): explaining why a
// tuple is NOT an answer.
//
// A Why-No instance is a database whose exogenous tuples are the real
// database Dˣ and whose endogenous tuples are the candidate missing
// tuples Dⁿ (computing Dⁿ itself is outside the paper's scope — see
// Huang et al., PVLDB 2008 — but PotentialTuples offers an
// active-domain generator for examples). The query must be false on Dˣ
// and true on Dˣ ∪ Dⁿ.
//
// Causes are computed with the same n-lineage criterion as Why-So
// (Theorem 3.2 applies uniformly). Responsibility is PTIME (Theorem
// 4.17): a contingency Γ for t is a set of insertions with
// Dˣ ∪ Γ ⊭ q and Dˣ ∪ Γ ∪ {t} ⊨ q, so the minimal Γ is C∖{t} for the
// smallest non-redundant conjunct C of Φⁿ containing t (non-redundancy
// guarantees no sub-conjunct fires without t), giving
// ρ_t = 1/|C| ≥ 1/m.
package whyno

import (
	"encoding/binary"
	"fmt"

	"github.com/querycause/querycause/internal/lineage"
	"github.com/querycause/querycause/internal/qerr"
	"github.com/querycause/querycause/internal/ra"
	"github.com/querycause/querycause/internal/rel"
)

// CheckInstance validates the Why-No setting: q must be false on the
// exogenous part alone and true once the candidate tuples are added.
// Violations are tagged qerr.ErrInvalidWhyNo so callers — local and
// over the wire — can branch with errors.Is.
func CheckInstance(db *rel.Database, q *rel.Query) error {
	if !q.IsBoolean() {
		return qerr.Tag(qerr.ErrInvalidWhyNo, fmt.Errorf("whyno: query %s is not Boolean; bind the non-answer first", q.Name))
	}
	removedEndo := make(map[rel.TupleID]bool)
	for _, id := range db.EndoIDs() {
		removedEndo[id] = true
	}
	onDx, err := ra.HoldsWithout(db, q, removedEndo)
	if err != nil {
		return err
	}
	if onDx {
		return qerr.Tag(qerr.ErrInvalidWhyNo, fmt.Errorf("whyno: %s already holds on the real database; it is not a non-answer", q.Name))
	}
	onAll, err := ra.Holds(db, q)
	if err != nil {
		return err
	}
	if !onAll {
		return qerr.Tag(qerr.ErrInvalidWhyNo, fmt.Errorf("whyno: %s does not hold even with all candidate tuples; no causes exist", q.Name))
	}
	return nil
}

// Causes returns the Why-No causes: candidate tuples occurring in a
// non-redundant conjunct of the n-lineage (Theorem 3.2, Why-No case).
func Causes(db *rel.Database, q *rel.Query) ([]rel.TupleID, error) {
	return lineage.Causes(db, q)
}

// MinContingency returns the size of the smallest insertion set Γ
// making t counterfactual for the non-answer: |C|-1 for the smallest
// minimal conjunct C containing t. ok=false means t is not a Why-No
// cause.
func MinContingency(db *rel.Database, q *rel.Query, t rel.TupleID) (int, bool, error) {
	n, err := lineage.NLineageOf(db, q)
	if err != nil {
		return 0, false, err
	}
	if n.True {
		return 0, false, nil
	}
	size, ok := MinContingencyDNF(n, t)
	return size, ok, nil
}

// MinContingencyDNF is MinContingency on a precomputed minimal
// n-lineage.
func MinContingencyDNF(n lineage.DNF, t rel.TupleID) (int, bool) {
	set, ok := MinContingencySetDNF(n, t)
	if !ok {
		return 0, false
	}
	return len(set), true
}

// MinContingencySetDNF returns an actual minimum insertion set: the
// smallest minimal conjunct containing t, minus t itself (sorted).
func MinContingencySetDNF(n lineage.DNF, t rel.TupleID) ([]rel.TupleID, bool) {
	var best lineage.Conjunct
	for _, c := range n.ConjunctsWith(t) {
		if best == nil || len(c) < len(best) {
			best = c
		}
	}
	if best == nil {
		return nil, false
	}
	out := make([]rel.TupleID, 0, len(best)-1)
	for _, id := range best {
		if id != t {
			out = append(out, id)
		}
	}
	return out, true
}

// Responsibility computes the Why-No responsibility ρ_t = 1/(1+min|Γ|),
// or 0 if t is not a cause.
func Responsibility(db *rel.Database, q *rel.Query, t rel.TupleID) (float64, error) {
	size, ok, err := MinContingency(db, q, t)
	if err != nil || !ok {
		return 0, err
	}
	return 1 / (1 + float64(size)), nil
}

// BruteForceMinContingency is the definition-level oracle: it
// enumerates insertion sets Γ ⊆ Dⁿ∖{t} by increasing size and returns
// the first Γ with Dˣ ∪ Γ ⊭ q and Dˣ ∪ Γ ∪ {t} ⊨ q. Exponential;
// for tests.
func BruteForceMinContingency(db *rel.Database, q *rel.Query, t rel.TupleID) (int, bool, error) {
	n, err := lineage.NLineageOf(db, q)
	if err != nil {
		return 0, false, err
	}
	if n.True {
		return 0, false, nil
	}
	var universe []rel.TupleID
	for _, id := range db.EndoIDs() {
		if id != t {
			universe = append(universe, id)
		}
	}
	// Presence semantics: a conjunct fires iff all its (endogenous)
	// variables are inserted.
	present := make(map[rel.TupleID]bool)
	fires := func() bool {
	outer:
		for _, c := range n.Conjuncts {
			for _, id := range c {
				if !present[id] {
					continue outer
				}
			}
			return true
		}
		return false
	}
	valid := func() bool {
		if fires() {
			return false // q already true without t
		}
		present[t] = true
		ok := fires()
		delete(present, t)
		return ok
	}
	var search func(start, k int) bool
	search = func(start, k int) bool {
		if k == 0 {
			return valid()
		}
		for i := start; i <= len(universe)-k; i++ {
			present[universe[i]] = true
			if search(i+1, k-1) {
				delete(present, universe[i])
				return true
			}
			delete(present, universe[i])
		}
		return false
	}
	for k := 0; k <= len(universe); k++ {
		if search(0, k) {
			return k, true, nil
		}
	}
	return 0, false, nil
}

// PotentialTuples inserts as endogenous candidates every tuple over the
// active domain missing from the named relation, up to limit (0 = no
// limit). It returns the inserted IDs. This is a convenience for
// examples; real systems derive Dⁿ from provenance of non-answers.
func PotentialTuples(db *rel.Database, relName string, limit int) ([]rel.TupleID, error) {
	r := db.Relation(relName)
	if r == nil {
		return nil, fmt.Errorf("whyno: unknown relation %s", relName)
	}
	// Existing rows and candidates are keyed on their argument codes;
	// every active-domain value is interned, so every candidate has one.
	existing := make(map[string]bool, r.Len())
	key := make([]byte, 0, 4*r.Arity)
	for row := 0; row < r.Len(); row++ {
		key = key[:0]
		for c := 0; c < r.Arity; c++ {
			key = binary.LittleEndian.AppendUint32(key, r.Col(c)[row])
		}
		existing[string(key)] = true
	}
	adom := db.ActiveDomain()
	codes := make([]uint32, len(adom))
	for i, v := range adom {
		codes[i], _ = db.Dict().Code(v)
	}
	args := make([]rel.Value, r.Arity)
	var out []rel.TupleID
	var gen func(pos int) error
	gen = func(pos int) error {
		if limit > 0 && len(out) >= limit {
			return nil
		}
		if pos == r.Arity {
			if existing[string(key)] {
				return nil
			}
			id, err := db.Add(relName, true, args...)
			if err != nil {
				return err
			}
			out = append(out, id)
			return nil
		}
		for i, v := range adom {
			args[pos] = v
			key = binary.LittleEndian.AppendUint32(key[:4*pos], codes[i])
			if err := gen(pos + 1); err != nil {
				return err
			}
			if limit > 0 && len(out) >= limit {
				return nil
			}
		}
		return nil
	}
	key = key[:0]
	if err := gen(0); err != nil {
		return nil, err
	}
	return out, nil
}
