// Greedy failing-instance minimization: repeatedly drop tuples (then
// query atoms) while the failure persists, so mismatch reports and
// testdata/ regressions carry the smallest instance that still
// exhibits the disagreement.
package difftest

import (
	"errors"

	"github.com/querycause/querycause/internal/causegen"
	"github.com/querycause/querycause/internal/rel"
)

// maxShrinkEvals bounds the total number of candidate re-checks, so
// shrinking a pathological instance cannot stall a CI failure report.
const maxShrinkEvals = 4000

// Fails is the canonical shrink predicate: the instance still trips
// CheckInstance (with the given options) on a genuine mismatch.
// Instances that merely became invalid (e.g. a Why-No instance losing
// its planted witness) do not count as failing.
func Fails(opts CheckOptions) func(*causegen.Instance) bool {
	return func(in *causegen.Instance) bool {
		_, err := CheckInstance(in, opts)
		return err != nil && !errors.Is(err, ErrInvalidInstance)
	}
}

// Shrink greedily minimizes inst under the failing predicate: it
// removes one tuple at a time to a fixpoint, then tries dropping query
// atoms, re-running the tuple pass after any structural change. The
// input instance is not modified; the returned instance still fails.
func Shrink(inst *causegen.Instance, failing func(*causegen.Instance) bool) *causegen.Instance {
	evals := 0
	budget := func() bool { evals++; return evals <= maxShrinkEvals }

	cur := inst
	for {
		changed := false
		// Tuple pass: drop any single tuple whose removal preserves the
		// failure.
		for i := 0; i < cur.DB.NumTuples(); i++ {
			if !budget() {
				return cur
			}
			cand := withoutTuple(cur, rel.TupleID(i))
			if failing(cand) {
				cur = cand
				changed = true
				i-- // indices shifted; retry this position
			}
		}
		// Atom pass: drop any single query atom (only for queries with
		// more than one) whose removal preserves the failure.
		if len(cur.Query.Atoms) > 1 {
			for k := 0; k < len(cur.Query.Atoms) && len(cur.Query.Atoms) > 1; k++ {
				if !budget() {
					return cur
				}
				cand := withoutAtom(cur, k)
				if failing(cand) {
					cur = cand
					changed = true
					k--
				}
			}
		}
		if !changed {
			return cur
		}
	}
}

// withoutTuple rebuilds the instance minus one tuple (IDs recompact).
func withoutTuple(inst *causegen.Instance, drop rel.TupleID) *causegen.Instance {
	db := rel.NewDatabase()
	for id := rel.TupleID(0); int(id) < inst.DB.NumTuples(); id++ {
		if id == drop {
			continue
		}
		tp := inst.DB.Tuple(id)
		db.MustAdd(tp.Rel, tp.Endo, tp.Args...)
	}
	return &causegen.Instance{Seed: inst.Seed, DB: db, Query: inst.Query, WhyNo: inst.WhyNo}
}

// withoutAtom rebuilds the instance with query atom k removed.
func withoutAtom(inst *causegen.Instance, k int) *causegen.Instance {
	atoms := make([]rel.Atom, 0, len(inst.Query.Atoms)-1)
	atoms = append(atoms, inst.Query.Atoms[:k]...)
	atoms = append(atoms, inst.Query.Atoms[k+1:]...)
	return &causegen.Instance{Seed: inst.Seed, DB: inst.DB, Query: rel.NewBoolean(atoms...), WhyNo: inst.WhyNo}
}
