// Metamorphic invariants: mutations of an instance that provably leave
// the causal verdicts unchanged, derived from the lineage semantics of
// Theorem 3.2. Each mutation rebuilds the engine from scratch and
// requires the (tuple, ρ, min|Γ|) ranking signature to survive —
// methods may legitimately change (a mutation can move the query
// across the classifier's endogenous-relation rule), values may not.
//
//   - Exogenous duplication: an exact copy of an exogenous tuple adds
//     only valuations with identical endogenous witness sets, so the
//     minimal n-lineage — and hence every ρ — is untouched.
//   - Non-cause exogenous marking: a non-cause appears in no conjunct
//     of the minimal n-lineage (its conjuncts are dominated by
//     minimal ones not containing it, which survive its removal), so
//     flipping it exogenous changes neither the cause set nor any
//     minimum contingency.
//   - Irrelevant growth: tuples in a relation the query never
//     mentions cannot join into any valuation.
package difftest

import (
	"errors"
	"fmt"

	"github.com/querycause/querycause/internal/causegen"
	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/rel"
)

// ErrInvalidInstance tags CheckInstance failures caused by the
// instance itself being malformed (engine construction rejected it)
// rather than by an engine/oracle disagreement. The shrinker uses it
// to avoid "minimizing" into instances that merely stopped being
// valid Why-No scenarios.
var ErrInvalidInstance = errors.New("difftest: invalid instance")

// checkMetamorphic applies each applicable mutation and compares the
// mutated ranking's signature against the base ranking. Returns the
// number of mutations exercised.
func checkMetamorphic(inst *causegen.Instance, baseRank []core.Explanation) (int, error) {
	checked := 0

	// Exogenous duplication: copy the first exogenous tuple.
	for id := rel.TupleID(0); int(id) < inst.DB.NumTuples(); id++ {
		if inst.DB.Endo(id) {
			continue
		}
		tp := inst.DB.Tuple(id)
		mut := cloneInstance(inst)
		mut.DB.MustAdd(tp.Rel, false, tp.Args...)
		if err := expectSameRanking("exogenous duplication", inst, mut, baseRank); err != nil {
			return checked, err
		}
		checked++
		break
	}

	// Non-cause exogenous marking: flip the first endogenous tuple
	// that is not a cause.
	causeSet := make(map[rel.TupleID]bool, len(baseRank))
	for _, ex := range baseRank {
		causeSet[ex.Tuple] = true
	}
	for _, id := range inst.DB.EndoIDs() {
		if causeSet[id] {
			continue
		}
		mut := cloneInstance(inst)
		mut.DB.SetEndo(id, false)
		if err := expectSameRanking(fmt.Sprintf("marking non-cause %d exogenous", id), inst, mut, baseRank); err != nil {
			return checked, err
		}
		checked++
		break
	}

	// Irrelevant growth: a fresh relation the query never mentions,
	// with one exogenous and one endogenous tuple.
	mut := cloneInstance(inst)
	mut.DB.MustAdd("ZZunrelated", false, "z0")
	mut.DB.MustAdd("ZZunrelated", true, "z1")
	if err := expectSameRanking("irrelevant relation growth", inst, mut, baseRank); err != nil {
		return checked, err
	}
	checked++

	return checked, nil
}

func cloneInstance(inst *causegen.Instance) *causegen.Instance {
	return &causegen.Instance{Seed: inst.Seed, DB: inst.DB.Clone(), Query: inst.Query, WhyNo: inst.WhyNo}
}

// expectSameRanking rebuilds the engine on the mutated instance and
// compares signatures. A mutation must never invalidate the instance:
// the invariants above all preserve the Why-No preconditions, so a
// construction error is itself a mismatch.
func expectSameRanking(what string, base, mut *causegen.Instance, baseRank []core.Explanation) error {
	eng, err := newEngine(mut)
	if err != nil {
		return fmt.Errorf("metamorphic %s: engine construction failed on mutated instance: %v", what, err)
	}
	mutRank, err := eng.RankAll(core.ModeAuto)
	if err != nil {
		return fmt.Errorf("metamorphic %s: RankAll: %v", what, err)
	}
	if err := equalSignatures("metamorphic "+what, baseRank, mutRank); err != nil {
		return fmt.Errorf("%v (base %v)", err, base)
	}
	return nil
}
