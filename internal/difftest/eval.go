// Naive-vs-planned evaluator equivalence: the differential that keeps
// the streaming data plane (internal/ra) honest against the naive
// reference evaluator (rel.EvalNaive) on every generated instance.

package difftest

import (
	"fmt"
	"slices"
	"sort"

	"github.com/querycause/querycause/internal/causegen"
	"github.com/querycause/querycause/internal/lineage"
	"github.com/querycause/querycause/internal/ra"
	"github.com/querycause/querycause/internal/rel"
)

// checkEvalEquivalence runs the instance's query through both
// evaluation backends and requires:
//
//   - identical valuation sets: the same per-atom witness tuples,
//     compared as canonically serialized sets
//     (enumeration order is backend-specific and not part of the
//     contract);
//   - identical minimal endogenous lineages: the streamed
//     lineage.NLineageOf and the two-pass naive NLineageOfNaive must
//     produce structurally equal DNFs — canonical conjunct order makes
//     this byte-for-byte, not merely logically equivalent.
func checkEvalEquivalence(inst *causegen.Instance) error {
	naive, err := rel.EvalNaive(inst.DB, inst.Query)
	if err != nil {
		return fmt.Errorf("eval-diff: naive: %v", err)
	}
	planned, err := ra.Valuations(inst.DB, inst.Query)
	if err != nil {
		return fmt.Errorf("eval-diff: planned: %v", err)
	}
	nk := valuationKeys(naive)
	pk := valuationKeys(planned)
	if len(nk) != len(pk) {
		return fmt.Errorf("eval-diff: naive found %d distinct valuations, planned %d", len(nk), len(pk))
	}
	for i := range nk {
		if nk[i] != pk[i] {
			return fmt.Errorf("eval-diff: valuation sets differ; first divergence:\n  naive:   %s\n  planned: %s", nk[i], pk[i])
		}
	}

	nlNaive, err := lineage.NLineageOfNaive(inst.DB, inst.Query)
	if err != nil {
		return fmt.Errorf("eval-diff: naive lineage: %v", err)
	}
	nlPlanned, err := lineage.NLineageOf(inst.DB, inst.Query)
	if err != nil {
		return fmt.Errorf("eval-diff: planned lineage: %v", err)
	}
	if nlNaive.True != nlPlanned.True {
		return fmt.Errorf("eval-diff: lineage True flags differ: naive=%v planned=%v", nlNaive.True, nlPlanned.True)
	}
	if len(nlNaive.Conjuncts) != len(nlPlanned.Conjuncts) {
		return fmt.Errorf("eval-diff: lineages differ: naive %s, planned %s", nlNaive, nlPlanned)
	}
	for i := range nlNaive.Conjuncts {
		if !nlNaive.Conjuncts[i].Equal(nlPlanned.Conjuncts[i]) {
			return fmt.Errorf("eval-diff: lineage conjunct %d differs: naive %v, planned %v (full: naive %s, planned %s)",
				i, nlNaive.Conjuncts[i], nlPlanned.Conjuncts[i], nlNaive, nlPlanned)
		}
	}
	return nil
}

// valuationKeys canonically serializes a valuation list as a sorted,
// deduplicated key set of witness lists (IDs in atom order). A witness
// list determines its valuation's binding, so equal key sets mean equal
// valuation sets.
func valuationKeys(vals []rel.Valuation) []string {
	keys := make([]string, len(vals))
	for i, v := range vals {
		keys[i] = fmt.Sprint(v.Witness)
	}
	sort.Strings(keys)
	return slices.Compact(keys)
}
