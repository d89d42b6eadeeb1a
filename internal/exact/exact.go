// Package exact computes minimum contingency sets (and hence
// responsibilities, Definition 2.3 of Meliou et al., VLDB 2010) by
// exact search. It is exponential in the worst case — responsibility
// is NP-hard for non-weakly-linear queries (Theorem 4.1) — and serves
// three roles: the solver for hard queries on moderate instances, the
// correctness oracle for the polynomial flow algorithm, and the
// baseline in the scaling benchmarks.
//
// The search works on the minimal endogenous lineage Φⁿ: a contingency
// Γ for tuple t must (i) leave some conjunct containing t intact — the
// "protected" conjunct — and (ii) hit every conjunct not containing t.
// Minimizing over protected conjuncts reduces the problem to minimum
// hitting set with forbidden elements (the causality ↔ minimal
// hitting set connection Salimi & Bertossi make explicit).
//
// # The indexed solver
//
// The solver runs on a lineage.Index: tuple IDs interned into dense
// uint32 slots, conjuncts precomputed as []uint64 bitsets with an
// element→conjuncts occurrence index. "Covered", "forbidden" and
// "chosen" are bitset words, coverage is maintained incrementally by
// per-target hit counters (never rescanned per node), and branching
// is over the uncovered target with the fewest alternatives. On top
// of the core, three independently toggleable optimizations (Options):
//
//   - per-subproblem preprocessing: duplicate/superset target
//     elimination, unit propagation for singleton targets, and
//     element-dominance removal;
//   - a greedy seed: GreedyMinContingency's solution primes the upper
//     bound, shared across all protected-conjunct subproblems, which
//     are searched best-first by greedy estimate;
//   - a disjoint-target packing lower bound (one AND-popcount pass
//     per node).
//
// Identical protectable conjuncts are deduplicated before searching,
// so self-join lineages run each subproblem once. One Index per
// lineage also backs GreedyMinContingency and the brute-force
// oracle's evaluation loop; build it once per lineage (core.Engine
// does) and call the *Index entry points to amortize it across
// causes.
package exact

import (
	"sort"

	"github.com/querycause/querycause/internal/lineage"
	"github.com/querycause/querycause/internal/rel"
)

// Options tunes the branch-and-bound search; the zero value is the
// default (fully optimized) configuration. Each field disables one
// optimization independently — the ablation benchmarks
// (BENCH_exact.json, `go run ./cmd/experiments -run exactcurve`)
// record the cost of every toggle, and the differential harness
// asserts that no toggle changes any answer.
type Options struct {
	// DisablePackingBound turns off the disjoint-target packing lower
	// bound, leaving only the depth-vs-best pruning.
	DisablePackingBound bool
	// DisablePreprocess turns off per-subproblem preprocessing:
	// duplicate/superset target elimination, unit propagation for
	// singleton targets, and element-dominance removal.
	DisablePreprocess bool
	// DisableGreedySeed turns off seeding the upper bound with the
	// greedy solution and the best-first ordering of protected
	// conjuncts by greedy estimate.
	DisableGreedySeed bool
}

// MinContingency computes the size of the smallest contingency set for
// tuple t over the n-lineage d. It returns ok=false when t is not an
// actual cause (no conjunct of d contains t, or d is the constant
// true).
func MinContingency(d lineage.DNF, t rel.TupleID) (size int, ok bool) {
	return MinContingencyOpts(d, t, Options{})
}

// MinContingencyOpts is MinContingency with explicit search options.
func MinContingencyOpts(d lineage.DNF, t rel.TupleID, opts Options) (size int, ok bool) {
	set, ok := MinContingencySetOpts(d, t, opts)
	return len(set), ok
}

// MinContingencySet returns an actual minimum contingency set for t
// (sorted), not just its size: removing exactly these tuples makes t
// counterfactual. ok=false when t is not an actual cause. The empty
// set with ok=true means t is already counterfactual.
func MinContingencySet(d lineage.DNF, t rel.TupleID) ([]rel.TupleID, bool) {
	return MinContingencySetOpts(d, t, Options{})
}

// MinContingencySetOpts is MinContingencySet with explicit options.
// The DNF is minimized (RemoveRedundant) and interned into a fresh
// lineage.Index first; callers explaining many causes over one
// lineage should build the Index once and use MinContingencySetIndex.
func MinContingencySetOpts(d lineage.DNF, t rel.TupleID, opts Options) ([]rel.TupleID, bool) {
	if d.True {
		return nil, false
	}
	return MinContingencySetIndex(lineage.NewIndex(lineage.RemoveRedundant(d)), t, opts)
}

// MinContingencyIndex is MinContingencySetIndex returning only the
// size.
func MinContingencyIndex(ix *lineage.Index, t rel.TupleID, opts Options) (int, bool) {
	set, ok := MinContingencySetIndex(ix, t, opts)
	return len(set), ok
}

// MinContingencySetIndex computes an actual minimum contingency set
// for t over an interned lineage, reusing the index's precomputed
// bitsets. The index should be built over the minimal
// (redundancy-free) lineage; the result is correct for any DNF, but
// redundant conjuncts cost search time. The index is read-only and
// may be shared by concurrent calls.
func MinContingencySetIndex(ix *lineage.Index, t rel.TupleID, opts Options) ([]rel.TupleID, bool) {
	tslot, ok := ix.Slot(t)
	if !ok || ix.NumConjuncts() == 0 {
		return nil, false
	}
	s := &searcher{ix: ix, tslot: tslot, opts: opts, best: -1}
	s.run()
	if s.best < 0 {
		return nil, false
	}
	out := make([]rel.TupleID, len(s.bestSet))
	for i, e := range s.bestSet {
		out[i] = ix.ID(e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

// Responsibility computes ρ_t = 1/(1+min|Γ|), or 0 if t is not a cause.
func Responsibility(d lineage.DNF, t rel.TupleID) float64 {
	size, ok := MinContingency(d, t)
	if !ok {
		return 0
	}
	return 1 / (1 + float64(size))
}

// MinContingencyDB computes the minimum contingency for t of the Boolean
// query q on db, going through the lineage pipeline. ok=false means t is
// not an actual cause.
func MinContingencyDB(db *rel.Database, q *rel.Query, t rel.TupleID) (int, bool, error) {
	n, err := lineage.NLineageOf(db, q)
	if err != nil {
		return 0, false, err
	}
	size, ok := MinContingency(n, t)
	return size, ok, nil
}

// BruteForceMinContingency is the definition-level oracle: it enumerates
// candidate contingency sets Γ ⊆ vars(Φⁿ)\{t} in order of increasing
// size and returns the first valid one's size. A Γ is valid when the
// n-lineage stays satisfiable without Γ and becomes unsatisfiable
// without Γ∪{t} (Theorem 3.2, condition 2).
//
// Exponential in the lineage's variable count; intended for tests on
// small instances. The evaluation loop runs on a lineage.Index
// (bitset satisfiability checks); oracle loops over one lineage
// should build the Index once and call the Index form.
func BruteForceMinContingency(d lineage.DNF, t rel.TupleID) (int, bool) {
	if d.True {
		return 0, false
	}
	return BruteForceMinContingencyIndex(lineage.NewIndex(d), t)
}

// BruteForceMinContingencyIndex is BruteForceMinContingency over a
// prebuilt index of the same DNF.
func BruteForceMinContingencyIndex(ix *lineage.Index, t rel.TupleID) (int, bool) {
	if ix.NumConjuncts() == 0 {
		return 0, false
	}
	tslot, ok := ix.Slot(t)
	if !ok {
		// t occurs nowhere: removing it never changes the lineage, so no
		// Γ can be both satisfiability-preserving and t-killing.
		return 0, false
	}
	universe := make([]uint32, 0, ix.NumVars()-1)
	for s := uint32(0); s < uint32(ix.NumVars()); s++ {
		if s != tslot {
			universe = append(universe, s)
		}
	}
	removed := ix.NewSlotBits()
	valid := func() bool {
		if !ix.SatisfiableWithout(removed) {
			return false
		}
		removed.Set(tslot)
		dead := !ix.SatisfiableWithout(removed)
		removed.Clear(tslot)
		return dead
	}
	// Size 0 upward, subsets in lexicographic order (the first valid
	// size is the answer; order keeps the oracle deterministic).
	var search func(start, k int) bool
	search = func(start, k int) bool {
		if k == 0 {
			return valid()
		}
		for i := start; i <= len(universe)-k; i++ {
			s := universe[i]
			removed.Set(s)
			if search(i+1, k-1) {
				removed.Clear(s)
				return true
			}
			removed.Clear(s)
		}
		return false
	}
	for k := 0; k <= len(universe); k++ {
		if search(0, k) {
			return k, true
		}
	}
	return 0, false
}

// GreedyMinContingency computes an upper bound on the minimum
// contingency by greedy hitting: protect a conjunct containing t, then
// repeatedly pick the allowed element covering the most uncovered
// targets. Used as a polynomial-time baseline and as the exact
// solver's seed bound; not exact — but it over-approximates only: it
// reports ok on exactly the actual causes, and its size is never below
// the true minimum.
//
// The input is minimized first (RemoveRedundant). On a non-minimal
// DNF, a conjunct containing t may strictly contain a target conjunct,
// which would make that protection choice infeasible; minimization
// rules this out, and every remaining protection choice is tried so a
// single unlucky pick cannot misreport a cause as a non-cause (a bug
// the differential harness's DNF fuzzing surfaced; see
// internal/difftest/testdata/greedy_nonminimal.dnf).
func GreedyMinContingency(d lineage.DNF, t rel.TupleID) (int, bool) {
	d = lineage.RemoveRedundant(d)
	if d.True {
		return 0, false
	}
	return GreedyMinContingencyIndex(lineage.NewIndex(d), t)
}

// GreedyMinContingencyIndex is GreedyMinContingency over a prebuilt
// index. The index must be built over a minimal (redundancy-free)
// DNF — on non-minimal lineages greedy can misreport causes as
// non-causes; use the DNF form, which minimizes first.
func GreedyMinContingencyIndex(ix *lineage.Index, t rel.TupleID) (int, bool) {
	tslot, ok := ix.Slot(t)
	if !ok || ix.NumConjuncts() == 0 {
		return 0, false
	}
	best := -1
	for _, p := range protections(ix, tslot) {
		set, feasible := greedyProtection(ix, tslot, p)
		if feasible && (best < 0 || len(set) < best) {
			best = len(set)
			if best == 0 {
				break
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}
