package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/exact"
	"github.com/querycause/querycause/internal/lineage"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/server"
	"github.com/querycause/querycause/internal/whyno"
)

// The oracles check the program's outputs against computations made
// apart from the ranking engine: the naive reference evaluator's
// lineage, the definition of a contingency set (Definition 2.3)
// evaluated directly on that lineage, and the exact, greedy and
// brute-force solvers where a minimum must be confirmed.

// reference is one explained answer's expected ranking: the naive
// plane's minimal endogenous lineage, its variables (the causes, by
// Theorem 3.2), and — when known — each cause's minimum contingency
// size.
type reference struct {
	lin    lineage.DNF
	causes []rel.TupleID
	size   map[rel.TupleID]int
}

// naiveReference builds the reference lineage on the naive plane.
func naiveReference(db *rel.Database, bq *rel.Query) (*reference, error) {
	d, err := lineage.NLineageOfNaive(db, bq)
	if err != nil {
		return nil, fmt.Errorf("naive lineage: %w", err)
	}
	ref := &reference{lin: d}
	if !d.True {
		ref.causes = d.Vars()
	}
	return ref, nil
}

// exactReference adds to the naive reference each cause's minimum
// contingency size by the exact solver instead of flow, fanned out
// over workers goroutines.
func exactReference(db *rel.Database, bq *rel.Query, workers int) (*reference, error) {
	ref, err := naiveReference(db, bq)
	if err != nil {
		return nil, err
	}
	ref.size = make(map[rel.TupleID]int, len(ref.causes))
	if len(ref.causes) == 0 {
		return ref, nil
	}
	ix := lineage.NewIndex(ref.lin)
	sizes := make([]int, len(ref.causes))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				set, ok := exact.MinContingencySetIndex(ix, ref.causes[i], exact.Options{})
				sizes[i] = len(set)
				if !ok {
					sizes[i] = -1
				}
			}
		}()
	}
	for i := range ref.causes {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, t := range ref.causes {
		if sizes[i] < 0 {
			return nil, fmt.Errorf("exact reference: lineage variable %d has no contingency", t)
		}
		ref.size[t] = sizes[i]
	}
	return ref, nil
}

// checkShape checks what every ranking must satisfy: exactly the
// reference causes, each once; ρ = 1/(1+|Γ|) with the reported size
// equal to |Γ|; and the ranking order (descending ρ, ties by ascending
// tuple id).
func checkShape(ref *reference, exps []core.Explanation) error {
	if len(exps) != len(ref.causes) {
		return fmt.Errorf("ranking has %d causes, the naive lineage has %d variables", len(exps), len(ref.causes))
	}
	got := make([]rel.TupleID, len(exps))
	for i, e := range exps {
		got[i] = e.Tuple
		if e.ContingencySize != len(e.Contingency) {
			return fmt.Errorf("tuple %d: contingency size %d but |Γ| = %d", e.Tuple, e.ContingencySize, len(e.Contingency))
		}
		if want := 1 / (1 + float64(len(e.Contingency))); e.Rho != want {
			return fmt.Errorf("tuple %d: ρ = %v, want 1/(1+%d) = %v", e.Tuple, e.Rho, len(e.Contingency), want)
		}
		if i > 0 {
			p := exps[i-1]
			if p.Rho < e.Rho || (p.Rho == e.Rho && p.Tuple >= e.Tuple) {
				return fmt.Errorf("ranking order broken at position %d (tuple %d ρ=%v after tuple %d ρ=%v)", i, e.Tuple, e.Rho, p.Tuple, p.Rho)
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, ref.causes) {
		return fmt.Errorf("cause set differs from the naive lineage's variables")
	}
	return nil
}

// checkWhySo validates a why-so ranking: its shape, every Γ by
// definition, and every size against the reference's minimum when it
// has one.
func checkWhySo(ref *reference, db *rel.Database, exps []core.Explanation) error {
	if err := checkShape(ref, exps); err != nil {
		return err
	}
	for _, e := range exps {
		if err := validWhySoContingency(ref.lin, db, e.Tuple, e.Contingency); err != nil {
			return err
		}
		if ref.size != nil && ref.size[e.Tuple] != len(e.Contingency) {
			return fmt.Errorf("tuple %d: |Γ| = %d, the exact reference minimum is %d", e.Tuple, len(e.Contingency), ref.size[e.Tuple])
		}
	}
	return nil
}

// validWhySoContingency checks Definition 2.3 on the lineage: Γ holds
// only endogenous tuples other than t, the lineage stays true without
// Γ, and becomes false without Γ ∪ {t}.
func validWhySoContingency(lin lineage.DNF, db *rel.Database, t rel.TupleID, gamma []rel.TupleID) error {
	removed := make(map[rel.TupleID]bool, len(gamma)+1)
	for _, g := range gamma {
		if g == t || !db.Endo(g) {
			return fmt.Errorf("tuple %d: Γ holds %d, which is the cause itself or exogenous", t, g)
		}
		removed[g] = true
	}
	if !lin.EvalWithout(removed) {
		return fmt.Errorf("tuple %d: the lineage is false without Γ", t)
	}
	removed[t] = true
	if lin.EvalWithout(removed) {
		return fmt.Errorf("tuple %d: the lineage is still true without Γ ∪ {t}", t)
	}
	return nil
}

// checkStar validates a ranking of an NP-hard star: its shape, every Γ
// by definition, each size no larger than the greedy bound, and — when
// brute is set — each size equal to the brute-force minimum.
func checkStar(ref *reference, db *rel.Database, exps []core.Explanation, brute bool) error {
	if err := checkShape(ref, exps); err != nil {
		return err
	}
	ix := lineage.NewIndex(ref.lin)
	for _, e := range exps {
		if err := validWhySoContingency(ref.lin, db, e.Tuple, e.Contingency); err != nil {
			return err
		}
		g, ok := exact.GreedyMinContingencyIndex(ix, e.Tuple)
		if !ok || len(e.Contingency) > g {
			return fmt.Errorf("tuple %d: |Γ| = %d exceeds the greedy bound %d (ok=%v)", e.Tuple, len(e.Contingency), g, ok)
		}
		if brute {
			b, ok := exact.BruteForceMinContingencyIndex(ix, e.Tuple)
			if !ok || b != len(e.Contingency) {
				return fmt.Errorf("tuple %d: |Γ| = %d, brute force finds %d (ok=%v)", e.Tuple, len(e.Contingency), b, ok)
			}
		}
	}
	return nil
}

// checkWhyNo validates a why-no ranking: its shape, every Γ by
// definition (inserting Γ keeps the query false, inserting Γ ∪ {t}
// makes it true), each size equal to the smallest lineage conjunct
// through t minus one (the why-no minimum on a minimal lineage), and —
// when brute is set — equal to whyno.BruteForceMinContingency.
func checkWhyNo(ref *reference, db *rel.Database, bq *rel.Query, exps []core.Explanation, brute bool) error {
	if err := checkShape(ref, exps); err != nil {
		return err
	}
	for _, e := range exps {
		present := make(map[rel.TupleID]bool, len(e.Contingency)+1)
		for _, g := range e.Contingency {
			if g == e.Tuple || !db.Endo(g) {
				return fmt.Errorf("tuple %d: Γ holds %d, which is the cause itself or not a candidate", e.Tuple, g)
			}
			present[g] = true
		}
		if fires(ref.lin, present) {
			return fmt.Errorf("tuple %d: the query is already true with Γ inserted", e.Tuple)
		}
		present[e.Tuple] = true
		if !fires(ref.lin, present) {
			return fmt.Errorf("tuple %d: the query stays false with Γ ∪ {t} inserted", e.Tuple)
		}
		want := -1
		for _, c := range ref.lin.Conjuncts {
			if c.Contains(e.Tuple) && (want < 0 || len(c)-1 < want) {
				want = len(c) - 1
			}
		}
		if len(e.Contingency) != want {
			return fmt.Errorf("tuple %d: |Γ| = %d, the smallest conjunct through it gives %d", e.Tuple, len(e.Contingency), want)
		}
		if brute {
			b, ok, err := whyno.BruteForceMinContingency(db, bq, e.Tuple)
			if err != nil || !ok || b != want {
				return fmt.Errorf("tuple %d: |Γ| = %d, brute force finds %d (ok=%v, err=%v)", e.Tuple, want, b, ok, err)
			}
		}
	}
	return nil
}

// fires reports whether some conjunct has all its tuples present.
func fires(lin lineage.DNF, present map[rel.TupleID]bool) bool {
outer:
	for _, c := range lin.Conjuncts {
		for _, id := range c {
			if !present[id] {
				continue outer
			}
		}
		return true
	}
	return false
}

// checkSortedStream checks that a drained stream, once sorted, equals
// the blocking ranking.
func checkSortedStream(stream, ranked []core.Explanation) error {
	s := append([]core.Explanation(nil), stream...)
	core.SortExplanations(s)
	if len(s) != len(ranked) {
		return fmt.Errorf("sorted stream has %d explanations, Rank %d", len(s), len(ranked))
	}
	for i := range s {
		a, err := json.Marshal(s[i])
		if err != nil {
			return err
		}
		b, err := json.Marshal(ranked[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("sorted stream differs from Rank at position %d: stream %s, Rank %s", i, a, b)
		}
	}
	return nil
}

// sameBytes compares two wire rankings byte for byte.
func sameBytes(what string, a, b []server.ExplanationDTO) error {
	ja, err := json.Marshal(a)
	if err != nil {
		return err
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(ja, jb) {
		return fmt.Errorf("%s differ (%d vs %d bytes)", what, len(ja), len(jb))
	}
	return nil
}
