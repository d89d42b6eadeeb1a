package exact

import (
	"testing"

	"github.com/querycause/querycause/internal/lineage"
	"github.com/querycause/querycause/internal/rel"
)

// fuzzDNF decodes raw bytes into a small DNF: each byte's low 7 bits
// are one conjunct's variable set over variables 0..6, zero bytes
// skipped, at most 14 conjuncts. Arbitrary inputs reach duplicate,
// subset and superset conjuncts — exactly the shapes the solver's
// preprocessing and protection dedupe must not get wrong.
func fuzzDNF(raw []byte) lineage.DNF {
	var d lineage.DNF
	for _, b := range raw {
		if len(d.Conjuncts) >= 14 {
			break
		}
		bits := int(b) & 127
		if bits == 0 {
			continue
		}
		var ids []rel.TupleID
		for v := 0; v < 7; v++ {
			if bits&(1<<v) != 0 {
				ids = append(ids, rel.TupleID(v))
			}
		}
		d.Conjuncts = append(d.Conjuncts, lineage.NewConjunct(ids...))
	}
	return d
}

// fuzzVariants is every Options configuration the fuzz targets sweep:
// the default plus each optimization toggled off, plus the bare
// branch and bound.
var fuzzVariants = []Options{
	{},
	{DisableGreedySeed: true},
	{DisablePreprocess: true},
	{DisablePackingBound: true},
	{DisableGreedySeed: true, DisablePreprocess: true, DisablePackingBound: true},
}

// FuzzExactIndex drives the indexed branch-and-bound over arbitrary
// (including non-minimal) DNFs: under every Options configuration the
// solver must agree with the definition-level brute force on
// (size, causehood), and every returned set must be witness-valid —
// the lineage survives removing Γ and dies removing Γ ∪ {t}.
//
//	go test ./internal/exact -run '^$' -fuzz FuzzExactIndex
func FuzzExactIndex(f *testing.F) {
	// The greedy non-minimal regression shape, a counterfactual, and a
	// disjoint-target pattern.
	f.Add([]byte{0b0000011, 0b0000010, 0b0001101}, uint8(0))
	f.Add([]byte{1, 2, 4, 8, 16, 32, 64}, uint8(3))
	f.Add([]byte{127, 21, 42, 85}, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, tv uint8) {
		d := fuzzDNF(raw)
		if len(d.Conjuncts) == 0 {
			t.Skip()
		}
		v := rel.TupleID(tv % 7)
		want, wantOK := BruteForceMinContingency(d, v)
		for _, opts := range fuzzVariants {
			set, ok := MinContingencySetOpts(d, v, opts)
			if ok != wantOK || (ok && len(set) != want) {
				t.Fatalf("DNF %v var %d opts %+v: exact=(%d,%v) brute=(%d,%v)", d, v, opts, len(set), ok, want, wantOK)
			}
			if !ok {
				continue
			}
			removed := make(map[rel.TupleID]bool, len(set)+1)
			for _, id := range set {
				if id == v || removed[id] {
					t.Fatalf("DNF %v var %d opts %+v: malformed contingency %v", d, v, opts, set)
				}
				removed[id] = true
			}
			if !d.EvalWithout(removed) {
				t.Fatalf("DNF %v var %d opts %+v: lineage dies removing Γ=%v alone", d, v, opts, set)
			}
			removed[v] = true
			if d.EvalWithout(removed) {
				t.Fatalf("DNF %v var %d opts %+v: lineage survives removing Γ∪{t}, Γ=%v", d, v, opts, set)
			}
		}
	})
}
