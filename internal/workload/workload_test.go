package workload

import (
	"testing"

	"github.com/querycause/querycause/internal/lineage"
	"github.com/querycause/querycause/internal/ra"
	"github.com/querycause/querycause/internal/rel"
)

func TestGeneratorsProduceCauses(t *testing.T) {
	type gen func(int64, int) (*rel.Database, *rel.Query, rel.TupleID)
	for name, g := range map[string]gen{
		"chain2": Chain2, "chain3": Chain3, "triangle": Triangle,
		"triangleExoS": TriangleExoS, "star": Star,
	} {
		db, q, target := g(1, 12)
		holds, err := ra.Holds(db, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !holds {
			t.Fatalf("%s: query must hold (seeded witness row)", name)
		}
		n, err := lineage.NLineageOf(db, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n.True {
			t.Fatalf("%s: lineage must not be trivially true", name)
		}
		found := false
		for _, c := range n.Conjuncts {
			if c.Contains(target) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: target %v not in any minimal conjunct", name, db.Tuple(target))
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, _, _ := Chain2(7, 20)
	b, _, _ := Chain2(7, 20)
	if a.NumTuples() != b.NumTuples() {
		t.Fatal("same seed, different sizes")
	}
	for i := 0; i < a.NumTuples(); i++ {
		ta, tb := a.Tuple(rel.TupleID(i)), b.Tuple(rel.TupleID(i))
		if ta.Rel != tb.Rel || ta.Args[0] != tb.Args[0] || ta.Args[1] != tb.Args[1] {
			t.Fatalf("tuple %d differs", i)
		}
	}
}

func TestTriangleExoSFlags(t *testing.T) {
	db, _, _ := TriangleExoS(3, 10)
	for _, id := range db.Relation("S").RowIDs() {
		if db.Endo(id) {
			t.Fatal("S must be exogenous in TriangleExoS")
		}
	}
	for _, id := range db.Relation("R").RowIDs() {
		if !db.Endo(id) {
			t.Fatal("R must be endogenous")
		}
	}
}

func TestWhyNoChainShape(t *testing.T) {
	db, q := WhyNoChain(5, 15)
	for _, id := range db.Relation("R").RowIDs() {
		if db.Endo(id) {
			t.Fatal("real database must be exogenous")
		}
	}
	for _, id := range db.Relation("S").RowIDs() {
		if !db.Endo(id) {
			t.Fatal("candidates must be endogenous")
		}
	}
	if len(q.Atoms) != 2 {
		t.Fatal("query shape wrong")
	}
}

func TestDomainGrowsSublinearly(t *testing.T) {
	if domainFor(4) >= domainFor(100) {
		t.Error("domain should grow with n")
	}
	if domainFor(100) > 12 {
		t.Errorf("domain too large: %d", domainFor(100))
	}
}
