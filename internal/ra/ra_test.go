package ra

import (
	"fmt"
	"sort"
	"testing"

	"github.com/querycause/querycause/internal/rel"
)

// canon serializes a valuation list as a sorted set of witness lists,
// so naive and planned enumerations compare independent of order.
func canon(t *testing.T, vals []rel.Valuation) []string {
	t.Helper()
	keys := make([]string, 0, len(vals))
	for _, v := range vals {
		keys = append(keys, fmt.Sprint(v.Witness))
	}
	sort.Strings(keys)
	return keys
}

// assertAgree requires the planned pipeline and the naive reference to
// produce byte-identical valuation sets after sorting, and agreeing
// Holds results.
func assertAgree(t *testing.T, db *rel.Database, q *rel.Query) {
	t.Helper()
	naive, nerr := rel.EvalNaive(db, q)
	planned, perr := Valuations(db, q)
	if (nerr == nil) != (perr == nil) {
		t.Fatalf("error mismatch: naive=%v planned=%v", nerr, perr)
	}
	if nerr != nil {
		if nerr.Error() != perr.Error() {
			t.Fatalf("error texts differ:\n  naive:   %v\n  planned: %v", nerr, perr)
		}
		return
	}
	nk, pk := canon(t, naive), canon(t, planned)
	if len(nk) != len(pk) {
		t.Fatalf("naive found %d valuations, planned %d\nnaive: %v\nplanned: %v", len(nk), len(pk), nk, pk)
	}
	for i := range nk {
		if nk[i] != pk[i] {
			t.Fatalf("valuation %d differs:\n  naive:   %s\n  planned: %s", i, nk[i], pk[i])
		}
	}
	hn, _ := rel.HoldsNaive(db, q)
	hp, err := Holds(db, q)
	if err != nil {
		t.Fatalf("Holds: %v", err)
	}
	if hn != hp {
		t.Fatalf("Holds disagrees: naive=%v planned=%v", hn, hp)
	}
}

func chainDB(t *testing.T) *rel.Database {
	t.Helper()
	db := rel.NewDatabase()
	db.MustAdd("R", true, "a", "b1")
	db.MustAdd("R", true, "a", "b2")
	db.MustAdd("R", false, "a2", "b1")
	db.MustAdd("S", true, "b1", "c1")
	db.MustAdd("S", true, "b2", "c1")
	db.MustAdd("S", false, "b2", "c2")
	db.MustAdd("T", true, "c1")
	db.MustAdd("T", false, "c2")
	return db
}

func TestJoinChainAgreesWithNaive(t *testing.T) {
	db := chainDB(t)
	q := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("z")),
		rel.NewAtom("T", rel.V("z")),
	)
	assertAgree(t, db, q)
}

func TestCartesianNoSharedVars(t *testing.T) {
	db := chainDB(t)
	q := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("T", rel.V("w")),
	)
	assertAgree(t, db, q)
}

func TestConstantOnlyAtom(t *testing.T) {
	db := chainDB(t)
	for _, q := range []*rel.Query{
		rel.NewBoolean(rel.NewAtom("R", rel.C("a"), rel.C("b1"))),
		rel.NewBoolean(rel.NewAtom("R", rel.C("a"), rel.C("nope"))),
		rel.NewBoolean(
			rel.NewAtom("T", rel.C("c1")),
			rel.NewAtom("S", rel.V("y"), rel.V("z")),
		),
	} {
		assertAgree(t, db, q)
	}
}

func TestSelfJoin(t *testing.T) {
	db := rel.NewDatabase()
	db.MustAdd("E", true, "a", "b")
	db.MustAdd("E", true, "b", "c")
	db.MustAdd("E", true, "c", "a")
	db.MustAdd("E", false, "a", "a")
	// Paths of length two, including through the self-loop.
	q := rel.NewBoolean(
		rel.NewAtom("E", rel.V("x"), rel.V("y")),
		rel.NewAtom("E", rel.V("y"), rel.V("z")),
	)
	assertAgree(t, db, q)
	// Repeated variable inside one atom: the self-loop alone.
	q2 := rel.NewBoolean(rel.NewAtom("E", rel.V("x"), rel.V("x")))
	assertAgree(t, db, q2)
	// Triangle self-join closing back on the first variable.
	q3 := rel.NewBoolean(
		rel.NewAtom("E", rel.V("x"), rel.V("y")),
		rel.NewAtom("E", rel.V("y"), rel.V("z")),
		rel.NewAtom("E", rel.V("z"), rel.V("x")),
	)
	assertAgree(t, db, q3)
}

func TestSingleAtom(t *testing.T) {
	db := chainDB(t)
	assertAgree(t, db, rel.NewBoolean(rel.NewAtom("R", rel.V("x"), rel.V("y"))))
	assertAgree(t, db, rel.NewBoolean(rel.NewAtom("T", rel.V("x"))))
}

func TestEmptyAndMissingRelations(t *testing.T) {
	db := chainDB(t)
	// Missing relation: empty result, nil error (naive contract).
	assertAgree(t, db, rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("Nope", rel.V("y")),
	))
	// Missing relation earlier in atom order than a later arity
	// mismatch: the empty result wins, no error.
	assertAgree(t, db, rel.NewBoolean(
		rel.NewAtom("Nope", rel.V("x")),
		rel.NewAtom("R", rel.V("x")),
	))
	// Arity mismatch alone is an error from both backends.
	assertAgree(t, db, rel.NewBoolean(rel.NewAtom("R", rel.V("x"))))
}

func TestZeroAtomQuery(t *testing.T) {
	db := chainDB(t)
	assertAgree(t, db, rel.NewBoolean())
}

func TestConstantNeverInterned(t *testing.T) {
	db := chainDB(t)
	q := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.C("never-seen")),
	)
	assertAgree(t, db, q)
}

func TestHoldsWithoutMatchesNaive(t *testing.T) {
	db := chainDB(t)
	q := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("z")),
		rel.NewAtom("T", rel.V("z")),
	)
	n := db.NumTuples()
	// Every subset of removed tuples over the small database.
	for mask := 0; mask < 1<<n; mask++ {
		removed := make(map[rel.TupleID]bool)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				removed[rel.TupleID(i)] = true
			}
		}
		hn, err := rel.HoldsWithoutNaive(db, q, removed)
		if err != nil {
			t.Fatal(err)
		}
		hp, err := HoldsWithout(db, q, removed)
		if err != nil {
			t.Fatal(err)
		}
		if hn != hp {
			t.Fatalf("HoldsWithout disagrees for removed=%v: naive=%v planned=%v", removed, hn, hp)
		}
	}
}

func TestNLineageConjunctsMatchesTwoPass(t *testing.T) {
	db := chainDB(t)
	q := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("z")),
		rel.NewAtom("T", rel.V("z")),
	)
	conjs, isTrue, err := NLineageConjuncts(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if isTrue {
		t.Fatal("lineage reported trivially true on an all-endogenous witness set")
	}
	// Recompute by definition from the naive valuations.
	naive, err := rel.EvalNaive(db, q)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool)
	for _, v := range naive {
		var endo []rel.TupleID
		for _, id := range v.Witness {
			if db.Endo(id) {
				endo = append(endo, id)
			}
		}
		sort.Slice(endo, func(i, j int) bool { return endo[i] < endo[j] })
		want[fmt.Sprint(endo)] = true
	}
	got := make(map[string]bool)
	for _, c := range conjs {
		got[fmt.Sprint(c)] = true
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d distinct conjuncts, two-pass %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("two-pass conjunct %s missing from streamed lineage", k)
		}
	}
	// And the trivially-true case: an exogenous-only witness.
	dbx := rel.NewDatabase()
	dbx.MustAdd("R", false, "a")
	dbx.MustAdd("R", true, "b")
	_, isTrue, err = NLineageConjuncts(dbx, rel.NewBoolean(rel.NewAtom("R", rel.C("a"))))
	if err != nil {
		t.Fatal(err)
	}
	if !isTrue {
		t.Fatal("exogenous-only witness must make the endogenous lineage true")
	}
}

// TestNLineageConjunctsPinned holds the pinned evaluation to its
// definition: for every atom position and every tuple, the pinned
// conjuncts are exactly the conjuncts of the full valuations whose
// witness uses that tuple at that atom — including self-joins, where
// the same tuple contributes different conjuncts per occurrence.
func TestNLineageConjunctsPinned(t *testing.T) {
	selfDB := rel.NewDatabase()
	selfDB.MustAdd("E", true, "a", "b")
	selfDB.MustAdd("E", true, "b", "c")
	selfDB.MustAdd("E", false, "c", "a")
	selfDB.MustAdd("E", true, "b", "b")
	cases := []struct {
		db *rel.Database
		q  *rel.Query
	}{
		{chainDB(t), rel.NewBoolean(
			rel.NewAtom("R", rel.V("x"), rel.V("y")),
			rel.NewAtom("S", rel.V("y"), rel.V("z")),
			rel.NewAtom("T", rel.V("z")),
		)},
		{selfDB, rel.NewBoolean(
			rel.NewAtom("E", rel.V("x"), rel.V("y")),
			rel.NewAtom("E", rel.V("y"), rel.V("z")),
		)},
	}
	canonConj := func(c []rel.TupleID) string {
		sorted := append([]rel.TupleID(nil), c...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		out := sorted[:0]
		for i, id := range sorted {
			if i == 0 || sorted[i-1] != id {
				out = append(out, id)
			}
		}
		return fmt.Sprint(out)
	}
	for ci, tc := range cases {
		naive, err := rel.EvalNaive(tc.db, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		for atom := range tc.q.Atoms {
			for id := rel.TupleID(0); int(id) < tc.db.NumTuples(); id++ {
				want := make(map[string]bool)
				wantTrue := false
				for _, v := range naive {
					if v.Witness[atom] != id {
						continue
					}
					var endo []rel.TupleID
					for _, w := range v.Witness {
						if tc.db.Endo(w) {
							endo = append(endo, w)
						}
					}
					if len(endo) == 0 {
						wantTrue = true
					}
					want[canonConj(endo)] = true
				}
				got, isTrue, err := NLineageConjunctsPinned(tc.db, tc.q, atom, id)
				if err != nil {
					t.Fatal(err)
				}
				if isTrue != wantTrue {
					t.Fatalf("case %d atom %d id %d: pinned isTrue=%v, naive says %v", ci, atom, id, isTrue, wantTrue)
				}
				if wantTrue {
					continue // evaluation legitimately cut short
				}
				gotSet := make(map[string]bool)
				for _, c := range got {
					gotSet[canonConj(c)] = true
				}
				if len(gotSet) != len(want) {
					t.Fatalf("case %d atom %d id %d: pinned %d conjuncts %v, naive %d %v", ci, atom, id, len(gotSet), gotSet, len(want), want)
				}
				for k := range want {
					if !gotSet[k] {
						t.Fatalf("case %d atom %d id %d: conjunct %s missing from pinned lineage", ci, atom, id, k)
					}
				}
			}
		}
	}
}

// TestPlannerPrefersSelective pins the atom-ordering heuristic:
// joined-to-bound-variables beats unconnected, then constants beat
// shared-variable count beat cardinality, ties to the lowest atom
// index.
func TestPlannerPrefersSelective(t *testing.T) {
	db := rel.NewDatabase()
	for i := 0; i < 20; i++ {
		db.MustAdd("Big", true, rel.Value(fmt.Sprintf("b%d", i)), "x")
	}
	db.MustAdd("Small", true, "x", "y")
	db.MustAdd("Const", true, "k", "x")

	q := rel.NewBoolean(
		rel.NewAtom("Big", rel.V("a"), rel.V("b")),
		rel.NewAtom("Small", rel.V("b"), rel.V("c")),
		rel.NewAtom("Const", rel.C("k"), rel.V("b")),
	)
	p, err := compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for _, st := range p.steps {
		order = append(order, st.atom)
	}
	// Const (has a constant) first, then Small (shares b, smaller), then Big.
	if fmt.Sprint(order) != "[2 1 0]" {
		t.Fatalf("planner order = %v, want [2 1 0]", order)
	}
	assertAgree(t, db, q)
}

// TestPlannerAvoidsCartesianArm pins the connectivity rule on the
// Fig. 1 genre-query shape: with constants on both the first and last
// atom, the last atom's constant must NOT pull it ahead of the joined
// middle atoms — evaluated unconnected it multiplies the pipeline by
// its match count instead of filtering it.
func TestPlannerAvoidsCartesianArm(t *testing.T) {
	db := rel.NewDatabase()
	db.MustAdd("D", true, "d1", "k")
	db.MustAdd("MD", true, "d1", "m1")
	db.MustAdd("G", true, "m1", "g")
	db.MustAdd("G", true, "m2", "g")

	q := rel.NewBoolean(
		rel.NewAtom("D", rel.V("d"), rel.C("k")),
		rel.NewAtom("MD", rel.V("d"), rel.V("m")),
		rel.NewAtom("G", rel.V("m"), rel.C("g")),
	)
	p, err := compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for _, st := range p.steps {
		order = append(order, st.atom)
	}
	// D (constant head) first, then MD (joins d); G joins m only after
	// MD binds it, its constant notwithstanding.
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Fatalf("planner order = %v, want [0 1 2]", order)
	}
	if len(p.steps[2].join) == 0 {
		t.Fatalf("G step has no join columns — cartesian arm")
	}
	assertAgree(t, db, q)
}

// TestRandomizedAgreement cross-checks a few hundred structured random
// databases and join shapes against the naive evaluator.
func TestRandomizedAgreement(t *testing.T) {
	shapes := []*rel.Query{
		rel.NewBoolean(rel.NewAtom("R", rel.V("x"), rel.V("y")), rel.NewAtom("S", rel.V("y"), rel.V("z"))),
		rel.NewBoolean(rel.NewAtom("R", rel.V("x"), rel.V("y")), rel.NewAtom("S", rel.V("y"), rel.V("x"))),
		rel.NewBoolean(rel.NewAtom("R", rel.V("x"), rel.V("x"))),
		rel.NewBoolean(rel.NewAtom("R", rel.V("x"), rel.C("v1")), rel.NewAtom("S", rel.V("x"), rel.V("y"))),
		rel.NewBoolean(rel.NewAtom("R", rel.V("x"), rel.V("y")), rel.NewAtom("S", rel.V("z"), rel.V("w"))),
	}
	vals := []rel.Value{"v0", "v1", "v2"}
	for seed := 0; seed < 50; seed++ {
		db := rel.NewDatabase()
		s := uint64(seed)*2654435761 + 12345
		next := func(n int) int {
			s = s*6364136223846793005 + 1442695040888963407
			return int((s >> 33) % uint64(n))
		}
		for i := 0; i < 8; i++ {
			db.MustAdd("R", next(2) == 0, vals[next(3)], vals[next(3)])
		}
		for i := 0; i < 8; i++ {
			db.MustAdd("S", next(2) == 0, vals[next(3)], vals[next(3)])
		}
		for _, q := range shapes {
			assertAgree(t, db, q)
		}
	}
}
