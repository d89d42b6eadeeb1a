package ra

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/querycause/querycause/internal/rel"
)

// joinDB is a small random database over R/2, S/3, T/1 and U/4 drawing
// values from a narrow domain, so joins fan out and repeat.
func joinDB(seed int64, rows int) *rel.Database {
	rng := rand.New(rand.NewSource(seed))
	db := rel.NewDatabase()
	for i := 0; i < rows; i++ {
		addRandom(db, rng)
	}
	return db
}

var joinVals = []rel.Value{"v0", "v1", "v2", "v3"}

// addRandom adds one random tuple to R, S, T or U.
func addRandom(db *rel.Database, rng *rand.Rand) {
	v := func() rel.Value { return joinVals[rng.Intn(len(joinVals))] }
	endo := rng.Intn(3) > 0
	switch rng.Intn(4) {
	case 0:
		db.MustAdd("R", endo, v(), v())
	case 1:
		db.MustAdd("S", endo, v(), v(), v())
	case 2:
		db.MustAdd("T", endo, v())
	default:
		db.MustAdd("U", endo, v(), v(), v(), v())
	}
}

// joinShapes are queries whose later steps are joins: on two columns at
// once, combined with a constant and a repeated variable, and chains.
var joinShapes = []*rel.Query{
	// S joins R on both x and y.
	rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("x"), rel.V("y"), rel.V("z")),
	),
	// U joins on x, selects a constant, and repeats z.
	rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("U", rel.V("x"), rel.C("v1"), rel.V("z"), rel.V("z")),
		rel.NewAtom("T", rel.V("z")),
	),
	// S joins on y and repeats z.
	rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("z"), rel.V("z")),
	),
	// S joins on x and y with a constant between them.
	rel.NewBoolean(
		rel.NewAtom("T", rel.V("x")),
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("x"), rel.C("v2"), rel.V("y")),
	),
	// Self-join chain through R.
	rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("R", rel.V("y"), rel.V("z")),
		rel.NewAtom("T", rel.V("z")),
	),
}

// hasJoinStep reports whether q's plan over db joins at atom (any atom
// when atom < 0), so a test can check it exercises the probe path.
func hasJoinStep(t *testing.T, db *rel.Database, q *rel.Query, atom int) bool {
	t.Helper()
	p, err := compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		return false
	}
	for _, st := range p.steps {
		if len(st.join) > 0 && (atom < 0 || st.atom == atom) {
			return true
		}
	}
	return false
}

// TestJoinStepsAgreeWithNaive holds every join shape to the naive
// evaluator as a multiset, over random databases.
func TestJoinStepsAgreeWithNaive(t *testing.T) {
	probed := make([]bool, len(joinShapes))
	for seed := int64(0); seed < 40; seed++ {
		db := joinDB(seed, 30)
		for qi, q := range joinShapes {
			probed[qi] = probed[qi] || hasJoinStep(t, db, q, -1)
			assertAgree(t, db, q)
		}
	}
	for qi, ok := range probed {
		if !ok {
			t.Errorf("shape %d never planned a join step", qi)
		}
	}
}

// pinnedValuations collects the valuations of q whose witness uses id at
// atom, through the pinned pipeline.
func pinnedValuations(t *testing.T, db *rel.Database, q *rel.Query, atom int, id rel.TupleID) []rel.Valuation {
	t.Helper()
	p, err := compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		return nil
	}
	var out []rel.Valuation
	p.runPinned(nil, atom, id, func(_ []uint32, witness []rel.TupleID) bool {
		out = append(out, rel.Valuation{Witness: append([]rel.TupleID(nil), witness...)})
		return true
	})
	return out
}

// TestPinnedJoinStep pins a tuple at an atom the planner places as a
// join step: the pinned stream must be exactly the naive valuations
// whose witness uses that tuple there.
func TestPinnedJoinStep(t *testing.T) {
	pinnedJoins := 0
	for seed := int64(0); seed < 20; seed++ {
		db := joinDB(seed, 24)
		for _, q := range joinShapes {
			naive, err := rel.EvalNaive(db, q)
			if err != nil {
				t.Fatal(err)
			}
			for atom := range q.Atoms {
				if !hasJoinStep(t, db, q, atom) {
					continue
				}
				for _, id := range db.Relation(q.Atoms[atom].Pred).RowIDs() {
					var want []rel.Valuation
					for _, v := range naive {
						if v.Witness[atom] == id {
							want = append(want, v)
						}
					}
					got := pinnedValuations(t, db, q, atom, id)
					if fmt.Sprint(canon(t, got)) != fmt.Sprint(canon(t, want)) {
						t.Fatalf("seed %d %v atom %d id %d: pinned %v, naive %v", seed, q, atom, id, canon(t, got), canon(t, want))
					}
					pinnedJoins++
				}
			}
		}
	}
	if pinnedJoins == 0 {
		t.Fatal("no pinned atom was ever a join step")
	}
}

// TestHoldsWithoutJoinStepRows removes rows of the relations the plan
// joins on (not only its scan) and holds HoldsWithout to the naive
// definition.
func TestHoldsWithoutJoinStepRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := int64(0); seed < 30; seed++ {
		db := joinDB(seed, 20)
		for _, q := range joinShapes {
			for trial := 0; trial < 20; trial++ {
				removed := make(map[rel.TupleID]bool)
				for id := 0; id < db.NumTuples(); id++ {
					if rng.Intn(4) == 0 {
						removed[rel.TupleID(id)] = true
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
					t.Fatalf("seed %d %v removed=%v: naive=%v planned=%v", seed, q, removed, hn, hp)
				}
			}
		}
	}
}

// TestMutatedIndexesEvaluateLikeFreshOnes evaluates (building the code
// indexes), mutates, and evaluates again: the valuation sequence over
// the maintained indexes must be identical, order included, to the one
// over a clone whose indexes are built fresh — the invariant that keeps
// every flow network and ranking byte-identical — and agree with the
// naive evaluator.
func TestMutatedIndexesEvaluateLikeFreshOnes(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		db := joinDB(seed, 30)
		for step := 0; step < 40; step++ {
			for _, q := range joinShapes {
				got, err := Valuations(db, q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Valuations(db.Clone(), q)
				if err != nil {
					t.Fatal(err)
				}
				if seq(got) != seq(want) {
					t.Fatalf("seed %d step %d %v: maintained indexes give\n  %s\nfresh indexes give\n  %s", seed, step, q, seq(got), seq(want))
				}
				assertAgree(t, db, q)
			}
			if rng.Intn(2) == 0 && db.NumLive() > 0 {
				for {
					id := rel.TupleID(rng.Intn(db.NumTuples()))
					if db.Live(id) {
						if err := db.Delete(id); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
			} else {
				addRandom(db, rng)
			}
		}
	}
}

// seq renders a valuation sequence in order.
func seq(vals []rel.Valuation) string {
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "%v;", v.Witness)
	}
	return b.String()
}
