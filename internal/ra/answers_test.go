package ra

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/querycause/querycause/internal/rel"
)

// example22 builds the database and query of Example 2.2 of the paper:
// q(x) :- R(x,y), S(y) over R = {(a1,a5),(a2,a1),(a3,a3),(a4,a3),(a4,a2)},
// S = {a1,a2,a3,a4,a6}, all tuples endogenous.
func example22() (*rel.Database, *rel.Query) {
	db := rel.NewDatabase()
	for _, row := range [][2]rel.Value{{"a1", "a5"}, {"a2", "a1"}, {"a3", "a3"}, {"a4", "a3"}, {"a4", "a2"}} {
		db.MustAdd("R", true, row[0], row[1])
	}
	for _, v := range []rel.Value{"a1", "a2", "a3", "a4", "a6"} {
		db.MustAdd("S", true, v)
	}
	q := &rel.Query{
		Name:  "q",
		Head:  []rel.Term{rel.V("x")},
		Atoms: []rel.Atom{rel.NewAtom("R", rel.V("x"), rel.V("y")), rel.NewAtom("S", rel.V("y"))},
	}
	return db, q
}

func TestAnswersExample22(t *testing.T) {
	db, q := example22()
	ans, err := Answers(db, q)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, a := range ans {
		got = append(got, string(a.Values[0]))
	}
	want := []string{"a2", "a3", "a4"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("answers = %v, want %v", got, want)
	}
	// a4 has two valuations: R(a4,a3),S(a3) and R(a4,a2),S(a2).
	for _, a := range ans {
		if a.Values[0] == "a4" && len(a.Valuations) != 2 {
			t.Errorf("a4 has %d valuations, want 2", len(a.Valuations))
		}
		if a.Values[0] == "a2" && len(a.Valuations) != 1 {
			t.Errorf("a2 has %d valuations, want 1", len(a.Valuations))
		}
	}
}

func TestAnswersDeterministicOrder(t *testing.T) {
	db, q := example22()
	first, _ := Answers(db, q)
	for i := 0; i < 5; i++ {
		again, _ := Answers(db, q)
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d answered %v, first run %v", i, again, first)
		}
	}
}

// naiveAnswers groups the naive evaluator's valuations by head value,
// reading each head variable off Tuple(id).Args of the first atom
// holding it, and sorts the answers by their NUL-joined head values.
func naiveAnswers(t *testing.T, db *rel.Database, q *rel.Query) []rel.Answer {
	t.Helper()
	vals, err := rel.EvalNaive(db, q)
	if err != nil {
		t.Fatal(err)
	}
	valueOf := func(v rel.Valuation, name string) rel.Value {
		for ai, a := range q.Atoms {
			for c, tm := range a.Terms {
				if tm.IsVar && tm.Var == name {
					return db.Tuple(v.Witness[ai]).Args[c]
				}
			}
		}
		t.Fatalf("head variable %s not in the body of %s", name, q)
		return ""
	}
	groups := make(map[string]*rel.Answer)
	var keys []string
	for _, v := range vals {
		hv := make([]rel.Value, len(q.Head))
		parts := make([]string, len(q.Head))
		for i, h := range q.Head {
			if hv[i] = h.Const; h.IsVar {
				hv[i] = valueOf(v, h.Var)
			}
			parts[i] = string(hv[i])
		}
		key := strings.Join(parts, "\x00")
		if groups[key] == nil {
			groups[key] = &rel.Answer{Values: hv}
			keys = append(keys, key)
		}
		groups[key].Valuations = append(groups[key].Valuations, v)
	}
	sort.Strings(keys)
	out := make([]rel.Answer, len(keys))
	for i, k := range keys {
		out[i] = *groups[k]
	}
	return out
}

// TestAnswersMatchNaiveGrouping: on random instances, Answers gives the
// answers of a grouping of the naive valuations built here, in the same
// order, each with the same valuations (as a set: the two evaluators
// enumerate in different orders).
func TestAnswersMatchNaiveGrouping(t *testing.T) {
	heads := [][]rel.Term{
		{rel.V("x")},
		{rel.V("z"), rel.V("x")},
		{rel.C("k"), rel.V("y"), rel.V("y")},
		{rel.C("k")},
	}
	answers := 0
	for seed := int64(0); seed < 30; seed++ {
		db := joinDB(seed, 30)
		for _, body := range joinShapes {
			for _, head := range heads {
				q := &rel.Query{Name: "q", Head: head, Atoms: body.Atoms}
				if q.Validate(db) != nil {
					continue
				}
				got, err := Answers(db, q)
				if err != nil {
					t.Fatal(err)
				}
				want := naiveAnswers(t, db, q)
				if len(got) != len(want) {
					t.Fatalf("seed %d, %s: %d answers, naive grouping %d", seed, q, len(got), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got[i].Values, want[i].Values) {
						t.Fatalf("seed %d, %s: answer %d is %v, naive grouping %v", seed, q, i, got[i].Values, want[i].Values)
					}
					if g, w := canon(t, got[i].Valuations), canon(t, want[i].Valuations); !reflect.DeepEqual(g, w) {
						t.Fatalf("seed %d, %s: answer %v has valuations %v, naive grouping %v", seed, q, want[i].Values, g, w)
					}
				}
				answers += len(got)
			}
		}
	}
	if answers == 0 {
		t.Fatal("no instance had an answer")
	}
}
