package rel

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randInstance generates a small database + the chain query
// R(x,y),S(y,z) with random endo flags.
type randInstance struct {
	DB *Database
}

func (randInstance) Generate(rng *rand.Rand, size int) reflect.Value {
	db := NewDatabase()
	dom := []Value{"0", "1", "2"}
	for i := 0; i < 5; i++ {
		db.MustAdd("R", rng.Intn(4) != 0, dom[rng.Intn(3)], dom[rng.Intn(3)])
		db.MustAdd("S", rng.Intn(4) != 0, dom[rng.Intn(3)], dom[rng.Intn(3)])
	}
	return reflect.ValueOf(randInstance{DB: db})
}

func chainQuery() *Query {
	return NewBoolean(
		NewAtom("R", V("x"), V("y")),
		NewAtom("S", V("y"), V("z")),
	)
}

// TestQuickHoldsIffValuations: Holds ⟺ at least one valuation.
func TestQuickHoldsIffValuations(t *testing.T) {
	f := func(ri randInstance) bool {
		q := chainQuery()
		vals, err := EvalNaive(ri.DB, q)
		if err != nil {
			return false
		}
		ok, err := HoldsNaive(ri.DB, q)
		if err != nil {
			return false
		}
		return ok == (len(vals) > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWitnessesSatisfyAtoms: every valuation's witness tuples
// match the atom patterns, on the chain query and on one with a
// constant and a repeated variable.
func TestQuickWitnessesSatisfyAtoms(t *testing.T) {
	queries := []*Query{
		chainQuery(),
		NewBoolean(NewAtom("R", V("x"), V("x")), NewAtom("S", V("x"), C("1"))),
	}
	f := func(ri randInstance) bool {
		for _, q := range queries {
			vals, err := EvalNaive(ri.DB, q)
			if err != nil {
				return false
			}
			for _, v := range vals {
				if !witnessesAgree(ri.DB, q, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// witnessesAgree reports whether v's witnesses, read off Tuple(id).Args,
// satisfy q's atoms: each lies in its atom's relation and carries its
// constants, and the witnesses agree on every variable, shared between
// atoms or repeated within one.
func witnessesAgree(db *Database, q *Query, v Valuation) bool {
	if len(v.Witness) != len(q.Atoms) {
		return false
	}
	binding := make(map[string]Value)
	for ai, a := range q.Atoms {
		tup := db.Tuple(v.Witness[ai])
		if tup.Rel != a.Pred || len(tup.Args) != len(a.Terms) {
			return false
		}
		for i, tm := range a.Terms {
			want, bound := tm.Const, true
			if tm.IsVar {
				want, bound = binding[tm.Var]
			}
			if !bound {
				binding[tm.Var] = tup.Args[i]
			} else if tup.Args[i] != want {
				return false
			}
		}
	}
	return true
}

// TestQuickRemovalMonotone: removing more tuples never makes a false
// query true (monotonicity of conjunctive queries).
func TestQuickRemovalMonotone(t *testing.T) {
	f := func(ri randInstance, mask uint16) bool {
		q := chainQuery()
		small := map[TupleID]bool{}
		big := map[TupleID]bool{}
		for i := 0; i < ri.DB.NumTuples() && i < 16; i++ {
			if mask&(1<<i) != 0 {
				small[TupleID(i)] = true
				big[TupleID(i)] = true
			}
		}
		// big removes one extra tuple.
		big[TupleID(int(mask)%ri.DB.NumTuples())] = true
		okSmall, err1 := HoldsWithoutNaive(ri.DB, q, small)
		okBig, err2 := HoldsWithoutNaive(ri.DB, q, big)
		if err1 != nil || err2 != nil {
			return false
		}
		// big ⊇ small ⟹ okBig ⟹ okSmall.
		return !okBig || okSmall
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
