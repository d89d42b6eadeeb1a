package reductions

import (
	"fmt"

	"github.com/querycause/querycause/internal/ra"
	"github.com/querycause/querycause/internal/rel"
)

// H2ToH3 implements the Fig. 9 reduction used to prove h₃* hard
// (Theorem 4.1): given an instance of
// h₂* :- Rⁿ(x,y), Sⁿ(y,z), Tⁿ(z,x), it builds an instance of
// h₃* :- A′ⁿ(x′), B′ⁿ(y′), C′ⁿ(z′), R′(x′,y′), S′(y′,z′), T′(z′,x′)
// with one A′/B′/C′ tuple per R/S/T tuple and one primed triangle per
// valuation of h₂*. The R′,S′,T′ tuples are dominated by the unary
// atoms, so causes and responsibilities transfer along the returned
// tuple mapping.
func H2ToH3(db *rel.Database) (*rel.Database, map[rel.TupleID]rel.TupleID, error) {
	out := rel.NewDatabase()
	mapping := make(map[rel.TupleID]rel.TupleID)
	unaryOf := map[string]string{"R": "A", "S": "B", "T": "C"}
	valOf := func(id rel.TupleID) rel.Value { return rel.Value(fmt.Sprintf("t%d", id)) }
	for _, name := range []string{"R", "S", "T"} {
		r := db.Relation(name)
		if r == nil {
			return nil, nil, fmt.Errorf("reductions: h2 instance missing relation %s", name)
		}
		for _, id := range r.RowIDs() {
			mapping[id] = out.MustAdd(unaryOf[name], db.Endo(id), valOf(id))
		}
	}
	q2 := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("z")),
		rel.NewAtom("T", rel.V("z"), rel.V("x")),
	)
	vals, err := ra.Valuations(db, q2)
	if err != nil {
		return nil, nil, err
	}
	seen := make(map[string]bool)
	addOnce := func(relName string, a, b rel.Value) {
		k := relName + string(a) + "|" + string(b)
		if !seen[k] {
			seen[k] = true
			out.MustAdd(relName, true, a, b)
		}
	}
	for _, v := range vals {
		ri, si, ti := v.Witness[0], v.Witness[1], v.Witness[2]
		addOnce("Rp", valOf(ri), valOf(si))
		addOnce("Sp", valOf(si), valOf(ti))
		addOnce("Tp", valOf(ti), valOf(ri))
	}
	return out, mapping, nil
}

// H3Query returns the h₃* query over the transformed schema.
func H3Query() *rel.Query {
	return rel.NewBoolean(
		rel.NewAtom("A", rel.V("x")),
		rel.NewAtom("B", rel.V("y")),
		rel.NewAtom("C", rel.V("z")),
		rel.NewAtom("Rp", rel.V("x"), rel.V("y")),
		rel.NewAtom("Sp", rel.V("y"), rel.V("z")),
		rel.NewAtom("Tp", rel.V("z"), rel.V("x")),
	)
}

// H2Query returns h₂*.
func H2Query() *rel.Query {
	return rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("z")),
		rel.NewAtom("T", rel.V("z"), rel.V("x")),
	)
}
