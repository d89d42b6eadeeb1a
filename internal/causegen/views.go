package causegen

import (
	"encoding/binary"
	"sort"
	"strings"

	"github.com/querycause/querycause/internal/datalog"
	"github.com/querycause/querycause/internal/rel"
)

// DBViews adapts a rel.Database to the datalog EDB interface, exposing
// the per-relation endogenous/exogenous views R#n and R#x used by
// generated cause programs (plain relation names resolve to all tuples).
type DBViews struct {
	DB *rel.Database
}

// Facts implements datalog.EDB.
func (v DBViews) Facts(pred string) [][]rel.Value {
	name, suffix := pred, ""
	if i := strings.LastIndex(pred, "#"); i >= 0 {
		name, suffix = pred[:i], pred[i:]
	}
	r := v.DB.Relation(name)
	if r == nil {
		return nil
	}
	switch suffix {
	case EndoSuffix, ExoSuffix, "":
	default:
		return nil
	}
	dict := v.DB.Dict()
	var out [][]rel.Value
	vals := make([]rel.Value, 0, r.Len()*r.Arity)
	for row, id := range r.RowIDs() {
		if endo := v.DB.Endo(id); (suffix == EndoSuffix && !endo) || (suffix == ExoSuffix && endo) {
			continue
		}
		n := len(vals)
		for c := 0; c < r.Arity; c++ {
			vals = append(vals, dict.Value(r.Col(c)[row]))
		}
		out = append(out, vals[n:len(vals):len(vals)])
	}
	return out
}

// Causes generates the Theorem 3.4 program for q (pruned by hints from
// db), evaluates it over the database views, and maps the derived C_R
// facts back to endogenous tuple IDs. It returns the sorted cause IDs
// together with the program (for display and stratum checks).
func Causes(db *rel.Database, q *rel.Query) ([]rel.TupleID, *datalog.Program, error) {
	prog, err := Generate(q, HintsFromDB(db))
	if err != nil {
		return nil, nil, err
	}
	// The evaluator looks an EDB predicate up once per rule firing, so
	// each view is built once here rather than from the code vectors on
	// every lookup.
	views, edb := DBViews{DB: db}, make(datalog.MapEDB)
	for name := range db.Relations {
		for _, pred := range []string{name, name + EndoSuffix, name + ExoSuffix} {
			edb[pred] = views.Facts(pred)
		}
	}
	res, err := prog.Eval(edb)
	if err != nil {
		return nil, prog, err
	}
	// Facts and rows are matched on their argument codes: one map per
	// relation from the codes of its endogenous rows to their ids.
	idSet := make(map[rel.TupleID]bool)
	var key []byte
	for name, r := range db.Relations {
		facts := res.Facts(CausePred(name))
		if len(facts) == 0 {
			continue
		}
		endo := make(map[string][]rel.TupleID)
		for row, id := range r.RowIDs() {
			if db.Endo(id) {
				key = key[:0]
				for c := 0; c < r.Arity; c++ {
					key = binary.LittleEndian.AppendUint32(key, r.Col(c)[row])
				}
				endo[string(key)] = append(endo[string(key)], id)
			}
		}
	nextFact:
		for _, fact := range facts {
			key = key[:0]
			for _, v := range fact {
				c, ok := db.Dict().Code(v)
				if !ok {
					continue nextFact
				}
				key = binary.LittleEndian.AppendUint32(key, c)
			}
			for _, id := range endo[string(key)] {
				idSet[id] = true
			}
		}
	}
	out := make([]rel.TupleID, 0, len(idSet))
	for id := range idSet {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, prog, nil
}
