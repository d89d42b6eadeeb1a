package rel

import (
	"fmt"
	"math"
	"sort"
)

// Columns is a database in its columnar form: what Database.Columns
// exports and Load installs. It is the whole state rel keeps, so a
// database loaded from another's Columns equals it in dictionary order,
// tuple IDs, husks, endo flags and Version.
type Columns struct {
	// Values is the dictionary in code order: Values[c] has code c.
	Values []Value
	// Relations lists every relation in ascending name order, each with
	// its live rows.
	Relations []RelColumns
	// Endo holds the endogeneity flag of every tuple ID; its length is
	// the size of the ID space (NumTuples).
	Endo []bool
	// Husks are the deleted tuples in ascending ID order.
	Husks []Husk
}

// RelColumns is one relation's live rows: their tuple IDs, ascending,
// and one code vector per column.
type RelColumns struct {
	Name  string
	Arity int
	IDs   []TupleID
	Cols  [][]uint32
}

// Husk is what a deleted tuple leaves behind: its ID, relation and
// argument codes.
type Husk struct {
	ID    TupleID
	Rel   string
	Codes []uint32
}

// Columns exports the database as a copy the caller owns. Every empty
// slice in it is nil, so equal databases export deeply equal Columns.
func (db *Database) Columns() Columns {
	c := Columns{Values: append([]Value(nil), db.dict.vals...), Endo: append([]bool(nil), db.endo...)}
	names := make([]string, 0, len(db.Relations))
	for name := range db.Relations {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := db.Relations[name]
		cols := make([][]uint32, len(r.cols))
		for j, col := range r.cols {
			cols[j] = append([]uint32(nil), col...)
		}
		c.Relations = append(c.Relations, RelColumns{Name: name, Arity: r.Arity, IDs: append([]TupleID(nil), r.rowIDs...), Cols: cols})
	}
	for id, ref := range db.refs {
		if ref.rel == nil {
			h := db.dead[TupleID(id)]
			c.Husks = append(c.Husks, Husk{ID: TupleID(id), Rel: h.rel, Codes: append([]uint32(nil), h.codes...)})
		}
	}
	return c
}

// Load installs c as a new database, taking ownership of its slices. It
// treats c as untrusted and rejects anything Add and Delete could not
// have built: a code out of range; a duplicate dictionary value;
// relation names out of ascending order; a column count or length that
// disagrees with the arity; a relation holding no row and no husk; a
// tuple ID outside [0, len(Endo)), covered twice or not at all; row IDs
// that do not ascend; an endogenous husk; and a dictionary that is not
// in the order the tuples, taken by ID, first use its values. Like Add,
// it accepts any value and relation name, even ones the text format
// cannot carry.
func Load(c Columns) (*Database, error) {
	db, err := load(c)
	if err != nil {
		return nil, fmt.Errorf("rel: load: %w", err)
	}
	return db, nil
}

func load(c Columns) (*Database, error) {
	// Every tuple ID is one live row or one husk, so the counts must
	// agree before anything is sized by n; cover then rejects an ID
	// stored twice, which leaves none stored by nothing.
	n := len(c.Endo)
	stored := len(c.Husks)
	for _, rc := range c.Relations {
		stored += len(rc.IDs)
	}
	if stored != n {
		return nil, fmt.Errorf("%d rows and husks for %d tuple ids", stored, n)
	}
	db := &Database{
		Relations: make(map[string]*Relation, len(c.Relations)),
		dict:      Dict{codes: make(map[Value]uint32, len(c.Values)), vals: c.Values},
		refs:      make([]rowRef, n),
		endo:      c.Endo,
	}
	for i, v := range c.Values {
		if db.dict.codes[v] = uint32(i); len(db.dict.codes) <= i {
			return nil, fmt.Errorf("value %q has two codes", v)
		}
	}
	codesInRange := func(codes []uint32) error {
		for _, code := range codes {
			if int(code) >= len(c.Values) {
				return fmt.Errorf("code %d out of range [0,%d)", code, len(c.Values))
			}
		}
		return nil
	}
	cover := func(id TupleID) error {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("tuple id %d out of range [0,%d)", id, n)
		}
		if db.refs[id].rel != nil {
			return fmt.Errorf("tuple id %d stored twice", id)
		}
		return nil
	}
	for k, rc := range c.Relations {
		if k > 0 && rc.Name <= c.Relations[k-1].Name {
			return nil, fmt.Errorf("relation %s listed after %s", rc.Name, c.Relations[k-1].Name)
		}
		if len(rc.Cols) != rc.Arity {
			return nil, fmt.Errorf("relation %s: arity %d with %d columns", rc.Name, rc.Arity, len(rc.Cols))
		}
		if len(rc.IDs) > math.MaxInt32 {
			return nil, fmt.Errorf("relation %s: %d rows", rc.Name, len(rc.IDs))
		}
		for _, col := range rc.Cols {
			if len(col) != len(rc.IDs) {
				return nil, fmt.Errorf("relation %s: a column of %d codes for %d rows", rc.Name, len(col), len(rc.IDs))
			}
			if err := codesInRange(col); err != nil {
				return nil, fmt.Errorf("relation %s: %w", rc.Name, err)
			}
		}
		r := &Relation{Name: rc.Name, Arity: rc.Arity, db: db, cols: rc.Cols, rowIDs: rc.IDs}
		for row, id := range rc.IDs {
			if row > 0 && id <= rc.IDs[row-1] {
				return nil, fmt.Errorf("relation %s: row ids do not ascend at %d", rc.Name, id)
			}
			if err := cover(id); err != nil {
				return nil, fmt.Errorf("relation %s: %w", rc.Name, err)
			}
			db.refs[id] = rowRef{rel: r, row: int32(row)}
		}
		db.Relations[rc.Name] = r
	}
	if len(c.Husks) > 0 {
		db.dead = make(map[TupleID]husk, len(c.Husks))
	}
	// Add creates a relation with its first tuple, so each relation
	// keeps a row or a husk.
	husked := make(map[string]bool)
	for k, h := range c.Husks {
		if k > 0 && h.ID <= c.Husks[k-1].ID {
			return nil, fmt.Errorf("husk ids do not ascend at %d", h.ID)
		}
		if err := cover(h.ID); err != nil {
			return nil, fmt.Errorf("husk: %w", err)
		}
		if c.Endo[h.ID] {
			return nil, fmt.Errorf("husk %d is endogenous", h.ID)
		}
		r := db.Relations[h.Rel]
		if r == nil || len(h.Codes) != r.Arity {
			return nil, fmt.Errorf("husk %d: %d codes for relation %q, which is not a listed relation of that arity", h.ID, len(h.Codes), h.Rel)
		}
		if err := codesInRange(h.Codes); err != nil {
			return nil, fmt.Errorf("husk %d: %w", h.ID, err)
		}
		db.dead[h.ID] = husk{rel: r.Name, codes: h.Codes}
		husked[r.Name] = true
	}
	for name, r := range db.Relations {
		if r.Len() == 0 && !husked[name] {
			return nil, fmt.Errorf("relation %s holds no tuple", name)
		}
	}
	// Add interns each value when a tuple first uses it, so the codes,
	// read in tuple-ID order, first appear as 0, 1, 2, ….
	next := uint32(0)
	var codes []uint32
	for id := range n {
		codes = db.AppendCodes(codes[:0], TupleID(id))
		for _, code := range codes {
			if code == next {
				next++
			} else if code > next {
				return nil, fmt.Errorf("tuple %d uses code %d before code %d", id, code, next)
			}
		}
	}
	if int(next) != len(c.Values) {
		return nil, fmt.Errorf("%d of %d dictionary values unused", len(c.Values)-int(next), len(c.Values))
	}
	return db, nil
}
