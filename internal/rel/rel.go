// Package rel implements the relational substrate of the causality
// library: named relations of constant tuples, databases partitioned into
// endogenous and exogenous tuples, and conjunctive queries with the naive
// reference evaluation of their valuations (per-atom witness tuple lists).
//
// The package follows Section 2 of Meliou et al. (VLDB 2010): a database
// instance D is a set of tuples, each tagged endogenous (a potential
// cause) or exogenous (context). Queries are conjunctive; a Boolean query
// is one with an empty head. Non-Boolean queries are reduced to Boolean
// ones by substituting the answer tuple into the head variables
// (Query.Bind).
//
// # Storage layout
//
// Relations are stored column-major over a per-database value
// dictionary: every constant is interned once into a dense uint32 code
// (Dict), and a Relation holds one code vector per column plus the
// row → TupleID map. Tuple identity is the dense insertion-order ID, so
// lineage and the exact solvers keep working in the same ID space.
//
// A column may also carry a code index (Relation.CodeIndex: code → its
// rows, ascending), built the first time an evaluation probes the
// column and from then on maintained in place by Add and Delete, so the
// streaming evaluator in internal/ra joins by probing it instead of
// hashing whole relations per evaluation.
//
// The code vectors are the only stored form of a tuple. Render, RelName,
// AppendCodes, Endo and NumEndo answer per tuple straight off them;
// Database.Tuple and Database.Tuples build fresh Tuple values on each
// call for callers that want a row as a struct.
//
// # Evaluation
//
// A Valuation is its witness list: one tuple ID per query atom. The
// evaluator callers use is the planned streaming one in internal/ra
// (ra.Valuations, ra.Holds, ra.HoldsWithout, ra.Answers), which
// imports this package. This package keeps the naive reference
// evaluator, EvalNaive / HoldsNaive / HoldsWithoutNaive, which the
// differential harness (internal/difftest) and the oracles compare the
// planned one against.
//
// # Mutation and versioning
//
// Databases are mutable: Add appends tuples and Delete removes them.
// Tuple IDs are never reused — Delete leaves a gap in the ID space and
// keeps the dead tuple's relation name and argument codes, so Tuple(id)
// and Render(id) keep working for historical IDs (the husk is exogenous
// and excluded from evaluation). Live reports whether an ID still
// denotes a stored row.
// Version counts mutations (adds + deletes); replaying the same
// mutation sequence into a fresh database reproduces the dictionary,
// the column vectors, and the version bit-for-bit, which is what the
// persist layer and the incremental-vs-cold-rebuild differential rely
// on. Mutations are not safe concurrently with readers; callers that
// share a database across goroutines (the explanation server) serialize
// mutations against evaluation with their own lock.
package rel

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Value is a constant in the active domain. Values compare by string
// equality; numeric data should be rendered canonically by the caller.
type Value string

// TupleID identifies a tuple within a Database. IDs are dense, assigned
// in insertion order, and stable for the lifetime of the database.
type TupleID int

// Tuple is a row of a relation together with its causal status.
// Database.Tuple and Database.Tuples return copies built from the code
// vectors: a copy is the caller's to keep and does not follow a later
// SetEndo or Delete; ask the database again for the current state.
type Tuple struct {
	ID   TupleID
	Rel  string
	Args []Value
	// Endo reports whether the tuple is endogenous (a candidate cause).
	Endo bool
}

// String renders the tuple as R(a,b,…) with an n/x superscript marker.
func (t Tuple) String() string { return formatTuple(t.Rel, t.Endo, t.Args) }

// formatTuple renders a tuple as R^n(a,b,…), or R^x(…) when exogenous:
// the one rendered form, shared by Tuple.String and Database.Render.
func formatTuple(rel string, endo bool, args []Value) string {
	n := len(rel) + len("^n()") + len(args)
	for _, a := range args {
		n += len(a)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(rel)
	if endo {
		b.WriteString("^n(")
	} else {
		b.WriteString("^x(")
	}
	for i, a := range args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(a))
	}
	b.WriteByte(')')
	return b.String()
}

// Dict interns constants into dense uint32 codes, once per database.
// Code order is insertion order; code comparisons are identity only
// (two values are equal iff their codes are equal), not lexicographic.
// Interning happens on Database.Add; lookups are read-only and safe for
// any number of concurrent readers once the database is frozen.
type Dict struct {
	codes map[Value]uint32
	vals  []Value
}

// Code returns the code of v, if v was ever added to the database.
func (d *Dict) Code(v Value) (uint32, bool) {
	c, ok := d.codes[v]
	return c, ok
}

// Value returns the constant interned at code c.
func (d *Dict) Value(c uint32) Value { return d.vals[c] }

// Len returns the number of interned constants.
func (d *Dict) Len() int { return len(d.vals) }

func (d *Dict) intern(v Value) uint32 {
	if c, ok := d.codes[v]; ok {
		return c
	}
	if d.codes == nil {
		d.codes = make(map[Value]uint32)
	}
	c := uint32(len(d.vals))
	d.codes[v] = c
	d.vals = append(d.vals, v)
	return c
}

// Relation is a named collection of same-arity tuples, stored as one
// interned code vector per column.
type Relation struct {
	Name  string
	Arity int

	db     *Database
	cols   [][]uint32 // Arity code vectors, one per column
	rowIDs []TupleID  // row → global tuple ID

	// index holds, per column, the code index listing the rows whose
	// col-th code equals a code (nil until that column is first probed).
	// A column's index is built lazily by ensureIndex with copy-on-write
	// under indexMu and published atomically, so any number of
	// goroutines may evaluate queries concurrently without locking on
	// the read path; once built, Add and Delete maintain it in place.
	index   atomic.Pointer[[]map[uint32][]int32]
	indexMu sync.Mutex
}

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.rowIDs) }

// Col returns the interned code vector of column c. Callers must not
// modify it.
func (r *Relation) Col(c int) []uint32 { return r.cols[c] }

// RowID returns the global tuple ID of the given row.
func (r *Relation) RowID(row int) TupleID { return r.rowIDs[row] }

// RowIDs returns the row → tuple ID map. Callers must not modify it.
func (r *Relation) RowIDs() []TupleID { return r.rowIDs }

// HasEndo reports whether the relation holds at least one endogenous
// tuple, straight off the columnar endo flags.
func (r *Relation) HasEndo() bool {
	for _, id := range r.rowIDs {
		if r.db.endo[id] {
			return true
		}
	}
	return false
}

// CodeIndex returns the code index on the given column: code → the
// rows whose col-th argument carries it, each bucket in ascending row
// order. It is built on first use and from then on maintained by
// Database.Add (which appends the new row to its bucket) and Delete
// (which drops the row and renumbers the later rows), so an index is
// always current and bucket order always equals a fresh build's.
// Concurrent callers are safe as long as no tuple is added or deleted
// concurrently: mutations must not race readers (the explanation
// server serializes them with its per-session lock).
func (r *Relation) CodeIndex(col int) map[uint32][]int32 { return r.ensureIndex(col) }

func (r *Relation) ensureIndex(col int) map[uint32][]int32 {
	if tbl := r.index.Load(); tbl != nil && (*tbl)[col] != nil {
		return (*tbl)[col]
	}
	r.indexMu.Lock()
	defer r.indexMu.Unlock()
	// Re-check under the lock: a racing caller may have published col.
	old := r.index.Load()
	if old != nil && (*old)[col] != nil {
		return (*old)[col]
	}
	vec := r.cols[col]
	idx := make(map[uint32][]int32, len(vec))
	for i, code := range vec {
		idx[code] = append(idx[code], int32(i))
	}
	next := make([]map[uint32][]int32, r.Arity)
	if old != nil {
		copy(next, *old)
	}
	next[col] = idx
	r.index.Store(&next)
	return idx
}

// indexAppend files the relation's last row into every built code
// index. Buckets stay ascending: the new row is the largest.
func (r *Relation) indexAppend() {
	tbl := r.index.Load()
	if tbl == nil {
		return
	}
	row := int32(len(r.rowIDs) - 1)
	for c, idx := range *tbl {
		if idx != nil {
			code := r.cols[c][row]
			idx[code] = append(idx[code], row)
		}
	}
}

// indexRemove updates every built code index for the removal of row,
// before the column vectors shift: row leaves its bucket, and each
// later row i is renumbered i-1 in place. Renumbering in ascending row
// order keeps every bucket sorted throughout, so each renumbered entry
// is found by binary search. The work is proportional to the rows
// after the deleted one, not to the relation.
func (r *Relation) indexRemove(row int) {
	tbl := r.index.Load()
	if tbl == nil {
		return
	}
	for c, idx := range *tbl {
		if idx == nil {
			continue
		}
		col := r.cols[c]
		code := col[row]
		b := idx[code]
		k := searchRow(b, int32(row))
		if b = append(b[:k], b[k+1:]...); len(b) == 0 {
			delete(idx, code)
		} else {
			idx[code] = b
		}
		for i := row + 1; i < len(col); i++ {
			b := idx[col[i]]
			b[searchRow(b, int32(i))] = int32(i - 1)
		}
	}
}

// searchRow returns the position of row in an ascending bucket that
// holds it.
func searchRow(bucket []int32, row int32) int {
	return sort.Search(len(bucket), func(k int) bool { return bucket[k] >= row })
}

// Database is a set of relations plus a global tuple registry.
type Database struct {
	Relations map[string]*Relation

	dict Dict
	refs []rowRef // TupleID → (relation, row); rel==nil marks a deleted tuple
	endo []bool   // TupleID → endogenous

	// dead retains what a deleted tuple leaves behind, keyed by its
	// (never reused) ID, so Tuple(id) still answers for historical IDs.
	dead map[TupleID]husk
}

type rowRef struct {
	rel *Relation
	row int32
}

// husk is a deleted tuple's relation name and argument codes. The
// dictionary never shrinks, so the codes stay valid.
type husk struct {
	rel   string
	codes []uint32
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{Relations: make(map[string]*Relation)}
}

// Relation returns the named relation, or nil if absent.
func (db *Database) Relation(name string) *Relation {
	return db.Relations[name]
}

// Dict returns the database's value dictionary.
func (db *Database) Dict() *Dict { return &db.dict }

// Add inserts a tuple and returns its ID. It creates the relation on
// first use and enforces consistent arity. Duplicate rows are permitted
// by the engine but callers normally avoid them (set semantics).
func (db *Database) Add(rel string, endo bool, args ...Value) (TupleID, error) {
	r, ok := db.Relations[rel]
	if !ok {
		r = &Relation{Name: rel, Arity: len(args), db: db, cols: make([][]uint32, len(args))}
		db.Relations[rel] = r
	}
	if r.Arity != len(args) {
		return 0, fmt.Errorf("rel: relation %s has arity %d, got %d args", rel, r.Arity, len(args))
	}
	id := TupleID(len(db.refs))
	for c, v := range args {
		r.cols[c] = append(r.cols[c], db.dict.intern(v))
	}
	r.rowIDs = append(r.rowIDs, id)
	r.indexAppend()
	db.refs = append(db.refs, rowRef{rel: r, row: int32(r.Len() - 1)})
	db.endo = append(db.endo, endo)
	return id, nil
}

// MustAdd is Add, panicking on arity mismatch. Intended for tests and
// hand-built example instances.
func (db *Database) MustAdd(rel string, endo bool, args ...Value) TupleID {
	id, err := db.Add(rel, endo, args...)
	if err != nil {
		panic(err)
	}
	return id
}

// Delete removes the identified tuple from its relation. The ID is
// never reused: it stays addressable through Tuple (rendering the
// removed row as an exogenous husk) but Live reports false, the tuple
// vanishes from the relation's rows and code vectors, and evaluation
// never sees it again. Deleting an already-deleted or out-of-range ID
// is an error. Like Add, Delete must not race with readers.
func (db *Database) Delete(id TupleID) error {
	if int(id) < 0 || int(id) >= len(db.refs) {
		return fmt.Errorf("rel: delete: tuple id %d out of range [0,%d)", id, len(db.refs))
	}
	ref := db.refs[id]
	if ref.rel == nil {
		return fmt.Errorf("rel: delete: tuple %d already deleted", id)
	}
	// Keep the row's codes before it disappears so Tuple(id) keeps
	// rendering the dead tuple.
	if db.dead == nil {
		db.dead = make(map[TupleID]husk)
	}
	db.dead[id] = husk{rel: ref.rel.Name, codes: db.AppendCodes(nil, id)}

	r, row := ref.rel, int(ref.row)
	r.indexRemove(row)
	for c := range r.cols {
		r.cols[c] = append(r.cols[c][:row], r.cols[c][row+1:]...)
	}
	r.rowIDs = append(r.rowIDs[:row], r.rowIDs[row+1:]...)
	for i := row; i < len(r.rowIDs); i++ {
		db.refs[r.rowIDs[i]].row = int32(i)
	}
	db.refs[id] = rowRef{}
	db.endo[id] = false
	return nil
}

// Live reports whether the ID denotes a stored (non-deleted) tuple.
func (db *Database) Live(id TupleID) bool {
	return int(id) >= 0 && int(id) < len(db.refs) && db.refs[id].rel != nil
}

// NumLive returns the number of live tuples (NumTuples minus deletions).
func (db *Database) NumLive() int { return len(db.refs) - len(db.dead) }

// Version counts the mutations (adds plus deletes) applied to the
// database since creation. Replaying the same mutation sequence into a
// fresh database lands on the same version with byte-identical state.
func (db *Database) Version() uint64 { return uint64(len(db.refs) + len(db.dead)) }

// materializeOne builds the identified tuple, appending its arguments
// to args.
func (db *Database) materializeOne(t *Tuple, id TupleID, args []Value) []Value {
	n := len(args)
	args = db.appendArgs(args, id)
	*t = Tuple{ID: id, Rel: db.RelName(id), Args: args[n:len(args):len(args)], Endo: db.endo[id]}
	return args
}

// appendArgs appends the argument values of the identified tuple, live
// or deleted, to dst.
func (db *Database) appendArgs(dst []Value, id TupleID) []Value {
	if ref := db.refs[id]; ref.rel != nil {
		for _, col := range ref.rel.cols {
			dst = append(dst, db.dict.vals[col[ref.row]])
		}
		return dst
	}
	for _, c := range db.dead[id].codes {
		dst = append(dst, db.dict.vals[c])
	}
	return dst
}

// Tuple returns a fresh copy of the tuple with the given ID, including
// the exogenous husk of a deleted one (check Live to distinguish). It
// panics on out-of-range IDs, which indicate a bug in the caller.
func (db *Database) Tuple(id TupleID) *Tuple {
	db.checkID(id)
	t := new(Tuple)
	db.materializeOne(t, id, nil)
	return t
}

// RelName returns the relation name of the identified tuple, live or
// deleted. It panics on out-of-range IDs, like Tuple.
func (db *Database) RelName(id TupleID) string {
	db.checkID(id)
	if ref := db.refs[id]; ref.rel != nil {
		return ref.rel.Name
	}
	return db.dead[id].rel
}

// AppendCodes appends the interned argument codes of the identified
// tuple, live or deleted, to dst. It panics on out-of-range IDs, like
// Tuple.
func (db *Database) AppendCodes(dst []uint32, id TupleID) []uint32 {
	db.checkID(id)
	if ref := db.refs[id]; ref.rel != nil {
		for _, col := range ref.rel.cols {
			dst = append(dst, col[ref.row])
		}
		return dst
	}
	return append(dst, db.dead[id].codes...)
}

// Render returns the rendered form of the identified tuple, equal to
// Tuple(id).String() (a deleted tuple renders as its exogenous husk),
// read straight off the code vectors. It panics on out-of-range IDs,
// like Tuple.
func (db *Database) Render(id TupleID) string {
	db.checkID(id)
	var buf [8]Value // the arguments stay on the stack up to arity 8
	return formatTuple(db.RelName(id), db.endo[id], db.appendArgs(buf[:0], id))
}

func (db *Database) checkID(id TupleID) {
	if int(id) < 0 || int(id) >= len(db.refs) {
		panic(fmt.Sprintf("rel: tuple id %d out of range [0,%d)", id, len(db.refs)))
	}
}

// NumTuples returns the size of the tuple-ID space: every tuple ever
// added, deleted or not. See NumLive for the stored count.
func (db *Database) NumTuples() int { return len(db.refs) }

// Tuples returns fresh copies of all tuples in insertion order, indexed
// by TupleID. Deleted tuples appear as their exogenous husks (Live
// reports false for them).
func (db *Database) Tuples() []*Tuple {
	rows := make([]Tuple, len(db.refs))
	out := make([]*Tuple, len(db.refs))
	var args []Value
	for id := range rows {
		args = db.materializeOne(&rows[id], TupleID(id), args)
		out[id] = &rows[id]
	}
	return out
}

// Endo reports whether the identified tuple is endogenous, straight off
// the columnar flag vector.
func (db *Database) Endo(id TupleID) bool { return db.endo[id] }

// NumEndo returns the number of endogenous tuples, straight off the
// columnar flag vector (deleted tuples are exogenous).
func (db *Database) NumEndo() int {
	n := 0
	for _, e := range db.endo {
		if e {
			n++
		}
	}
	return n
}

// EndoIDs returns the IDs of all endogenous tuples, sorted.
func (db *Database) EndoIDs() []TupleID {
	var out []TupleID
	for id, e := range db.endo {
		if e {
			out = append(out, TupleID(id))
		}
	}
	return out
}

// SetEndo flags the identified tuple endogenous or exogenous. Deleted
// tuples stay exogenous; flipping them is a no-op.
func (db *Database) SetEndo(id TupleID, endo bool) {
	if !db.Live(id) {
		return
	}
	db.endo[id] = endo
}

// Clone returns a deep copy of the database. Tuple IDs are preserved.
func (db *Database) Clone() *Database {
	out := NewDatabase()
	out.dict.vals = append([]Value(nil), db.dict.vals...)
	out.dict.codes = make(map[Value]uint32, len(db.dict.codes))
	for v, c := range db.dict.codes {
		out.dict.codes[v] = c
	}
	out.refs = make([]rowRef, len(db.refs))
	out.endo = append([]bool(nil), db.endo...)
	for id, h := range db.dead {
		if out.dead == nil {
			out.dead = make(map[TupleID]husk, len(db.dead))
		}
		out.dead[id] = husk{rel: h.rel, codes: append([]uint32(nil), h.codes...)}
	}
	for name, r := range db.Relations {
		nr := &Relation{Name: name, Arity: r.Arity, db: out, cols: make([][]uint32, r.Arity)}
		for c := range r.cols {
			nr.cols[c] = append([]uint32(nil), r.cols[c]...)
		}
		nr.rowIDs = append([]TupleID(nil), r.rowIDs...)
		for row, id := range nr.rowIDs {
			out.refs[id] = rowRef{rel: nr, row: int32(row)}
		}
		out.Relations[name] = nr
	}
	return out
}

// ActiveDomain returns the set of all values ever interned into the
// database, sorted for determinism. With interned columnar storage this
// is the dictionary itself; values introduced by since-deleted tuples
// remain (the dictionary never shrinks, keeping codes stable).
func (db *Database) ActiveDomain() []Value {
	out := append([]Value(nil), db.dict.vals...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the database relation by relation, deterministically.
func (db *Database) String() string {
	names := make([]string, 0, len(db.Relations))
	for n := range db.Relations {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		r := db.Relations[n]
		fmt.Fprintf(&b, "%s/%d:\n", n, r.Arity)
		for _, id := range r.rowIDs {
			fmt.Fprintf(&b, "  %s\n", db.Render(id))
		}
	}
	return b.String()
}
