package ra

import (
	"github.com/querycause/querycause/internal/rel"
)

// runner is the per-evaluation state of a compiled plan: step inputs
// are prepared lazily (a scan's filtered row list, or a join step's
// column indexes, are only looked up the first time the pipeline
// reaches that step, so an early empty scan costs nothing downstream),
// and the slot and witness buffers are reused across the whole
// enumeration. A join step builds nothing over its relation: it probes
// the relation's persistent code indexes (see Relation.CodeIndex).
type runner struct {
	p        *plan
	removed  map[rel.TupleID]bool
	pinAtom  int         // atom index restricted to the single row of pinID; -1 = no pin
	pinID    rel.TupleID // only meaningful when pinAtom >= 0
	prepared []bool
	all      []bool    // scan step streams every row unfiltered
	lists    [][]int32 // scan steps: filtered row list; join steps: the seed, if seeded
	seeded   []bool    // join step probes from lists[i] unless a join bucket is smaller
	probes   [][]map[uint32][]int32
	slots    []uint32
	witness  []rel.TupleID
	yield    func(slots []uint32, witness []rel.TupleID) bool
}

// run streams every valuation of the plan through yield as (slot codes,
// per-atom witness IDs). Both slices are reused between calls — yield
// must copy what it keeps. Returning false from yield stops the
// enumeration. Rows whose tuple ID is in removed never enter the
// pipeline.
func (p *plan) run(removed map[rel.TupleID]bool, yield func([]uint32, []rel.TupleID) bool) {
	p.runPinned(removed, -1, 0, yield)
}

// runPinned is run with one atom position pinned to a single tuple: the
// step for atom pinAtom matches only the row whose tuple ID is pinID,
// so the stream is exactly the valuations whose witness uses pinID at
// that position — the binding delta of one inserted tuple, computed
// without re-running the unrestricted pipeline.
func (p *plan) runPinned(removed map[rel.TupleID]bool, pinAtom int, pinID rel.TupleID, yield func([]uint32, []rel.TupleID) bool) {
	r := &runner{
		p:        p,
		removed:  removed,
		pinAtom:  pinAtom,
		pinID:    pinID,
		prepared: make([]bool, len(p.steps)),
		all:      make([]bool, len(p.steps)),
		lists:    make([][]int32, len(p.steps)),
		seeded:   make([]bool, len(p.steps)),
		probes:   make([][]map[uint32][]int32, len(p.steps)),
		slots:    make([]uint32, len(p.varNames)),
		witness:  make([]rel.TupleID, p.numAtoms),
		yield:    yield,
	}
	r.dfs(0)
}

func (r *runner) dfs(i int) bool {
	if i == len(r.p.steps) {
		return r.yield(r.slots, r.witness)
	}
	st := &r.p.steps[i]
	if !r.prepared[i] {
		r.prepare(i, st)
	}
	if len(st.join) > 0 {
		return r.probe(i, st)
	}
	if r.all[i] {
		n := st.rl.Len()
		for row := 0; row < n; row++ {
			if !r.emitRow(st, int32(row), i) {
				return false
			}
		}
		return true
	}
	for _, row := range r.lists[i] {
		if !r.emitRow(st, row, i) {
			return false
		}
	}
	return true
}

// probe streams a join step: it takes the smallest of the step's
// candidate buckets — the code-index bucket of each join column under
// the current slots, and the seed of a pinned or constant-bearing step
// — and emits the rows of it that match every join column and pass the
// step's filters. Buckets are ascending, so the emitted rows are
// exactly those of a hash-join bucket built over the filtered relation,
// in the same order.
func (r *runner) probe(i int, st *step) bool {
	rows, ok := r.lists[i], r.seeded[i]
	for k, cs := range st.join {
		if b := r.probes[i][k][r.slots[cs.slot]]; !ok || len(b) < len(rows) {
			rows, ok = b, true
		}
	}
	for _, row := range rows {
		if r.joins(st, row) && r.pass(st, row) && !r.emitRow(st, row, i) {
			return false
		}
	}
	return true
}

// joins reports whether row carries the bound slot code in every join
// column of the step.
func (r *runner) joins(st *step, row int32) bool {
	for _, cs := range st.join {
		if st.rl.Col(cs.col)[row] != r.slots[cs.slot] {
			return false
		}
	}
	return true
}

func (r *runner) emitRow(st *step, row int32, i int) bool {
	for _, cs := range st.bind {
		r.slots[cs.slot] = st.rl.Col(cs.col)[row]
	}
	r.witness[st.atom] = st.rl.RowID(int(row))
	return r.dfs(i + 1)
}

// prepare resolves the step's input on first contact: for a join step,
// the code index of each join column plus, on a pinned atom, the pinned
// row and, on an atom with constants, the smallest constant bucket; for
// a scan, a filtered row list — or nothing at all for a full unfiltered
// scan.
func (r *runner) prepare(i int, st *step) {
	r.prepared[i] = true
	if len(st.join) > 0 {
		r.probes[i] = make([]map[uint32][]int32, len(st.join))
		for k, cs := range st.join {
			r.probes[i][k] = st.rl.CodeIndex(cs.col)
		}
		if st.atom == r.pinAtom {
			r.lists[i], r.seeded[i] = r.pinnedRow(st), true
		} else if len(st.consts) > 0 {
			r.lists[i], r.seeded[i] = r.constBucket(st), true
		}
		return
	}
	if len(st.consts) == 0 && len(st.eq) == 0 && r.removed == nil && st.atom != r.pinAtom {
		r.all[i] = true
		return
	}
	var list []int32
	switch {
	case st.atom == r.pinAtom:
		list = r.pinnedRow(st)
	case len(st.consts) > 0:
		for _, row := range r.constBucket(st) {
			if r.pass(st, row) {
				list = append(list, row)
			}
		}
	default:
		for row := int32(0); int(row) < st.rl.Len(); row++ {
			if r.pass(st, row) {
				list = append(list, row)
			}
		}
	}
	r.lists[i] = list
}

// pass reports whether row passes the step's constant, intra-atom
// equality, and removal filters.
func (r *runner) pass(st *step, row int32) bool {
	rl := st.rl
	for _, cc := range st.consts {
		if rl.Col(cc.col)[row] != cc.code {
			return false
		}
	}
	for _, e := range st.eq {
		if rl.Col(e[0])[row] != rl.Col(e[1])[row] {
			return false
		}
	}
	return r.removed == nil || !r.removed[rl.RowID(int(row))]
}

// pinnedRow returns the row holding pinID when it passes the step's
// filters, as a one-row list (empty otherwise). The scan runs
// backwards: a freshly inserted tuple sits at the end of its relation.
func (r *runner) pinnedRow(st *step) []int32 {
	for row := int32(st.rl.Len()) - 1; row >= 0; row-- {
		if st.rl.RowID(int(row)) == r.pinID {
			if r.pass(st, row) {
				return []int32{row}
			}
			return nil
		}
	}
	return nil
}

// constBucket returns the smallest code-index bucket among the step's
// constant columns: a superset of the rows passing its constants, in
// ascending order.
func (r *runner) constBucket(st *step) []int32 {
	seed := st.rl.CodeIndex(st.consts[0].col)[st.consts[0].code]
	for _, cc := range st.consts[1:] {
		if rows := st.rl.CodeIndex(cc.col)[cc.code]; len(rows) < len(seed) {
			seed = rows
		}
	}
	return seed
}
