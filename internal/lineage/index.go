// Interned lineage indices: a DNF re-expressed over dense uint32 slots
// with per-conjunct bitsets and an element→conjuncts occurrence index.
// The exact solvers (internal/exact) run entirely on this
// representation — coverage checks become single AND-popcount passes
// over a handful of words instead of map probes over TupleID sets —
// and one Index built per lineage is shared by every per-cause search,
// the greedy estimator, and the brute-force oracle's evaluation loop.
//
// An Index is immutable after NewIndex and safe for concurrent use.

package lineage

import (
	"math/bits"
	"sort"

	"github.com/querycause/querycause/internal/rel"
)

// Bits is a dense bitset over uint32 indices, stored as 64-bit words.
// All binary operations assume equal length (bitsets over the same
// universe).
type Bits []uint64

// NewBits returns a zeroed bitset able to hold indices [0, n).
func NewBits(n int) Bits { return make(Bits, (n+63)/64) }

// Set sets bit i.
func (b Bits) Set(i uint32) { b[i>>6] |= 1 << (i & 63) }

// Clear clears bit i.
func (b Bits) Clear(i uint32) { b[i>>6] &^= 1 << (i & 63) }

// Has reports whether bit i is set.
func (b Bits) Has(i uint32) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// Zero clears every bit.
func (b Bits) Zero() {
	for i := range b {
		b[i] = 0
	}
}

// Copy overwrites b with o.
func (b Bits) Copy(o Bits) { copy(b, o) }

// Or sets b to b ∪ o.
func (b Bits) Or(o Bits) {
	for i, w := range o {
		b[i] |= w
	}
}

// AndNot sets b to b ∖ o.
func (b Bits) AndNot(o Bits) {
	for i, w := range o {
		b[i] &^= w
	}
}

// Intersects reports whether b ∩ o is non-empty (one AND pass, no
// allocation).
func (b Bits) Intersects(o Bits) bool {
	for i, w := range o {
		if b[i]&w != 0 {
			return true
		}
	}
	return false
}

// IntersectCount returns |b ∩ o| (one AND-popcount pass).
func (b Bits) IntersectCount(o Bits) int {
	n := 0
	for i, w := range o {
		n += bits.OnesCount64(b[i] & w)
	}
	return n
}

// SubsetOf reports whether b ⊆ o.
func (b Bits) SubsetOf(o Bits) bool {
	for i, w := range b {
		if w&^o[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether b and o hold the same bits.
func (b Bits) Equal(o Bits) bool {
	for i, w := range b {
		if w != o[i] {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (b Bits) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Index interns a DNF's tuple IDs into dense uint32 slots and
// precomputes, per conjunct, the slot list and slot bitset, plus the
// element→conjuncts occurrence index. Slot order follows ascending
// TupleID, so slot comparisons and ID comparisons agree.
type Index struct {
	ids       []rel.TupleID // slot → tuple ID, ascending
	conjSlots [][]uint32    // conjunct → sorted slots
	conjBits  []Bits        // conjunct → slot bitset
	occ       [][]uint32    // slot → ascending conjunct indexes containing it
	words     int           // words per slot bitset
}

// NewIndex builds the interned index of d. The DNF is taken as given —
// callers wanting minimal-lineage semantics minimize (RemoveRedundant)
// first. A True or empty DNF yields an index with zero conjuncts.
func NewIndex(d DNF) *Index {
	ix := &Index{}
	if d.True {
		return ix
	}
	seen := make(map[rel.TupleID]bool)
	for _, c := range d.Conjuncts {
		for _, id := range c {
			if !seen[id] {
				seen[id] = true
				ix.ids = append(ix.ids, id)
			}
		}
	}
	sort.Slice(ix.ids, func(i, j int) bool { return ix.ids[i] < ix.ids[j] })
	ix.words = (len(ix.ids) + 63) / 64
	ix.occ = make([][]uint32, len(ix.ids))
	ix.conjSlots = make([][]uint32, len(d.Conjuncts))
	ix.conjBits = make([]Bits, len(d.Conjuncts))
	for ci, c := range d.Conjuncts {
		slots := make([]uint32, len(c))
		bs := NewBits(len(ix.ids))
		for i, id := range c {
			s, _ := ix.Slot(id)
			slots[i] = s
			bs.Set(s)
			ix.occ[s] = append(ix.occ[s], uint32(ci))
		}
		// Conjuncts are sorted TupleID sets, so slots are sorted too.
		ix.conjSlots[ci] = slots
		ix.conjBits[ci] = bs
	}
	return ix
}

// NumVars returns the number of distinct tuple variables (slots).
func (ix *Index) NumVars() int { return len(ix.ids) }

// NumConjuncts returns the number of conjuncts.
func (ix *Index) NumConjuncts() int { return len(ix.conjSlots) }

// Words returns the word width of slot bitsets over this index.
func (ix *Index) Words() int { return ix.words }

// ID returns the tuple ID interned at slot s.
func (ix *Index) ID(s uint32) rel.TupleID { return ix.ids[s] }

// Slot returns the slot of tuple id, if interned.
func (ix *Index) Slot(id rel.TupleID) (uint32, bool) {
	i := sort.Search(len(ix.ids), func(i int) bool { return ix.ids[i] >= id })
	if i < len(ix.ids) && ix.ids[i] == id {
		return uint32(i), true
	}
	return 0, false
}

// ConjunctSlots returns conjunct c's sorted slot list. Callers must
// not mutate it.
func (ix *Index) ConjunctSlots(c int) []uint32 { return ix.conjSlots[c] }

// ConjunctBits returns conjunct c's slot bitset. Callers must not
// mutate it.
func (ix *Index) ConjunctBits(c int) Bits { return ix.conjBits[c] }

// Occurrences returns the ascending conjunct indexes containing slot
// s. Callers must not mutate it.
func (ix *Index) Occurrences(s uint32) []uint32 { return ix.occ[s] }

// NewSlotBits returns a zeroed bitset over the index's slots.
func (ix *Index) NewSlotBits() Bits { return NewBits(len(ix.ids)) }

// NewConjunctBits returns a zeroed bitset over the index's conjuncts.
func (ix *Index) NewConjunctBits() Bits { return NewBits(len(ix.conjSlots)) }

// SatisfiableWithout reports whether some conjunct is disjoint from
// the removed slot set — the bitset form of DNF.EvalWithout, one
// AND pass per conjunct.
func (ix *Index) SatisfiableWithout(removed Bits) bool {
	for _, bs := range ix.conjBits {
		if !bs.Intersects(removed) {
			return true
		}
	}
	return false
}
