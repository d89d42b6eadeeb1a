package lineage

import (
	"math/rand"
	"testing"

	"github.com/querycause/querycause/internal/rel"
)

func TestBitsBasics(t *testing.T) {
	b := NewBits(130)
	for _, i := range []uint32{0, 63, 64, 129} {
		if b.Has(i) {
			t.Fatalf("fresh bitset has %d", i)
		}
		b.Set(i)
		if !b.Has(i) {
			t.Fatalf("Set(%d) not visible", i)
		}
	}
	if got := b.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	o := NewBits(130)
	o.Set(64)
	if !b.Intersects(o) || b.IntersectCount(o) != 1 {
		t.Fatal("intersection with {64} wrong")
	}
	if !o.SubsetOf(b) || b.SubsetOf(o) {
		t.Fatal("subset relation wrong")
	}
	b.AndNot(o)
	if b.Has(64) || b.Count() != 3 {
		t.Fatal("AndNot failed")
	}
	b.Clear(0)
	if b.Has(0) {
		t.Fatal("Clear failed")
	}
	c := NewBits(130)
	c.Copy(b)
	if !c.Equal(b) {
		t.Fatal("Copy/Equal failed")
	}
	b.Zero()
	if b.Count() != 0 {
		t.Fatal("Zero failed")
	}
}

// TestIndexRoundTrip checks the interning against the DNF it came
// from: slots biject with Vars(), conjunct slot lists and bitsets
// agree with the conjuncts, and the occurrence index inverts them.
func TestIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var d DNF
		nconj := 1 + rng.Intn(8)
		for i := 0; i < nconj; i++ {
			k := 1 + rng.Intn(4)
			ids := make([]rel.TupleID, k)
			for j := range ids {
				// Sparse, non-contiguous IDs so slots ≠ IDs.
				ids[j] = rel.TupleID(rng.Intn(30) * 7)
			}
			d.Conjuncts = append(d.Conjuncts, NewConjunct(ids...))
		}
		ix := NewIndex(d)
		vars := d.Vars()
		if ix.NumVars() != len(vars) || ix.NumConjuncts() != len(d.Conjuncts) {
			t.Fatalf("trial %d: size mismatch", trial)
		}
		for s, id := range vars {
			if ix.ID(uint32(s)) != id {
				t.Fatalf("trial %d: slot %d is %d, want %d", trial, s, ix.ID(uint32(s)), id)
			}
			slot, ok := ix.Slot(id)
			if !ok || slot != uint32(s) {
				t.Fatalf("trial %d: Slot(%d) = (%d,%v)", trial, id, slot, ok)
			}
		}
		if _, ok := ix.Slot(rel.TupleID(1)); ok {
			t.Fatalf("trial %d: Slot found an ID outside the DNF", trial)
		}
		for ci, c := range d.Conjuncts {
			slots := ix.ConjunctSlots(ci)
			bits := ix.ConjunctBits(ci)
			if len(slots) != len(c) || bits.Count() != len(c) {
				t.Fatalf("trial %d conj %d: width mismatch", trial, ci)
			}
			for i, id := range c {
				if ix.ID(slots[i]) != id || !bits.Has(slots[i]) {
					t.Fatalf("trial %d conj %d: slot %d ≠ id %d", trial, ci, slots[i], id)
				}
				found := false
				for _, oc := range ix.Occurrences(slots[i]) {
					if int(oc) == ci {
						found = true
					}
				}
				if !found {
					t.Fatalf("trial %d: occurrence index misses conj %d for id %d", trial, ci, id)
				}
			}
		}
	}
}

// TestSatisfiableWithoutMatchesEval cross-checks the bitset
// evaluation against DNF.EvalWithout on random removals.
func TestSatisfiableWithoutMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		var d DNF
		for i := 0; i < 1+rng.Intn(6); i++ {
			k := 1 + rng.Intn(3)
			ids := make([]rel.TupleID, k)
			for j := range ids {
				ids[j] = rel.TupleID(rng.Intn(9))
			}
			d.Conjuncts = append(d.Conjuncts, NewConjunct(ids...))
		}
		ix := NewIndex(d)
		removedMap := make(map[rel.TupleID]bool)
		removedBits := ix.NewSlotBits()
		for _, id := range d.Vars() {
			if rng.Float64() < 0.4 {
				removedMap[id] = true
				s, _ := ix.Slot(id)
				removedBits.Set(s)
			}
		}
		if got, want := ix.SatisfiableWithout(removedBits), d.EvalWithout(removedMap); got != want {
			t.Fatalf("trial %d: SatisfiableWithout=%v EvalWithout=%v (DNF %v minus %v)", trial, got, want, d, removedMap)
		}
	}
}
