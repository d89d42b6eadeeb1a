// The indexed branch-and-bound core: minimum hitting set with
// forbidden elements over a lineage.Index, one subproblem per
// protected conjunct, with the upper bound shared across subproblems.
// All hot-path state lives in preallocated slices and bitset words —
// the search itself allocates only new incumbents.

package exact

import (
	"math"
	"math/bits"
	"sort"

	"github.com/querycause/querycause/internal/lineage"
)

// searcher holds one MinContingencySetIndex call's state: the shared
// upper bound (best/bestSet, in slots) and the per-subproblem scratch.
type searcher struct {
	ix    *lineage.Index
	tslot uint32
	opts  Options

	best    int      // global best |Γ|; -1 = none found yet
	bestSet []uint32 // slots witnessing best
}

// protections returns the deduplicated conjunct indexes containing
// tslot: identical protectable conjuncts (self-join lineages repeat
// them) would search the identical subproblem, so only the first of
// each distinct slot set is kept.
func protections(ix *lineage.Index, tslot uint32) []int {
	occ := ix.Occurrences(tslot)
	out := make([]int, 0, len(occ))
	for _, ci := range occ {
		dup := false
		for _, kept := range out {
			if ix.ConjunctBits(kept).Equal(ix.ConjunctBits(int(ci))) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, int(ci))
		}
	}
	return out
}

// run searches every protected-conjunct subproblem, sharing the best
// bound. With the greedy seed enabled, the greedy solution primes
// best/bestSet and subproblems run best-first by greedy estimate;
// protections greedy proves infeasible are skipped (greedy and exact
// agree exactly on per-protection feasibility: both fail iff some
// target reduces to forbidden elements only).
func (s *searcher) run() {
	prots := protections(s.ix, s.tslot)
	if s.opts.DisableGreedySeed {
		for _, p := range prots {
			s.searchProtection(p)
			if s.best == 0 {
				return
			}
		}
		return
	}
	type est struct{ p, size int }
	ests := make([]est, 0, len(prots))
	for _, p := range prots {
		set, feasible := greedyProtection(s.ix, s.tslot, p)
		if !feasible {
			continue
		}
		ests = append(ests, est{p, len(set)})
		if s.best < 0 || len(set) < s.best {
			s.best = len(set)
			s.bestSet = set
		}
	}
	if s.best <= 0 {
		// Infeasible everywhere (not a cause), or greedy already found a
		// counterfactual-sized solution no search can beat.
		return
	}
	sort.Slice(ests, func(i, j int) bool {
		if ests[i].size != ests[j].size {
			return ests[i].size < ests[j].size
		}
		return ests[i].p < ests[j].p
	})
	for _, e := range ests {
		s.searchProtection(e.p)
		if s.best == 0 {
			return
		}
	}
}

// searchProtection runs the branch and bound for one protected
// conjunct p: every conjunct not containing t must be hit by slots
// outside p ∪ {t}.
func (s *searcher) searchProtection(p int) {
	ix := s.ix
	nv := ix.NumVars()
	forbidden := ix.NewSlotBits()
	for _, e := range ix.ConjunctSlots(p) {
		forbidden.Set(e)
	}
	forbidden.Set(s.tslot)

	// Reduce targets to allowed slots. An empty reduction means this
	// protection is infeasible.
	targets := make([]lineage.Bits, 0, ix.NumConjuncts())
	for ci := 0; ci < ix.NumConjuncts(); ci++ {
		cb := ix.ConjunctBits(ci)
		if cb.Has(s.tslot) {
			continue
		}
		reduced := ix.NewSlotBits()
		reduced.Copy(cb)
		reduced.AndNot(forbidden)
		if reduced.Count() == 0 {
			return
		}
		targets = append(targets, reduced)
	}

	var forced []uint32
	if !s.opts.DisablePreprocess {
		targets, forced = preprocess(targets, nv)
	}
	base := len(forced)
	if s.best >= 0 && base >= s.best {
		return
	}
	if len(targets) == 0 {
		s.record(forced, nil)
		return
	}

	// Local occurrence index and static branch orders.
	m := len(targets)
	tlist := make([][]uint32, m)
	occCount := make([]int32, nv)
	for i, tb := range targets {
		tlist[i] = slotsOf(tb, nil)
		for _, e := range tlist[i] {
			occCount[e]++
		}
	}
	localOcc := make([][]int32, nv)
	for i := range tlist {
		for _, e := range tlist[i] {
			localOcc[e] = append(localOcc[e], int32(i))
		}
	}
	// Branch on frequent elements first: they cover more targets, so
	// good solutions (and tight bounds) surface early. Ties by slot
	// keep the search deterministic.
	for i := range tlist {
		l := tlist[i]
		sort.Slice(l, func(a, b int) bool {
			if occCount[l[a]] != occCount[l[b]] {
				return occCount[l[a]] > occCount[l[b]]
			}
			return l[a] < l[b]
		})
	}

	covered := lineage.NewBits(m)
	hits := make([]int32, m)
	packUsed := ix.NewSlotBits()
	chosen := make([]uint32, 0, 16)
	uncov := m

	var rec func(depth int)
	rec = func(depth int) {
		if s.best >= 0 && base+depth >= s.best {
			return
		}
		if uncov == 0 {
			s.record(forced, chosen)
			return
		}
		// One pass over the targets: pick the uncovered target with the
		// fewest alternatives for branching and greedily pack
		// pairwise-disjoint uncovered targets for a lower bound.
		pick := -1
		lb := 1
		if !s.opts.DisablePackingBound {
			lb = 0
			packUsed.Zero()
		}
		for i := 0; i < m; i++ {
			if covered.Has(uint32(i)) {
				continue
			}
			if pick < 0 || len(tlist[i]) < len(tlist[pick]) {
				pick = i
			}
			if !s.opts.DisablePackingBound && !packUsed.Intersects(targets[i]) {
				lb++
				packUsed.Or(targets[i])
			}
		}
		if s.best >= 0 && base+depth+lb >= s.best {
			return
		}
		for _, e := range tlist[pick] {
			for _, ti := range localOcc[e] {
				hits[ti]++
				if hits[ti] == 1 {
					covered.Set(uint32(ti))
					uncov--
				}
			}
			chosen = append(chosen, e)
			rec(depth + 1)
			chosen = chosen[:len(chosen)-1]
			for _, ti := range localOcc[e] {
				hits[ti]--
				if hits[ti] == 0 {
					covered.Clear(uint32(ti))
					uncov++
				}
			}
		}
	}
	rec(0)
}

// record installs forced ∪ chosen as the new incumbent. Callers
// guarantee it is strictly smaller than the current best.
func (s *searcher) record(forced, chosen []uint32) {
	set := make([]uint32, 0, len(forced)+len(chosen))
	set = append(set, forced...)
	set = append(set, chosen...)
	s.best = len(set)
	s.bestSet = set
}

// preprocess simplifies one subproblem's targets to fixpoint:
//
//   - unit propagation: a singleton target forces its slot into the
//     solution; every target containing a forced slot is dropped;
//   - duplicate/superset elimination: a target that contains another
//     target is redundant (hitting the subset hits it);
//   - element dominance: if every remaining target containing slot a
//     also contains slot b, any solution using a can use b instead,
//     so a is removed from all targets (ties keep the smaller slot).
//
// Dropped targets are always hit by what remains (a forced slot or a
// surviving subset), and dominance never empties a target, so the
// reduced problem has the same optimal size and any solution of it —
// plus the forced slots — hits every original target.
func preprocess(targets []lineage.Bits, nv int) ([]lineage.Bits, []uint32) {
	var forced []uint32
	scratch := make([]uint32, 0, nv)
	for {
		changed := false
		// Unit propagation.
		for i := range targets {
			if targets[i] == nil || targets[i].Count() != 1 {
				continue
			}
			e := slotsOf(targets[i], scratch[:0])[0]
			forced = append(forced, e)
			for j := range targets {
				if targets[j] != nil && targets[j].Has(e) {
					targets[j] = nil
				}
			}
			changed = true
		}
		alive := aliveTargets(targets)
		// Duplicate/superset elimination: smaller targets first, so the
		// kept representative of a duplicate group is the earliest.
		sort.Slice(alive, func(a, b int) bool {
			ca, cb := targets[alive[a]].Count(), targets[alive[b]].Count()
			if ca != cb {
				return ca < cb
			}
			return alive[a] < alive[b]
		})
		for ai, i := range alive {
			if targets[i] == nil {
				continue
			}
			for _, j := range alive[ai+1:] {
				if targets[j] != nil && targets[i].SubsetOf(targets[j]) {
					targets[j] = nil
					changed = true
				}
			}
		}
		alive = alive[:0]
		for i := range targets {
			if targets[i] != nil {
				alive = append(alive, i)
			}
		}
		// Element dominance over the surviving targets.
		if len(alive) > 0 {
			present := ix32Union(targets, alive, scratch[:0])
			occ := make(map[uint32]lineage.Bits, len(present))
			for _, e := range present {
				b := lineage.NewBits(len(alive))
				for li, i := range alive {
					if targets[i].Has(e) {
						b.Set(uint32(li))
					}
				}
				occ[e] = b
			}
			for _, a := range present {
				oa := occ[a]
				if oa.Count() == 0 {
					continue // already removed this round
				}
				for _, b := range present {
					if a == b {
						continue
					}
					ob := occ[b]
					if ob.Count() == 0 || !oa.SubsetOf(ob) {
						continue
					}
					if oa.Equal(ob) && a < b {
						continue // tie: keep the smaller slot
					}
					for _, i := range alive {
						targets[i].Clear(a)
					}
					oa.Zero()
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	out := targets[:0]
	for _, tb := range targets {
		if tb != nil {
			out = append(out, tb)
		}
	}
	return out, forced
}

// aliveTargets returns the indexes of non-dropped targets.
func aliveTargets(targets []lineage.Bits) []int {
	out := make([]int, 0, len(targets))
	for i := range targets {
		if targets[i] != nil {
			out = append(out, i)
		}
	}
	return out
}

// ix32Union collects the sorted slots occurring in the alive targets.
func ix32Union(targets []lineage.Bits, alive []int, buf []uint32) []uint32 {
	if len(alive) == 0 {
		return buf
	}
	u := lineage.NewBits(64 * len(targets[alive[0]]))
	for _, i := range alive {
		u.Or(targets[i])
	}
	return slotsOf(u, buf)
}

// slotsOf appends the set bits of b to buf in ascending order.
func slotsOf(b lineage.Bits, buf []uint32) []uint32 {
	for w, word := range b {
		for word != 0 {
			buf = append(buf, uint32(w*64+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return buf
}

// greedyProtection runs one greedy hitting pass with conjunct p
// protected: every conjunct not containing t must be hit by slots
// outside p ∪ {t}; the slot covering the most uncovered targets is
// chosen each round, ties broken by the smaller slot (= smaller tuple
// ID). feasible=false when some target consists solely of forbidden
// slots — exactly the condition under which the exact search is
// infeasible for p too (impossible on minimal DNFs, where no target
// is a subset of a protected conjunct).
func greedyProtection(ix *lineage.Index, tslot uint32, p int) (set []uint32, feasible bool) {
	forbidden := ix.NewSlotBits()
	for _, e := range ix.ConjunctSlots(p) {
		forbidden.Set(e)
	}
	forbidden.Set(tslot)

	var targets [][]uint32
	for ci := 0; ci < ix.NumConjuncts(); ci++ {
		if ix.ConjunctBits(ci).Has(tslot) {
			continue
		}
		var allowed []uint32
		for _, e := range ix.ConjunctSlots(ci) {
			if !forbidden.Has(e) {
				allowed = append(allowed, e)
			}
		}
		if len(allowed) == 0 {
			return nil, false
		}
		targets = append(targets, allowed)
	}
	covered := make([]bool, len(targets))
	counts := make([]int32, ix.NumVars())
	uncov := len(targets)
	for uncov > 0 {
		for i := range counts {
			counts[i] = 0
		}
		for i, tg := range targets {
			if covered[i] {
				continue
			}
			for _, e := range tg {
				counts[e]++
			}
		}
		bestE, bestC := uint32(0), int32(math.MinInt32)
		for e := range counts {
			if counts[e] > bestC {
				bestE, bestC = uint32(e), counts[e]
			}
		}
		set = append(set, bestE)
		for i, tg := range targets {
			if covered[i] {
				continue
			}
			for _, e := range tg {
				if e == bestE {
					covered[i] = true
					uncov--
					break
				}
			}
		}
	}
	return set, true
}
