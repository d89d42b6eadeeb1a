package reductions

import (
	"fmt"
	"math/rand"

	"github.com/querycause/querycause/internal/ra"
	"github.com/querycause/querycause/internal/rel"
)

// Literal is a possibly negated propositional variable.
type Literal struct {
	Var int
	Neg bool
}

// Clause is a disjunction of three literals over three distinct
// variables (the form the local-ring construction of Theorem 4.1
// requires).
type Clause [3]Literal

// Formula is a 3CNF formula.
type Formula struct {
	NumVars int
	Clauses []Clause
}

// Validate checks variable ranges and per-clause variable distinctness.
func (f *Formula) Validate() error {
	for ci, c := range f.Clauses {
		seen := map[int]bool{}
		for _, l := range c {
			if l.Var < 0 || l.Var >= f.NumVars {
				return fmt.Errorf("reductions: clause %d: variable %d out of range", ci, l.Var)
			}
			if seen[l.Var] {
				return fmt.Errorf("reductions: clause %d uses a variable twice (the ring construction needs distinct variables)", ci)
			}
			seen[l.Var] = true
		}
	}
	return nil
}

// Satisfiable brute-forces the formula (NumVars ≤ 24) and returns a
// satisfying assignment when one exists.
func (f *Formula) Satisfiable() (bool, []bool) {
	if f.NumVars > 24 {
		panic("reductions: brute-force SAT limited to 24 variables")
	}
	assign := make([]bool, f.NumVars)
	for mask := 0; mask < 1<<f.NumVars; mask++ {
		for i := range assign {
			assign[i] = mask&(1<<i) != 0
		}
		if f.Evaluate(assign) {
			return true, assign
		}
	}
	return false, nil
}

// Evaluate reports whether the assignment satisfies the formula.
func (f *Formula) Evaluate(assign []bool) bool {
	for _, c := range f.Clauses {
		ok := false
		for _, l := range c {
			if assign[l.Var] != l.Neg {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// RandomFormula samples a 3CNF formula with distinct variables per
// clause.
func RandomFormula(rng *rand.Rand, nVars, nClauses int) Formula {
	f := Formula{NumVars: nVars}
	for c := 0; c < nClauses; c++ {
		perm := rng.Perm(nVars)
		var cl Clause
		for k := 0; k < 3; k++ {
			cl[k] = Literal{Var: perm[k], Neg: rng.Intn(2) == 0}
		}
		f.Clauses = append(f.Clauses, cl)
	}
	return f
}

// RingInstance is the Theorem 4.1 / Lemmas C.1–C.3 reduction from 3SAT
// to responsibility for h₂* :- Rⁿ(x,y), Sⁿ(y,z), Tⁿ(z,x): one "local
// ring" per variable, a triangle per clause (via node collapsing), and
// a fresh protected triangle carrying the target tuple.
//
// The formula is satisfiable iff the target's minimum contingency
// equals SumMi = Σ mᵢ (Lemma C.3): each ring needs at least mᵢ edges,
// and exactly mᵢ only via one of its two all-forward contingencies S⁺ᵢ
// (≙ Xᵢ=true) or S⁻ᵢ (≙ Xᵢ=false), which covers a clause triangle iff
// the corresponding literal is satisfied.
type RingInstance struct {
	DB *rel.Database
	Q  *rel.Query
	// Target is R(a₀,b₀) on the fresh protected triangle.
	Target rel.TupleID
	// SumMi is Σ mᵢ, the candidate minimum contingency size.
	SumMi int
	// RingLen maps each (occurring) variable to its ring length mᵢ.
	RingLen map[int]int
	// SPlus and SMinus list, per variable, the tuple IDs of the two
	// canonical ring contingencies.
	SPlus, SMinus map[int][]rel.TupleID
}

// ringNodes identifies ring nodes up to the clause-gadget collapsing.
type ringNodes struct {
	parent map[string]string
}

func (u *ringNodes) find(x string) string {
	p, ok := u.parent[x]
	if !ok || p == x {
		return x
	}
	r := u.find(p)
	u.parent[x] = r
	return r
}

func (u *ringNodes) union(a, b string) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

// BuildRings constructs the instance for a validated formula. Ring
// lengths are the smallest odd multiples of 3 with mᵢ ≥ 9·occ(Xᵢ)
// (odd so that the forward edges form a single 2mᵢ-cycle, Lemma C.2;
// 9 positions per clause occurrence keep clause gadgets buffered).
func BuildRings(f Formula) (*RingInstance, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	occ := make(map[int]int)
	for _, c := range f.Clauses {
		for _, l := range c {
			occ[l.Var]++
		}
	}
	ringLen := make(map[int]int)
	sum := 0
	for v, o := range occ {
		m := 9 * o
		for m%2 == 0 { // smallest odd multiple of 3 ≥ 9·occ
			m += 3
		}
		ringLen[v] = m
		sum += m
	}

	node := func(v int, plus bool, j int) string {
		sign := "-"
		if plus {
			sign = "+"
		}
		return fmt.Sprintf("X%d%s%d", v, sign, j)
	}
	uf := &ringNodes{parent: make(map[string]string)}

	// Clause gadgets: the k-th literal of a clause maps to a forward
	// edge in positions j+k-1 → j+k of its variable's ring, where j is
	// the start of the clause's 9-wide portion; the three edges are
	// collapsed into a triangle (Fig. 8).
	type litEdge struct {
		from, to string
	}
	occSeen := make(map[int]int)
	for _, c := range f.Clauses {
		var edges [3]litEdge
		for k := 0; k < 3; k++ {
			l := c[k]
			occSeen[l.Var]++
			j := 9*(occSeen[l.Var]-1) + 1
			pos, next := j+k, j+k+1
			if l.Neg {
				edges[k] = litEdge{node(l.Var, false, pos), node(l.Var, true, next)}
			} else {
				edges[k] = litEdge{node(l.Var, true, pos), node(l.Var, false, next)}
			}
		}
		// a1 ≡ a3, b1 ≡ b2, c2 ≡ c3.
		uf.union(edges[0].from, edges[2].to)
		uf.union(edges[0].to, edges[1].from)
		uf.union(edges[1].to, edges[2].from)
	}

	db := rel.NewDatabase()
	inst := &RingInstance{
		DB: db, SumMi: sum, RingLen: ringLen,
		SPlus: make(map[int][]rel.TupleID), SMinus: make(map[int][]rel.TupleID),
	}
	relOf := func(colorFrom int) string {
		switch colorFrom {
		case 0:
			return "R" // a → b
		case 1:
			return "S" // b → c
		default:
			return "T" // c → a
		}
	}
	color := func(j int) int { return (j - 1) % 3 }
	seenEdge := make(map[string]bool)
	addEdge := func(from, to string, colorFrom int) (rel.TupleID, error) {
		rf, rt := uf.find(from), uf.find(to)
		k := rf + "→" + rt
		if seenEdge[k] {
			return 0, fmt.Errorf("reductions: edge collision %s (ring buffers too small)", k)
		}
		seenEdge[k] = true
		return db.MustAdd(relOf(colorFrom), true, rel.Value(rf), rel.Value(rt)), nil
	}

	ringVars := make([]int, 0, len(ringLen))
	for v := range ringLen {
		ringVars = append(ringVars, v)
	}
	sortInts(ringVars)
	for _, v := range ringVars {
		m := ringLen[v]
		next := func(j int) int { return j%m + 1 }
		// prev2 steps two positions back cyclically. Note: the paper
		// lists the wrap-around backward edges as (v_{m-1}, v_1) and
		// (v_m, v_2), but only the directions 1 → m-1 and 2 → m are
		// color-consistent (a backward edge goes from color k to color
		// k+1 so it can be an R/S/T tuple); we take the color-consistent
		// direction, which is also the one every non-wrap backward edge
		// (v_j, v_{j-2}) uses.
		prev2 := func(j int) int { return (j-3+m)%m + 1 }
		for j := 1; j <= m; j++ {
			// Forward edges.
			idP, err := addEdge(node(v, true, j), node(v, false, next(j)), color(j))
			if err != nil {
				return nil, err
			}
			inst.SPlus[v] = append(inst.SPlus[v], idP)
			idM, err := addEdge(node(v, false, j), node(v, true, next(j)), color(j))
			if err != nil {
				return nil, err
			}
			inst.SMinus[v] = append(inst.SMinus[v], idM)
			// Backward edges (one per sign and position; each closes
			// exactly one triangle with two forward edges).
			if _, err := addEdge(node(v, true, j), node(v, true, prev2(j)), color(j)); err != nil {
				return nil, err
			}
			if _, err := addEdge(node(v, false, j), node(v, false, prev2(j)), color(j)); err != nil {
				return nil, err
			}
		}
	}

	// Fresh protected triangle carrying the target.
	inst.Target = db.MustAdd("R", true, "a0", "b0")
	db.MustAdd("S", true, "b0", "c0")
	db.MustAdd("T", true, "c0", "a0")

	inst.Q = rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("z")),
		rel.NewAtom("T", rel.V("z"), rel.V("x")),
	)
	return inst, nil
}

// AssignmentContingency returns the candidate contingency for a truth
// assignment: S⁺ᵢ for true variables, S⁻ᵢ for false ones (variables not
// occurring in the formula have no ring and contribute nothing).
func (ri *RingInstance) AssignmentContingency(assign []bool) []rel.TupleID {
	var out []rel.TupleID
	for v := range ri.RingLen {
		if v < len(assign) && assign[v] {
			out = append(out, ri.SPlus[v]...)
		} else {
			out = append(out, ri.SMinus[v]...)
		}
	}
	return out
}

// ValidContingency verifies by Definition 2.1 that Γ is a contingency
// for the target: q holds on D−Γ and fails on D−Γ−{target}.
func (ri *RingInstance) ValidContingency(gamma []rel.TupleID) (bool, error) {
	removed := make(map[rel.TupleID]bool, len(gamma)+1)
	for _, id := range gamma {
		if id == ri.Target {
			return false, nil
		}
		removed[id] = true
	}
	on, err := ra.HoldsWithout(ri.DB, ri.Q, removed)
	if err != nil || !on {
		return false, err
	}
	removed[ri.Target] = true
	off, err := ra.HoldsWithout(ri.DB, ri.Q, removed)
	if err != nil {
		return false, err
	}
	return !off, nil
}

// SatisfiableViaRings decides the formula by checking, for every
// assignment, whether the canonical ring contingency is valid — the
// executable content of Lemma C.3's forward direction.
func (ri *RingInstance) SatisfiableViaRings(numVars int) (bool, error) {
	assign := make([]bool, numVars)
	for mask := 0; mask < 1<<numVars; mask++ {
		for i := range assign {
			assign[i] = mask&(1<<i) != 0
		}
		ok, err := ri.ValidContingency(ri.AssignmentContingency(assign))
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}
