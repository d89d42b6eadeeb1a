package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/querycause/querycause/internal/exact"
	"github.com/querycause/querycause/internal/imdb"
	"github.com/querycause/querycause/internal/ra"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/respflow"
	"github.com/querycause/querycause/internal/shape"
	"github.com/querycause/querycause/internal/whyno"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// TestFig2Ranking reproduces Figure 2b exactly: the responsibilities of
// all nine causes of the Musical answer on the Fig. 2a instance.
func TestFig2Ranking(t *testing.T) {
	db, keys := imdb.Micro()
	eng, err := NewWhySo(db, imdb.GenreQuery(), "Musical")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		imdb.KeySweeney:  1.0 / 3,
		imdb.KeyDavid:    1.0 / 3,
		imdb.KeyHumphrey: 1.0 / 3,
		imdb.KeyTim:      1.0 / 3,
		imdb.KeyLetsFall: 1.0 / 4,
		imdb.KeyMelody:   1.0 / 4,
		imdb.KeyCandide:  1.0 / 5,
		imdb.KeyFlight:   1.0 / 5,
		imdb.KeyManon:    1.0 / 5,
	}
	for _, mode := range []Mode{ModeAuto, ModeExact, ModePaper} {
		for key, rho := range want {
			ex, err := eng.Responsibility(keys[key], mode)
			if err != nil {
				t.Fatal(err)
			}
			if !approx(ex.Rho, rho) {
				t.Errorf("mode %d: ρ(%s) = %v, want %v", mode, key, ex.Rho, rho)
			}
		}
	}
	// The ranking must list all nine causes, top group first.
	ranked, err := eng.RankAll(ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 9 {
		t.Fatalf("ranked %d causes, want 9", len(ranked))
	}
	if !approx(ranked[0].Rho, 1.0/3) || !approx(ranked[8].Rho, 1.0/5) {
		t.Errorf("ranking boundaries wrong: %v … %v", ranked[0].Rho, ranked[8].Rho)
	}
	// Example 2.4 details: Sweeney Todd's minimal contingency has size 2
	// (the two other directors); Manon Lescaut's has size 4.
	if ex, _ := eng.Responsibility(keys[imdb.KeySweeney], ModeAuto); ex.ContingencySize != 2 {
		t.Errorf("Sweeney Todd contingency = %d, want 2", ex.ContingencySize)
	}
	if ex, _ := eng.Responsibility(keys[imdb.KeyManon], ModeAuto); ex.ContingencySize != 4 {
		t.Errorf("Manon Lescaut contingency = %d, want 4", ex.ContingencySize)
	}
	// The genre query is linear: ModeAuto must use the flow method for
	// non-counterfactual causes.
	if ex, _ := eng.Responsibility(keys[imdb.KeySweeney], ModeAuto); ex.Method != MethodFlow {
		t.Errorf("method = %v, want max-flow", ex.Method)
	}
}

// TestExample2_2Engine drives the full Example 2.2 through the engine.
func TestExample2_2Engine(t *testing.T) {
	db := rel.NewDatabase()
	for _, row := range [][2]rel.Value{{"a1", "a5"}, {"a2", "a1"}, {"a3", "a3"}, {"a4", "a3"}, {"a4", "a2"}} {
		db.MustAdd("R", true, row[0], row[1])
	}
	sIDs := make(map[rel.Value]rel.TupleID)
	for _, v := range []rel.Value{"a1", "a2", "a3", "a4", "a6"} {
		sIDs[v] = db.MustAdd("S", true, v)
	}
	q := &rel.Query{Name: "q", Head: []rel.Term{rel.V("x")},
		Atoms: []rel.Atom{rel.NewAtom("R", rel.V("x"), rel.V("y")), rel.NewAtom("S", rel.V("y"))}}

	// Answer a2: S(a1) is counterfactual.
	eng2, err := NewWhySo(db, q, "a2")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := eng2.Responsibility(sIDs["a1"], ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Rho != 1 || ex.Method != MethodCounterfactual {
		t.Errorf("ρ(S(a1)) = %v (%v), want 1 via counterfactual", ex.Rho, ex.Method)
	}

	// Answer a4: S(a3) is an actual cause with contingency {S(a2)}.
	eng4, err := NewWhySo(db, q, "a4")
	if err != nil {
		t.Fatal(err)
	}
	ex, err = eng4.Responsibility(sIDs["a3"], ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(ex.Rho, 0.5) || ex.ContingencySize != 1 {
		t.Errorf("ρ(S(a3)) = %v/%d, want 0.5/1", ex.Rho, ex.ContingencySize)
	}
	// S(a6) is not a cause.
	ex, err = eng4.Responsibility(sIDs["a6"], ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Rho != 0 || ex.Method != MethodNone {
		t.Errorf("ρ(S(a6)) = %v (%v), want 0", ex.Rho, ex.Method)
	}
}

// TestDominationCounterexample documents the reproduction finding on
// Example 4.12b (q :- Rⁿ(x,y),Sⁿ(y,z),Tⁿ(z,x),Vⁿ(x)): the paper
// weakens R,T by domination through V and runs Algorithm 1, but on this
// instance the unique minimum contingency for t = S(b0,c0) is the
// single tuple R(a,b1) — which the weakened network cannot cut — so
// ModePaper returns ρ = 1/3 while Definition 2.3 gives ρ = 1/2.
func TestDominationCounterexample(t *testing.T) {
	db := rel.NewDatabase()
	db.MustAdd("V", true, "a")
	db.MustAdd("R", true, "a", "b0")
	rab1 := db.MustAdd("R", true, "a", "b1")
	sb0 := db.MustAdd("S", true, "b0", "c0")
	db.MustAdd("S", true, "b1", "c1")
	db.MustAdd("S", true, "b1", "c2")
	db.MustAdd("T", true, "c0", "a")
	db.MustAdd("T", true, "c1", "a")
	db.MustAdd("T", true, "c2", "a")
	q := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("z")),
		rel.NewAtom("T", rel.V("z"), rel.V("x")),
		rel.NewAtom("V", rel.V("x")),
	)
	eng, err := NewWhySo(db, q)
	if err != nil {
		t.Fatal(err)
	}

	exact_, err := eng.Responsibility(sb0, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(exact_.Rho, 0.5) || exact_.ContingencySize != 1 {
		t.Fatalf("exact ρ = %v/%d, want 1/2 via Γ={R(a,b1)}", exact_.Rho, exact_.ContingencySize)
	}

	// The exact weakening the paper derives in Example 4.12 — dominate R
	// and T through V, dissociate them to R(x,y,z), T(x,y,z), linear
	// order S,R,T,V — yields min-cut 2, i.e. ρ = 1/3 ≠ 1/2.
	s := shape.FromQuery(q, func(string) bool { return true })
	ops := []shape.Op{
		{Kind: shape.Domination, Atom: 0},           // R exogenous
		{Kind: shape.Domination, Atom: 2},           // T exogenous
		{Kind: shape.Dissociation, Atom: 0, Var: 2}, // R += z
		{Kind: shape.Dissociation, Atom: 2, Var: 1}, // T += y
	}
	ws := s
	for _, op := range ops {
		var err2 error
		ws, err2 = ws.ApplyWeakening(op)
		if err2 != nil {
			t.Fatalf("paper's weakening step %v invalid: %v", op, err2)
		}
	}
	order, ok := ws.LinearOrder()
	if !ok {
		t.Fatal("paper's weakened query must be linear")
	}
	net, err := respflow.Build(db, q, ws, order)
	if err != nil {
		t.Fatal(err)
	}
	size, ok := net.MinContingency(sb0)
	if !ok || size != 2 {
		t.Fatalf("Algorithm 1 on the paper's weakening: size=%d ok=%v, want 2 (ρ=1/3 ≠ exact 1/2)", size, ok)
	}

	// A different legal Definition 4.9 weakening (dominate only T,
	// dissociate T += y) yields min-cut 1 — two legal weakenings
	// disagree, contradicting Lemma 4.10's claim that responsibility is
	// invariant under weakening.
	ws2 := s
	for _, op := range []shape.Op{
		{Kind: shape.Domination, Atom: 2},
		{Kind: shape.Dissociation, Atom: 2, Var: 1},
	} {
		var err2 error
		ws2, err2 = ws2.ApplyWeakening(op)
		if err2 != nil {
			t.Fatalf("alternative weakening step %v invalid: %v", op, err2)
		}
	}
	order2, ok := ws2.LinearOrder()
	if !ok {
		t.Fatal("alternative weakened query must be linear")
	}
	net2, err := respflow.Build(db, q, ws2, order2)
	if err != nil {
		t.Fatal(err)
	}
	if size2, ok2 := net2.MinContingency(sb0); !ok2 || size2 != 1 {
		t.Fatalf("alternative weakening: size=%d ok=%v, want 1", size2, ok2)
	}

	// ModePaper picks whichever weakening its BFS reaches first; it must
	// agree with one of the two legal weakenings above.
	paper, err := eng.Responsibility(sb0, ModePaper)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(paper.Rho, 1.0/3) && !approx(paper.Rho, 0.5) {
		t.Fatalf("paper-mode ρ = %v, want 1/3 or 1/2", paper.Rho)
	}
	if paper.Method != MethodFlow {
		t.Fatalf("paper-mode method = %v, want max-flow", paper.Method)
	}

	// ModeAuto must not trust the unsound domination: it falls back to
	// exact search and returns the Definition 2.3 value.
	auto, err := eng.Responsibility(sb0, ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(auto.Rho, 0.5) || auto.Method != MethodExact {
		t.Fatalf("auto ρ = %v (%v), want 1/2 via exact", auto.Rho, auto.Method)
	}
	// Sanity: R(a,b1) really is a contingency.
	if _, ok := exactContingencyCheck(db, q, sb0, rab1); !ok {
		t.Fatal("R(a,b1) should be a valid contingency for S(b0,c0)")
	}
}

// exactContingencyCheck verifies {γ} is a contingency for t by
// definition: q true on D−{γ}, false on D−{γ,t}.
func exactContingencyCheck(db *rel.Database, q *rel.Query, t, gamma rel.TupleID) (string, bool) {
	on, err := ra.HoldsWithout(db, q, map[rel.TupleID]bool{gamma: true})
	if err != nil || !on {
		return "q false on D-Γ", false
	}
	off, err := ra.HoldsWithout(db, q, map[rel.TupleID]bool{gamma: true, t: true})
	if err != nil || off {
		return "q true on D-Γ-t", false
	}
	return "", true
}

// TestHardQueryUsesExact: the canonical hard query h₂* routes to exact
// search under ModeAuto, and the values match brute force.
func TestHardQueryUsesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("z")),
		rel.NewAtom("T", rel.V("z"), rel.V("x")),
	)
	dom := []rel.Value{"0", "1", "2"}
	for trial := 0; trial < 20; trial++ {
		db := rel.NewDatabase()
		for _, name := range []string{"R", "S", "T"} {
			for i := 0; i < 5; i++ {
				db.MustAdd(name, true, dom[rng.Intn(3)], dom[rng.Intn(3)])
			}
		}
		eng, err := NewWhySo(db, q)
		if err != nil {
			t.Fatal(err)
		}
		cert, err := eng.PaperClassification()
		if err != nil {
			t.Fatal(err)
		}
		if cert.Class.PTime() {
			t.Fatal("h2* must not be classified PTIME")
		}
		for _, id := range eng.Causes() {
			ex, err := eng.Responsibility(id, ModeAuto)
			if err != nil {
				t.Fatal(err)
			}
			if ex.Method != MethodExact && ex.Method != MethodCounterfactual {
				t.Fatalf("method = %v, want exact or counterfactual", ex.Method)
			}
			want, ok := exact.BruteForceMinContingency(eng.NLineage(), id)
			if !ok || ex.ContingencySize != want {
				t.Fatalf("tuple %v: engine=%d brute=%d(%v)", db.Tuple(id), ex.ContingencySize, want, ok)
			}
		}
	}
}

// TestAutoMatchesExactOnLinearFamilies fuzzes ModeAuto (flow) against
// ModeExact across linear query families with mixed endo/exo tuples.
func TestAutoMatchesExactOnLinearFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	families := []*rel.Query{
		rel.NewBoolean(
			rel.NewAtom("R", rel.V("x"), rel.V("y")),
			rel.NewAtom("S", rel.V("y"), rel.V("z")),
		),
		rel.NewBoolean(
			rel.NewAtom("R", rel.V("x"), rel.V("y")),
			rel.NewAtom("S", rel.V("y"), rel.V("z")),
			rel.NewAtom("T", rel.V("z"), rel.V("w")),
		),
		rel.NewBoolean( // Example 4.12a (dissociation)
			rel.NewAtom("R", rel.V("x"), rel.V("y")),
			rel.NewAtom("S", rel.V("y"), rel.V("z")),
			rel.NewAtom("T", rel.V("z"), rel.V("x")),
		),
	}
	exoRel := []string{"", "", "S"} // S exogenous in the third family
	dom := []rel.Value{"0", "1", "2"}
	for fi, q := range families {
		for trial := 0; trial < 25; trial++ {
			db := rel.NewDatabase()
			for _, a := range q.Atoms {
				for i := 0; i < 5; i++ {
					endo := rng.Intn(5) != 0
					if a.Pred == exoRel[fi] {
						endo = false
					}
					args := make([]rel.Value, len(a.Terms))
					for j := range args {
						args[j] = dom[rng.Intn(3)]
					}
					db.MustAdd(a.Pred, endo, args...)
				}
			}
			holds, err := ra.Holds(db, q)
			if err != nil {
				t.Fatal(err)
			}
			if !holds {
				continue
			}
			eng, err := NewWhySo(db, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range eng.Causes() {
				auto, err := eng.Responsibility(id, ModeAuto)
				if err != nil {
					t.Fatal(err)
				}
				ex, err := eng.Responsibility(id, ModeExact)
				if err != nil {
					t.Fatal(err)
				}
				if !approx(auto.Rho, ex.Rho) {
					t.Fatalf("family %d trial %d tuple %v: auto=%v exact=%v\ndb:\n%v",
						fi, trial, db.Tuple(id), auto.Rho, ex.Rho, db)
				}
			}
		}
	}
}

// TestWhyNoEngine checks the Why-No closed form against the brute-force
// oracle on random instances.
func TestWhyNoEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("z")),
	)
	dom := []rel.Value{"0", "1", "2"}
	built := 0
	for trial := 0; trial < 60 && built < 20; trial++ {
		db := rel.NewDatabase()
		// Sparse real database (exogenous), dense candidates (endogenous).
		for _, name := range []string{"R", "S"} {
			for i := 0; i < 2; i++ {
				db.MustAdd(name, false, dom[rng.Intn(3)], dom[rng.Intn(3)])
			}
			for i := 0; i < 4; i++ {
				db.MustAdd(name, true, dom[rng.Intn(3)], dom[rng.Intn(3)])
			}
		}
		eng, err := NewWhyNo(db, q)
		if err != nil {
			continue // instance invalid (answer present or unreachable)
		}
		built++
		for _, id := range eng.Causes() {
			ex, err := eng.Responsibility(id, ModeAuto)
			if err != nil {
				t.Fatal(err)
			}
			if ex.Method != MethodWhyNo {
				t.Fatalf("method = %v, want why-no", ex.Method)
			}
			want, ok, err := whyno.BruteForceMinContingency(db, q, id)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || ex.ContingencySize != want {
				t.Fatalf("tuple %v: engine=%d brute=%d(%v)\ndb:\n%v",
					db.Tuple(id), ex.ContingencySize, want, ok, db)
			}
			// Theorem 4.17: contingency bounded by m-1.
			if ex.ContingencySize > len(q.Atoms)-1 {
				t.Fatalf("Why-No contingency %d exceeds m-1", ex.ContingencySize)
			}
		}
	}
	if built == 0 {
		t.Fatal("no valid Why-No instances generated")
	}
}

func TestEngineErrors(t *testing.T) {
	db := rel.NewDatabase()
	db.MustAdd("R", true, "a")
	exo := db.MustAdd("R", false, "b")
	q := rel.NewBoolean(rel.NewAtom("R", rel.V("x")))
	eng, err := NewWhySo(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Responsibility(exo, ModeAuto); err == nil {
		t.Error("expected error for exogenous tuple")
	}
	if _, err := eng.Responsibility(rel.TupleID(99), ModeAuto); err == nil {
		t.Error("expected error for out-of-range tuple")
	}
	hq := &rel.Query{Name: "q", Head: []rel.Term{rel.V("x")}, Atoms: []rel.Atom{rel.NewAtom("R", rel.V("x"))}}
	if _, err := NewWhySo(db, hq); err == nil {
		t.Error("expected arity error binding empty answer to unary head")
	}
	// Why-No on an instance where the query already holds on Dˣ.
	db2 := rel.NewDatabase()
	db2.MustAdd("R", false, "a")
	db2.MustAdd("R", true, "b")
	if _, err := NewWhyNo(db2, q); err == nil {
		t.Error("expected Why-No validation error (already an answer)")
	}
}

// TestSelfJoinEngine: self-join queries route to exact search and agree
// with brute force (Prop 4.16's query family).
func TestSelfJoinEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	q := rel.NewBoolean(
		rel.NewAtom("R", rel.V("x")),
		rel.NewAtom("S", rel.V("x"), rel.V("y")),
		rel.NewAtom("R", rel.V("y")),
	)
	dom := []rel.Value{"0", "1", "2", "3"}
	for trial := 0; trial < 20; trial++ {
		db := rel.NewDatabase()
		for i := 0; i < 4; i++ {
			db.MustAdd("R", true, dom[rng.Intn(4)])
		}
		for i := 0; i < 5; i++ {
			db.MustAdd("S", false, dom[rng.Intn(4)], dom[rng.Intn(4)])
		}
		holds, _ := ra.Holds(db, q)
		if !holds {
			continue
		}
		eng, err := NewWhySo(db, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range eng.Causes() {
			ex, err := eng.Responsibility(id, ModeAuto)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := exact.BruteForceMinContingency(eng.NLineage(), id)
			if !ok || ex.ContingencySize != want {
				t.Fatalf("tuple %v: engine=%d brute=%d(%v)", db.Tuple(id), ex.ContingencySize, want, ok)
			}
		}
	}
}
