package querycause_test

import (
	"context"
	"math"
	"strings"
	"testing"

	qc "github.com/querycause/querycause"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// TestQuickstart is the README's quick-start, end to end.
func TestQuickstart(t *testing.T) {
	db := qc.NewDatabase()
	db.MustAdd("R", true, "a4", "a3")
	db.MustAdd("R", true, "a4", "a2")
	sa3 := db.MustAdd("S", true, "a3")
	db.MustAdd("S", true, "a2")
	q, err := qc.ParseQuery("q(x) :- R(x,y), S(y)")
	if err != nil {
		t.Fatal(err)
	}
	ranked := localRank(t, db, q, "a4")
	if len(ranked) != 4 {
		t.Fatalf("causes = %d, want 4", len(ranked))
	}
	for _, e := range ranked {
		if !approx(e.Rho, 0.5) {
			t.Errorf("ρ(%v) = %v, want 0.5", db.Tuple(e.Tuple), e.Rho)
		}
		if e.Tuple == sa3 && e.ContingencySize != 1 {
			t.Errorf("contingency of S(a3) = %d, want 1", e.ContingencySize)
		}
	}
	// Table rendering.
	s := qc.FormatExplanations(db, ranked)
	if !strings.Contains(s, "0.500") {
		t.Errorf("table missing values:\n%s", s)
	}
}

func TestParseDatabaseAndWhyNo(t *testing.T) {
	db, err := qc.ParseDatabase(strings.NewReader(`
# real database
-R(a, b)
# candidate missing tuples
+S(b)
+S(c)
`))
	if err != nil {
		t.Fatal(err)
	}
	q, _ := qc.ParseQuery("q :- R(x,y), S(y)")
	r, err := openLocal(t, db).WhyNo(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := r.Rank(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 1 {
		t.Fatalf("Why-No causes = %v, want one (S(b))", ranked)
	}
	if e := ranked[0]; e.Rho != 1 || e.Method != qc.MethodWhyNo {
		t.Errorf("ρ = %v (%v), want 1 via why-no", e.Rho, e.Method)
	}
}

func TestCausesFOAgreesWithLineage(t *testing.T) {
	db := qc.NewDatabase()
	db.MustAdd("R", false, "a4", "a3")
	db.MustAdd("R", true, "a3", "a3")
	db.MustAdd("S", true, "a3")
	q, _ := qc.ParseQuery("q :- R(x,y), S(y)")
	foCauses, prog, err := qc.CausesFO(db, q)
	if err != nil {
		t.Fatal(err)
	}
	r, err := openLocal(t, db).WhySo(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := r.Causes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(foCauses) != len(lin) {
		t.Fatalf("FO=%v lineage=%v", foCauses, lin)
	}
	for i := range lin {
		if foCauses[i] != lin[i] {
			t.Fatalf("FO=%v lineage=%v", foCauses, lin)
		}
	}
	ns, err := prog.NumStrata()
	if err != nil {
		t.Fatal(err)
	}
	if ns != 2 {
		t.Errorf("strata = %d, want 2", ns)
	}
}

func TestClassifyPublicAPI(t *testing.T) {
	q, _ := qc.ParseQuery("q :- R(x,y), S(y,z), T(z,x)")
	allEndo := func(string) bool { return true }
	cert, err := qc.Classify(q, allEndo)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Class != qc.ClassNPHard {
		t.Errorf("h2* classified %v, want NP-hard", cert.Class)
	}
	cert2, err := qc.Classify(q, func(r string) bool { return r != "S" })
	if err != nil {
		t.Fatal(err)
	}
	if !cert2.Class.PTime() {
		t.Errorf("Example 4.12a classified %v, want PTIME", cert2.Class)
	}
	chain, _ := qc.ParseQuery("q :- R(x,y), S(y,z)")
	cert3, err := qc.ClassifySound(chain, allEndo)
	if err != nil {
		t.Fatal(err)
	}
	if cert3.Class != qc.ClassLinear {
		t.Errorf("chain classified %v, want linear", cert3.Class)
	}
}

func TestCauseProgram(t *testing.T) {
	db := qc.NewDatabase()
	db.MustAdd("R", true, "a", "b")
	db.MustAdd("S", true, "b")
	q, _ := qc.ParseQuery("q :- R(x,y), S(y)")
	prog, err := qc.CauseProgram(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.String(), "C_R") || !strings.Contains(prog.String(), "C_S") {
		t.Errorf("program missing cause predicates:\n%s", prog)
	}
}

func TestAnswersPublicAPI(t *testing.T) {
	db := qc.NewDatabase()
	db.MustAdd("R", true, "a", "b")
	db.MustAdd("S", true, "b")
	q, _ := qc.ParseQuery("q(x) :- R(x,y), S(y)")
	ans, err := qc.Answers(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || ans[0].Values[0] != "a" {
		t.Fatalf("answers = %v", ans)
	}
}

func TestErrorsSurface(t *testing.T) {
	db := qc.NewDatabase()
	db.MustAdd("R", true, "a")
	q, _ := qc.ParseQuery("q(x) :- R(x)")
	ctx := context.Background()
	sess := openLocal(t, db)
	if _, err := sess.WhySo(ctx, q); err == nil {
		t.Error("missing answer for non-Boolean query should fail")
	}
	if _, err := sess.WhySo(ctx, q, "a", "b"); err == nil {
		t.Error("answer arity mismatch should fail")
	}
	// Why-No requires the query to be false on the real (exogenous)
	// database: an exogenous R(a) makes q('a') an actual answer.
	db2 := qc.NewDatabase()
	db2.MustAdd("R", false, "a")
	db2.MustAdd("R", true, "b")
	if _, err := openLocal(t, db2).WhyNo(ctx, q, "a"); err == nil {
		t.Error("Why-No on an actual answer should fail")
	}
}
