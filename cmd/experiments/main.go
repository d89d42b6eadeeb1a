// Command experiments regenerates every figure, table and construction
// of Meliou et al. (VLDB 2010) from the reproduction library and prints
// them in the paper's layout.
//
// Usage:
//
//	experiments [-run all|fig1|fig2|fig3|fig4|fig6|fig7|fig9|thm415|gap|batch]
//	            [-parallel N]
//	experiments -run load -server http://localhost:8347
//	            [-load-clients N] [-load-requests N]
//	experiments -run exactcurve [-bench-out BENCH_exact.json]
//	experiments -run evalcurve [-eval-out BENCH_eval.json]
//	            [-eval-sizes 1000,10300,103000]
//	experiments -run mutatecurve [-mutate-out BENCH_mutate.json]
//	            [-mutate-sizes 1000,10300,103000]
//	experiments -run deltacurve [-delta-out BENCH_delta.json]
//	            [-delta-sizes 1000,10300,103000] [-delta-muts 4]
//	experiments -run chaoscurve [-chaos-out BENCH_chaos.json]
//	            [-chaos-clients N] [-chaos-requests N] [-chaos-seed S]
//
// The exactcurve experiment regenerates the exact-solver cost curve
// and ablation baseline (see exactcurve.go); evalcurve records the
// naive-vs-planned data-plane size curve (see evalcurve.go);
// mutatecurve records the incremental re-explain vs cold-rebuild
// latency curve over a mutable session (see mutatecurve.go);
// deltacurve records what the delta-maintenance layer saves over
// dropping engines cold, with the fallback rate per point (see
// deltacurve.go). All four write files, so they are excluded from
// -run all.
//
// -parallel sets the worker count used by the ranking experiments
// (0 = GOMAXPROCS, 1 = serial); the output is identical either way.
//
// The load experiment is a server load generator: it uploads the
// workload databases to a running querycaused server and hammers the
// why-so/why-no/batch endpoints from -load-clients concurrent clients
// (see load.go). It is excluded from -run all.
//
// The chaoscurve experiment is the cluster soak: a 3-replica
// consistent-hash ring booted in-process with per-node snapshot
// directories, under dynamic membership — a node joins mid-run,
// another is decommissioned and killed, and a survivor is hard-closed
// and warm-restarted — with every client behind a fault-injecting
// transport, one target that always enters at the wrong node, and live
// watch streams that must fold, across every reconnect, handoff and
// restart, to rankings byte-identical to a cold explain (see
// chaoscurve.go). It writes latency percentiles and the measured
// warm-restart time to -chaos-out, so it is excluded from -run all.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"maps"
	"math/rand"
	"os"
	"slices"
	"strings"

	qc "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/exact"
	"github.com/querycause/querycause/internal/imdb"
	"github.com/querycause/querycause/internal/ra"
	"github.com/querycause/querycause/internal/reductions"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/respflow"
	"github.com/querycause/querycause/internal/rewrite"
	"github.com/querycause/querycause/internal/shape"
)

// parallelism is the -parallel flag: the worker count handed to the
// batch ranking APIs (0 = GOMAXPROCS, 1 = serial).
var parallelism = flag.Int("parallel", 0, "ranking worker count (0 = GOMAXPROCS, 1 = serial)")

// benchOut is where -run exactcurve writes its JSON baseline.
var benchOut = flag.String("bench-out", "BENCH_exact.json", "output path for the exactcurve baseline")

func main() {
	exps := map[string]func(){
		"fig1":        fig1,
		"fig2":        fig2,
		"fig3":        fig3,
		"fig4":        fig4,
		"fig6":        fig6,
		"fig7":        fig7,
		"fig9":        fig9,
		"thm415":      thm415,
		"gap":         gap,
		"batch":       batch,
		"load":        load,
		"exactcurve":  exactCurve,
		"evalcurve":   evalCurve,
		"mutatecurve": mutateCurve,
		"deltacurve":  deltaCurve,
		"chaoscurve":  chaosCurve,
	}
	// load needs a running server, and the curve experiments write
	// bench files, so none of them is part of "all".
	order := []string{"fig1", "fig2", "fig3", "fig4", "fig6", "fig7", "fig9", "thm415", "gap", "batch"}
	names := strings.Join(slices.Sorted(maps.Keys(exps)), " ")
	run := flag.String("run", "all", "experiment to run: all ("+strings.Join(order, " ")+") or one of: "+names)
	flag.Parse()
	if *run == "all" {
		for _, name := range order {
			exps[name]()
		}
		return
	}
	f, ok := exps[*run]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; options: all %s\n", *run, names)
		os.Exit(2)
	}
	f()
}

func header(s string) {
	fmt.Printf("\n==== %s ====\n", s)
}

// shortTuple renders a tuple by its most recognizable column.
func shortTuple(db *rel.Database, id rel.TupleID) string {
	switch db.RelName(id) {
	case "Director", "Movie":
		return string(db.Dict().Value(db.AppendCodes(nil, id)[1]))
	default:
		return db.Render(id)
	}
}

// fig1 reruns the Fig. 1 genre query on a synthetic IMDB.
func fig1() {
	header("Figure 1: genres of movies directed by Burton (synthetic IMDB)")
	db := imdb.Synthetic(imdb.Config{Seed: 42, Directors: 60})
	ans, err := ra.Answers(db, imdb.GenreQuery())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("genre          lineage size")
	for _, a := range ans {
		fmt.Printf("%-14s %d\n", a.Values[0], len(a.Valuations))
	}
}

// fig2 reproduces the Fig. 2b responsibility ranking exactly.
func fig2() {
	header("Figure 2b: causes of the Musical answer, ranked by responsibility")
	db, _ := imdb.Micro()
	ctx := context.Background()
	sess, err := qc.Open(db, qc.WithParallelism(*parallelism))
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	r, err := sess.WhySo(ctx, imdb.GenreQuery(), "Musical")
	if err != nil {
		log.Fatal(err)
	}
	ranked, err := r.Rank(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  ρ_t    answer tuple                                   minimum contingency Γ")
	for _, e := range ranked {
		var parts []string
		for _, id := range e.Contingency {
			parts = append(parts, shortTuple(db, id))
		}
		fmt.Printf("  %.2f   %-45s {%s}\n", e.Rho, db.Render(e.Tuple), strings.Join(parts, ", "))
	}
	fmt.Println("paper: 0.33 Sweeney Todd + the three Burtons; 0.25 the two 1930s")
	fmt.Println("musicals; 0.20 Candide, Flight, Manon Lescaut — reproduced above;")
	fmt.Println("Example 2.4's contingencies (Sweeney Todd: the two other directors;")
	fmt.Println("Manon Lescaut: David, Tim, Flight, Candide) appear in the Γ column.")
}

// fig3 recomputes the complexity table of Fig. 3 from the classifier.
func fig3() {
	header("Figure 3: complexity of causality and responsibility")
	fmt.Println("causality (Theorems 3.2/3.4): PTIME for all conjunctive queries,")
	fmt.Println("Why-So and Why-No; FO-computable (2 strata), CQ under Cor. 3.7.")
	fmt.Println()
	fmt.Println("responsibility (Why-So, per-query dichotomy, Cor. 4.14):")
	type row struct {
		desc string
		s    *shape.Shape
	}
	rows := []row{
		{"Rⁿ(x,y),Sⁿ(y,z)            (chain)", shape.New(shape.A("R", true, 0, 1), shape.A("S", true, 1, 2))},
		{"Aⁿ,S1ⁿ,S2ⁿ,Rⁿ,S3ⁿ,Tⁿ,Bⁿ    (Fig. 5a)", fig5aShape()},
		{"h1* = Aⁿ,Bⁿ,Cⁿ,W(x,y,z)", shape.NewHard(shape.H1)},
		{"h2* = Rⁿ(x,y),Sⁿ(y,z),Tⁿ(z,x)", shape.NewHard(shape.H2)},
		{"h3* = h1* unaries + triangle", shape.NewHard(shape.H3)},
		{"Rⁿ,Sˣ,Tⁿ triangle           (Ex. 4.12a)", shape.New(shape.A("R", true, 0, 1), shape.A("S", false, 1, 2), shape.A("T", true, 2, 0))},
		{"Rⁿ,Sⁿ,Tⁿ,Vⁿ                 (Ex. 4.12b)", shape.New(shape.A("R", true, 0, 1), shape.A("S", true, 1, 2), shape.A("T", true, 2, 0), shape.A("V", true, 0))},
		{"4-cycle R,S,T,K             (Ex. 4.8)", shape.New(shape.A("R", true, 0, 1), shape.A("S", true, 1, 2), shape.A("T", true, 2, 3), shape.A("K", true, 3, 0))},
		{"Rⁿ(x),S(x,y),Rⁿ(y)          (Prop 4.16)", shape.New(shape.A("R", true, 0), shape.A("S", false, 0, 1), shape.A("R", true, 1))},
	}
	fmt.Printf("%-42s %-24s %s\n", "query", "paper rule (Fig. 3)", "sound rule (engine)")
	for _, r := range rows {
		paper, err := rewrite.Classify(r.s)
		if err != nil {
			log.Fatal(err)
		}
		sound, err := rewrite.ClassifySound(r.s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-42s %-24s %s\n", r.desc, paper.Class, sound.Class)
	}
	fmt.Println("responsibility (Why-No): PTIME for every conjunctive query (Thm 4.17).")
}

func fig5aShape() *shape.Shape {
	// A(x),S1(x,v),S2(v,y),R(y,u),S3(y,z),T(z,w),B(z)
	return shape.New(
		shape.A("A", true, 0),
		shape.A("S1", true, 0, 1),
		shape.A("S2", true, 1, 2),
		shape.A("R", true, 2, 3),
		shape.A("S3", true, 2, 4),
		shape.A("T", true, 4, 5),
		shape.A("B", true, 4),
	)
}

// fig4 rebuilds the Fig. 4 flow network and reports its min-cuts.
func fig4() {
	header("Figure 4: flow network for q :- R(x,y), S(y,z)")
	db := rel.NewDatabase()
	t0 := db.MustAdd("R", true, "x1", "y2")
	db.MustAdd("R", true, "x2", "y1")
	db.MustAdd("R", true, "x3", "y1")
	db.MustAdd("S", true, "y2", "z1")
	db.MustAdd("S", true, "y2", "z2")
	db.MustAdd("S", true, "y1", "z1")
	q := rel.NewBoolean(rel.NewAtom("R", rel.V("x"), rel.V("y")), rel.NewAtom("S", rel.V("y"), rel.V("z")))
	s := shape.FromQuery(q, func(string) bool { return true })
	order, _ := s.LinearOrder()
	net, err := respflow.Build(db, q, s, order)
	if err != nil {
		log.Fatal(err)
	}
	v, e := net.Stats()
	fmt.Printf("network: %d vertices, %d tuple edges\n", v, e)
	size, ok := net.MinContingency(t0)
	fmt.Printf("t = R(x1,y2): min contingency %d (ok=%v) → ρ = 1/%d\n", size, ok, size+1)
	bf, _, err := exact.MinContingencyDB(db, q, t0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact search agrees: %d\n", bf)
}

// fig6 replays the h₁* hardness reduction on the exact Fig. 6 instance.
func fig6() {
	header("Figure 6: 3-partite hypergraph vertex cover → h1* responsibility")
	h := &reductions.Hypergraph3{NA: 3, NB: 3, NC: 2}
	h.AddTriple(0, 0, 1)
	h.AddTriple(0, 1, 0)
	h.AddTriple(1, 0, 0)
	h.AddTriple(2, 2, 1)
	cover := h.MinVertexCover()
	inst := reductions.H1FromHypergraph(h, false)
	size, ok, err := exact.MinContingencyDB(inst.DB, inst.Q, inst.Target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("min vertex cover = %d; min contingency of r0 = %d (ok=%v); ρ(r0) = 1/%d\n",
		cover, size, ok, size+1)
	fmt.Println("the two quantities coincide on every instance (see tests for the fuzzed check).")
}

// fig7 demonstrates the 3SAT ring reduction (Lemmas C.1–C.3).
func fig7() {
	header("Figures 7/8: 3SAT local rings → h2* responsibility")
	sat := reductions.Formula{NumVars: 3, Clauses: []reductions.Clause{
		{{Var: 0}, {Var: 1, Neg: true}, {Var: 2}},
	}}
	unsat := reductions.Formula{NumVars: 3}
	for mask := 0; mask < 8; mask++ {
		unsat.Clauses = append(unsat.Clauses, reductions.Clause{
			{Var: 0, Neg: mask&1 != 0},
			{Var: 1, Neg: mask&2 != 0},
			{Var: 2, Neg: mask&4 != 0},
		})
	}
	for _, f := range []struct {
		name string
		f    reductions.Formula
	}{{"satisfiable (x ∨ ¬y ∨ z)", sat}, {"unsatisfiable (all 8 sign patterns)", unsat}} {
		inst, err := reductions.BuildRings(f.f)
		if err != nil {
			log.Fatal(err)
		}
		dec, err := inst.SatisfiableViaRings(f.f.NumVars)
		if err != nil {
			log.Fatal(err)
		}
		want, _ := f.f.Satisfiable()
		fmt.Printf("%-38s Σmᵢ=%-4d contingency of size Σmᵢ exists: %v (SAT: %v)\n",
			f.name, inst.SumMi, dec, want)
	}
}

// fig9 demonstrates the h₂*→h₃* transform.
func fig9() {
	header("Figure 9: h2* instance → h3* instance, responsibilities preserved")
	fmt.Printf("%-16s %-10s %-10s\n", "h2 tuple", "ρ in h2", "ρ of image in h3")
	for _, r := range fig9Rows() {
		fmt.Printf("%-16s %-10s %-10s\n", r.tuple, r.rho2, r.rho3)
	}
}

// fig9Row is one h2* tuple with its responsibility and that of its h3*
// image.
type fig9Row struct {
	id         rel.TupleID
	tuple      string
	rho2, rho3 string
}

// fig9Rows maps the Fig. 9 h2* instance to h3* and returns one row per
// h2* tuple, in ascending tuple id.
func fig9Rows() []fig9Row {
	db := rel.NewDatabase()
	rows := map[string][][2]rel.Value{
		"R": {{"1", "1"}, {"1", "2"}},
		"S": {{"1", "1"}, {"1", "2"}, {"2", "1"}},
		"T": {{"1", "1"}, {"2", "1"}, {"1", "2"}},
	}
	for _, name := range []string{"R", "S", "T"} {
		for _, r := range rows[name] {
			db.MustAdd(name, true, r[0], r[1])
		}
	}
	db3, mapping, err := reductions.H2ToH3(db)
	if err != nil {
		log.Fatal(err)
	}
	var out []fig9Row
	for _, old := range slices.Sorted(maps.Keys(mapping)) {
		s2, ok2, _ := exact.MinContingencyDB(db, reductions.H2Query(), old)
		s3, ok3, _ := exact.MinContingencyDB(db3, reductions.H3Query(), mapping[old])
		r := fig9Row{id: old, tuple: db.Render(old), rho2: "0", rho3: "0"}
		if ok2 {
			r.rho2 = fmt.Sprintf("1/%d", s2+1)
		}
		if ok3 {
			r.rho3 = fmt.Sprintf("1/%d", s3+1)
		}
		out = append(out, r)
	}
	return out
}

// thm415 runs the LOGSPACE chain.
func thm415() {
	header("Theorem 4.15: UGAP → BGAP → FPMF → responsibility of the probe tuple")
	rng := rand.New(rand.NewSource(5))
	fmt.Printf("%-8s %-7s %-7s %-9s %-12s\n", "graph", "path?", "BGAP", "max-flow", "contingency")
	for trial := 0; trial < 5; trial++ {
		g := reductions.RandomGraph(rng, 7, 0.25)
		a, b := 0, 6
		path := g.HasPath(a, b)
		bg := reductions.UGAPToBGAP(g, a, b)
		f := reductions.BGAPToFPMF(bg)
		flowVal := f.MaxFlow()
		chain := reductions.FPMFToChain(f)
		eng, err := core.NewWhySo(chain.DB, chain.Q)
		if err != nil {
			log.Fatal(err)
		}
		ex, err := eng.Responsibility(chain.Target, core.ModeAuto)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("#%-7d %-7v %-7v |E|%+d      %d\n",
			trial, path, bg.HasPath(), flowVal-int64(len(bg.Edges)), ex.ContingencySize)
	}
	fmt.Println("path exists  ⟺  flow = |E|+1  ⟺  min contingency = |E|+1.")
}

// batch demonstrates the concurrent batch engine: every answer of the
// genre query on a synthetic IMDB explained in one ExplainAll call,
// fanned out across -parallel workers. The rankings are byte-identical
// to the serial per-answer path for any worker count.
func batch() {
	header("Batch: all genre answers explained in one ExplainAll call")
	db := imdb.Synthetic(imdb.Config{Seed: 42, Directors: 60})
	q := imdb.GenreQuery()
	ans, err := ra.Answers(db, q)
	if err != nil {
		log.Fatal(err)
	}
	reqs := make([]qc.BatchRequest, len(ans))
	for i, a := range ans {
		reqs[i] = qc.BatchRequest{Query: q, Answer: a.Values}
	}
	sess, err := qc.Open(db, qc.WithParallelism(*parallelism))
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	results, err := sess.ExplainAll(context.Background(), reqs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s %-8s %-8s %s\n", "genre", "causes", "top ρ", "top cause")
	for _, r := range results {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		top := r.Explanations[0]
		fmt.Printf("%-14s %-8d %-8.3f %s\n", r.Request.Answer[0], len(r.Explanations), top.Rho, shortTuple(db, top.Tuple))
	}
}

// gap prints the two reproduction findings.
func gap() {
	header("Reproduction findings (see the fidelity notes in doc.go)")
	// Finding 1: domination unsoundness (Example 4.12b).
	db := rel.NewDatabase()
	db.MustAdd("V", true, "a")
	db.MustAdd("R", true, "a", "b0")
	db.MustAdd("R", true, "a", "b1")
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
	eng, err := core.NewWhySo(db, q)
	if err != nil {
		log.Fatal(err)
	}
	exv, _ := eng.Responsibility(sb0, core.ModeExact)
	pv, _ := eng.Responsibility(sb0, core.ModePaper)
	fmt.Println("1. Example 4.12b query Rⁿ,Sⁿ,Tⁿ,Vⁿ on a 9-tuple instance:")
	fmt.Printf("   Definition 2.3 (exact): ρ = %.3f; paper's weakening + Algorithm 1: ρ = %.3f\n", exv.Rho, pv.Rho)
	fmt.Println("   (the paper's dominate-R-and-T weakening yields 1/3; Definition 4.9's")
	fmt.Println("   domination is not responsibility-preserving — the engine's sound rule")
	fmt.Println("   requires dominators to cover every variable of the dominated atom.)")
	// Finding 2: dichotomy gap for disconnected queries.
	s := shape.New(
		shape.A("P", true, 1),
		shape.A("Q", true, 0, 3),
		shape.A("R", true, 0, 2),
		shape.A("S", true, 2, 3),
	)
	cert, err := rewrite.Classify(s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("2. Pⁿ(y) + triangle Qⁿ,Rⁿ,Sⁿ (disconnected):")
	fmt.Printf("   classification: %v — neither weakly linear nor rewritable to h1/h2/h3;\n", cert.Class)
	fmt.Println("   Theorem 4.13 implicitly assumes connected queries. The engine uses")
	fmt.Println("   exact search for such queries (they are NP-hard: a single P-tuple")
	fmt.Println("   embeds the h2* hitting-set problem).")
}
