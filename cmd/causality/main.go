// Command causality explains answers and non-answers of conjunctive
// queries: it loads a database (one tuple per line, "+R(a,b)"
// endogenous / "-R(a,b)" exogenous), a query, and an answer tuple, and
// prints the actual causes ranked by responsibility (Meliou et al.,
// VLDB 2010).
//
// It is written against the Session interface, so the same code path
// explains in-process (the default) or against a remote querycaused
// server (-server URL) — identical output either way.
//
// Usage:
//
//	causality -db instance.txt -query "q(x) :- R(x,y), S(y)" -answer a4
//	causality -db instance.txt -query "q(x) :- R(x,y), S(y)" -answer a7 -why no
//	causality -db instance.txt -query "q :- R(x,y), S(y)" -classify
//	causality -db instance.txt -query "..." -answer a4 -server http://localhost:8347
//
// Flags:
//
//	-db FILE      database file (required)
//	-query Q      conjunctive query (required)
//	-answer VALS  comma-separated answer tuple (required unless Boolean)
//	-why so|no    explain an answer (default) or a non-answer
//	-mode auto|exact|paper
//	              responsibility strategy (default auto)
//	-parallel N   worker count for ranking causes (0 = GOMAXPROCS,
//	              1 = serial)
//	-server URL   explain through a querycaused server instead of
//	              in-process
//	-stream       print explanations as they are computed (RankStream)
//	              instead of the final table
//	-classify     print the dichotomy classification and exit
//	-lineage      also print the minimal endogenous lineage
//	-program      also print the Theorem 3.4 Datalog¬ cause program
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	qc "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/core"
)

func main() {
	var (
		dbPath   = flag.String("db", "", "database file (+R(a,b) endogenous, -R(a,b) exogenous)")
		queryStr = flag.String("query", "", "conjunctive query, e.g. \"q(x) :- R(x,y), S(y)\"")
		answer   = flag.String("answer", "", "comma-separated answer tuple values")
		why      = flag.String("why", "so", "so (explain answer) or no (explain non-answer)")
		mode     = flag.String("mode", "auto", "responsibility mode: auto, exact, paper")
		parallel = flag.Int("parallel", 0, "worker count for ranking causes (0 = GOMAXPROCS, 1 = serial)")
		server   = flag.String("server", "", "querycaused base URL; empty = explain in-process")
		stream   = flag.Bool("stream", false, "print explanations as they complete instead of the final table")
		classify = flag.Bool("classify", false, "print the dichotomy classification and exit")
		lineage  = flag.Bool("lineage", false, "print the minimal endogenous lineage")
		program  = flag.Bool("program", false, "print the Theorem 3.4 cause program")
	)
	flag.Parse()
	if err := run(*dbPath, *queryStr, *answer, *why, *mode, *parallel, *server, *stream, *classify, *lineage, *program); err != nil {
		fmt.Fprintln(os.Stderr, "causality:", err)
		os.Exit(1)
	}
}

func run(dbPath, queryStr, answer, why, modeStr string, parallel int, serverURL string, stream, classify, printLineage, printProgram bool) error {
	ctx := context.Background()
	if queryStr == "" {
		return fmt.Errorf("-query is required")
	}
	q, err := qc.ParseQuery(queryStr)
	if err != nil {
		return err
	}

	if classify {
		endo := func(string) bool { return true }
		paper, err := qc.Classify(q, endo)
		if err != nil {
			return err
		}
		sound, err := qc.ClassifySound(q, endo)
		if err != nil {
			return err
		}
		fmt.Printf("query:       %v\n", q)
		fmt.Printf("paper rule:  %v\n", paper.Class)
		fmt.Printf("sound rule:  %v\n", sound.Class)
		if sound.Class.PTime() {
			fmt.Printf("linear atom order: %v\n", sound.LinearOrder)
		}
		if paper.Class == qc.ClassNPHard {
			fmt.Printf("reduces to:  %s\n", paper.Hard)
		}
		return nil
	}

	if dbPath == "" {
		return fmt.Errorf("-db is required")
	}
	f, err := os.Open(dbPath)
	if err != nil {
		return err
	}
	defer f.Close()
	db, err := qc.ParseDatabase(f)
	if err != nil {
		return err
	}

	var answerVals []qc.Value
	if answer != "" {
		for _, s := range strings.Split(answer, ",") {
			answerVals = append(answerVals, qc.Value(strings.TrimSpace(s)))
		}
	}

	var m qc.Mode
	switch modeStr {
	case "auto":
		m = qc.ModeAuto
	case "exact":
		m = qc.ModeExact
	case "paper":
		m = qc.ModePaper
	default:
		return fmt.Errorf("unknown mode %q", modeStr)
	}
	whyNo := false
	switch why {
	case "so":
	case "no":
		whyNo = true
	default:
		return fmt.Errorf("-why must be 'so' or 'no'")
	}

	// One session abstracts both transports; everything below is
	// transport-agnostic.
	opts := []qc.Option{qc.WithMode(m), qc.WithParallelism(parallel)}
	var sess qc.Session
	if serverURL != "" {
		sess, err = qc.Dial(ctx, serverURL, db, opts...)
	} else {
		sess, err = qc.Open(db, opts...)
	}
	if err != nil {
		return err
	}
	defer sess.Close()

	var r qc.Ranking
	if whyNo {
		r, err = sess.WhyNo(ctx, q, answerVals...)
	} else {
		r, err = sess.WhySo(ctx, q, answerVals...)
	}
	if err != nil {
		return err
	}

	// Lineage and cause-program are display-only derivations of the
	// local database; they print the same regardless of transport.
	if printLineage || printProgram {
		eng, err := core.NewRequestEngine(db, core.BatchRequest{Query: q, Answer: answerVals, WhyNo: whyNo})
		if err != nil {
			return err
		}
		if printLineage {
			fmt.Printf("minimal n-lineage: %v\n", eng.NLineage())
		}
		if printProgram {
			prog, err := qc.CauseProgram(db, eng.Query())
			if err != nil {
				return err
			}
			fmt.Printf("cause program (Theorem 3.4):\n%s\n", prog)
		}
	}

	causes, err := r.Causes(ctx)
	if err != nil {
		return err
	}
	if len(causes) == 0 {
		fmt.Println("no actual causes (the answer either does not hold, or holds on exogenous tuples alone)")
		return nil
	}
	verb := "remove"
	if whyNo {
		verb = "insert"
	}

	if stream {
		fmt.Printf("%d actual cause(s), streaming as computed:\n", len(causes))
		for e, serr := range r.RankStream(ctx) {
			if serr != nil {
				return serr
			}
			fmt.Printf("  ρ=%-7.3f %s", e.Rho, db.Render(e.Tuple))
			if len(e.Contingency) > 0 {
				fmt.Printf("  Γ: %s {%s}", verb, tupleList(db, e.Contingency))
			}
			fmt.Println()
		}
		return nil
	}

	ranked, err := r.Rank(ctx)
	if err != nil {
		return err
	}
	byTuple := make(map[qc.TupleID]qc.Explanation, len(ranked))
	for _, e := range ranked {
		byTuple[e.Tuple] = e
	}
	fmt.Printf("%d actual cause(s):\n", len(causes))
	fmt.Printf("  %-7s %-12s %-16s %s\n", "ρ_t", "|Γ| min", "method", "tuple")
	for _, c := range causes {
		e := byTuple[c]
		fmt.Printf("  %-7.3f %-12d %-16v %s\n", e.Rho, e.ContingencySize, e.Method, db.Render(e.Tuple))
		if len(e.Contingency) > 0 {
			fmt.Printf("          Γ: %s {%s}\n", verb, tupleList(db, e.Contingency))
		}
	}
	return nil
}

func tupleList(db *qc.Database, ids []qc.TupleID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = db.Render(id)
	}
	return strings.Join(parts, ", ")
}
