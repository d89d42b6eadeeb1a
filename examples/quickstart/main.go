// Quickstart: the paper's Example 2.2 end to end — build a database,
// mark tuples endogenous, run a query, and rank the causes of an answer
// by responsibility, through the Session API (Open). Swapping
// qc.Open(db) for qc.Dial(ctx, url, db) runs the identical code
// against a querycaused server.
//
// It imports the module root, github.com/querycause/querycause. Run
// from the repository root with:
//
//	go run ./examples/quickstart
//
// See examples/stream for streamed rankings and doc.go for the full
// Session story (options, error taxonomy, batching).
package main

import (
	"context"
	"fmt"
	"log"

	qc "github.com/querycause/querycause"
)

func main() {
	ctx := context.Background()

	// The instance of Example 2.2: R = {(a1,a5),(a2,a1),(a3,a3),(a4,a3),
	// (a4,a2)}, S = {a1,…,a4,a6}, all tuples endogenous.
	db := qc.NewDatabase()
	for _, row := range [][2]qc.Value{
		{"a1", "a5"}, {"a2", "a1"}, {"a3", "a3"}, {"a4", "a3"}, {"a4", "a2"},
	} {
		db.MustAdd("R", true, row[0], row[1])
	}
	for _, v := range []qc.Value{"a1", "a2", "a3", "a4", "a6"} {
		db.MustAdd("S", true, v)
	}

	q, err := qc.ParseQuery("q(x) :- R(x,y), S(y)")
	if err != nil {
		log.Fatal(err)
	}

	// All answers, with their lineage sizes.
	answers, err := qc.Answers(db, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("answers of q(x) :- R(x,y), S(y):")
	for _, a := range answers {
		fmt.Printf("  %v (%d valuation(s))\n", a.Values, len(a.Valuations))
	}

	// One Session over the database; qc.Dial(ctx, serverURL, db) would
	// serve the same calls over HTTP.
	sess, err := qc.Open(db)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	// Why is a2 an answer? S(a1) is counterfactual (ρ = 1): remove it
	// and the answer disappears.
	explainAnswer(ctx, sess, db, q, "a2")

	// Why is a4 an answer? S(a3) is an actual cause with contingency
	// {S(a2)}: after removing S(a2), removing S(a3) kills the answer.
	explainAnswer(ctx, sess, db, q, "a4")
}

func explainAnswer(ctx context.Context, sess qc.Session, db *qc.Database, q *qc.Query, answer qc.Value) {
	r, err := sess.WhySo(ctx, q, answer)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nWhy is %s an answer?\n", answer)
	ranked, err := r.Rank(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range ranked {
		fmt.Printf("  ρ=%.2f  %s", e.Rho, db.Render(e.Tuple))
		if len(e.Contingency) > 0 {
			fmt.Print("  — counterfactual after removing ")
			for i, id := range e.Contingency {
				if i > 0 {
					fmt.Print(", ")
				}
				fmt.Print(db.Render(id))
			}
		} else {
			fmt.Print("  — counterfactual as-is")
		}
		fmt.Println()
	}
}
