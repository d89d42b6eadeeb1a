// Why-Not example: explaining a NON-answer (Section 2, Why-No
// causality; Theorem 4.17). The real database is exogenous; candidate
// missing tuples are endogenous; causes are the insertions that would
// produce the missing answer, ranked by how few companions they need.
//
// It imports the module root, github.com/querycause/querycause. Run
// from the repository root with:
//
//	go run ./examples/whynot
//
// Explanation goes through the Session API (Open); qc.Dial would run
// the identical code against a querycaused server. Invalid Why-No
// instances fail with qc.ErrInvalidWhyNo on either transport.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	qc "github.com/querycause/querycause"
)

const realDB = `
# Real database (exogenous): courses taken by students.
-Took(alice, databases)
-Took(alice, algorithms)
-Took(bob, databases)
# Honors requirements met (exogenous).
-Honors(algorithms)
-Honors(theory)
`

func main() {
	db, err := qc.ParseDatabase(strings.NewReader(realDB))
	if err != nil {
		log.Fatal(err)
	}
	// Why is bob NOT on the dean's list? The query needs an honors
	// course taken by the student.
	q, err := qc.ParseQuery("deans(s) :- Took(s, c), Honors(c)")
	if err != nil {
		log.Fatal(err)
	}

	// Candidate missing tuples Dⁿ (in a real system these come from
	// provenance of non-answers; here we enumerate plausible ones).
	db.MustAdd("Took", true, "bob", "algorithms")
	db.MustAdd("Took", true, "bob", "theory")
	db.MustAdd("Honors", true, "databases")
	// A pair that only works together: logic is not an honors course
	// yet, and bob has not taken it.
	db.MustAdd("Took", true, "bob", "logic")
	db.MustAdd("Honors", true, "logic")

	ctx := context.Background()
	sess, err := qc.Open(db)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	r, err := sess.WhyNo(ctx, q, "bob")
	if err != nil {
		log.Fatal(err)
	}
	ranked, err := r.Rank(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Why is bob NOT on the dean's list?")
	fmt.Println("candidate insertions ranked by responsibility:")
	for _, e := range ranked {
		fmt.Printf("  ρ=%.2f  insert %s (needs %d companion insertion(s))\n",
			e.Rho, db.Render(e.Tuple), e.ContingencySize)
	}
	// Took(bob, algorithms), Took(bob, theory) and Honors(databases) are
	// counterfactual (ρ=1): each alone creates the answer. Took(bob,
	// logic) and Honors(logic) carry ρ=1/2: each needs the other as a
	// companion insertion (Theorem 4.17: Why-No contingencies never
	// exceed m-1 tuples, so ranking is polynomial).
}
