// IMDB example: the paper's running example (Figures 1 and 2). Why does
// the genre query on Burton movies return the surprising answer
// "Musical"? The ranking reproduces Fig. 2b: Sweeney Todd and the three
// Burton directors lead with ρ = 1/3 — revealing both Tim Burton's one
// musical and the ambiguity of "Burton".
//
// It imports the module root, github.com/querycause/querycause. Run
// from the repository root with:
//
//	go run ./examples/imdb
//
// Explanation goes through the Session API (Open); qc.Dial would run
// the identical code against a querycaused server.
package main

import (
	"context"
	"fmt"
	"log"

	qc "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/imdb"
)

func main() {
	ctx := context.Background()
	// The exact Fig. 2a micro-instance (Director and Movie endogenous,
	// MovieDirectors and Genre exogenous).
	db, _ := imdb.Micro()
	q := imdb.GenreQuery()
	fmt.Printf("query: %v\n\n", q)

	sess, err := qc.Open(db)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	r, err := sess.WhySo(ctx, q, "Musical")
	if err != nil {
		log.Fatal(err)
	}
	ranked, err := r.Rank(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Why is Musical an answer? causes ranked by responsibility (Fig. 2b):")
	fmt.Print(qc.FormatExplanations(db, ranked))

	bq, err := q.Bind("Musical")
	if err != nil {
		log.Fatal(err)
	}
	cert, err := qc.ClassifySound(bq, func(rel string) bool { return rel == "Director" || rel == "Movie" })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nthe bound query is %v: responsibilities via Algorithm 1 (max-flow)\n", cert.Class)

	// The same on a larger synthetic IMDB: every genre of every Burton.
	syn := imdb.Synthetic(imdb.Config{Seed: 7, Directors: 40})
	answers, err := qc.Answers(syn, q)
	if err != nil {
		log.Fatal(err)
	}
	synSess, err := qc.Open(syn)
	if err != nil {
		log.Fatal(err)
	}
	defer synSess.Close()
	fmt.Printf("\nsynthetic IMDB (%d tuples): top cause per Burton genre\n", syn.NumTuples())
	for _, a := range answers {
		r, err := synSess.WhySo(ctx, q, a.Values[0])
		if err != nil {
			log.Fatal(err)
		}
		ranked, err := r.Rank(ctx)
		if err != nil {
			log.Fatal(err)
		}
		if len(ranked) == 0 {
			continue
		}
		fmt.Printf("  %-12s lineage=%-3d top: ρ=%.2f %s\n",
			a.Values[0], len(a.Valuations), ranked[0].Rho, syn.Render(ranked[0].Tuple))
	}
}
