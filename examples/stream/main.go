// Streaming example: incremental rankings on the NP-hard side of the
// dichotomy. The query below is the canonical hard star h₁* of
// Theorem 4.1 — q :- A(x), B(y), C(z), W(x,y,z) — so every
// non-counterfactual responsibility needs an exact branch-and-bound
// search and a blocking Rank pays for all of them before returning
// anything. RankStream yields each cause's explanation the moment its
// own search finishes: the first line appears after one search, and
// draining the stream and sorting reproduces Rank exactly.
//
// The same loop runs against a querycaused server by replacing
// qc.Open(db) with qc.Dial(ctx, url, db) — the stream then arrives as
// NDJSON over HTTP, one explanation per line.
//
// Run from the repository root with:
//
//	go run ./examples/stream
package main

import (
	"context"
	"fmt"
	"log"

	qc "github.com/querycause/querycause"
)

func main() {
	ctx := context.Background()

	// A small h₁* instance: n values per unary relation, the witnesses
	// W wired so several causes need nontrivial contingencies.
	db := qc.NewDatabase()
	const n = 4
	val := func(i int) qc.Value { return qc.Value(fmt.Sprintf("d%d", i)) }
	for i := 0; i < n; i++ {
		db.MustAdd("A", true, val(i))
		db.MustAdd("B", true, val(i))
		db.MustAdd("C", true, val(i))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			db.MustAdd("W", true, val(i), val(j), val((i+j)%n))
		}
	}
	q, err := qc.ParseQuery("q :- A(x), B(y), C(z), W(x,y,z)")
	if err != nil {
		log.Fatal(err)
	}

	sess, err := qc.Open(db, qc.WithParallelism(2))
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	r, err := sess.WhySo(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	causes, err := r.Causes(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v is NP-hard (h1*): %d causes, one exact search each\n", q, len(causes))
	fmt.Println("streaming explanations as each search completes:")

	var streamed []qc.Explanation
	for e, err := range r.RankStream(ctx) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  ρ=%.2f  min|Γ|=%d  %s\n", e.Rho, e.ContingencySize, db.Render(e.Tuple))
		streamed = append(streamed, e)
	}

	// Drained and sorted, the stream IS the blocking ranking.
	qc.SortExplanations(streamed)
	ranked, err := r.Rank(ctx)
	if err != nil {
		log.Fatal(err)
	}
	same := len(streamed) == len(ranked)
	for i := 0; same && i < len(ranked); i++ {
		same = streamed[i].Tuple == ranked[i].Tuple && streamed[i].Rho == ranked[i].Rho
	}
	fmt.Printf("\ndrained stream == blocking Rank: %v (top: ρ=%.2f %s)\n",
		same, ranked[0].Rho, db.Render(ranked[0].Tuple))
}
