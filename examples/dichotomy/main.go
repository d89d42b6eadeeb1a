// Dichotomy example: classify queries per Corollary 4.14 and show the
// certificates — a weakening sequence plus linear order on the PTIME
// side, a rewrite chain to a canonical hard query on the NP-hard side
// (Examples 4.8 and 4.12 of the paper).
//
// It imports the module root, github.com/querycause/querycause. Run
// from the repository root with:
//
//	go run ./examples/dichotomy
//
// The Session API (Open / Dial, Rank, ExplainAll) and the querycaused
// explanation server build on the same classification; see doc.go
// and cmd/querycaused.
package main

import (
	"fmt"
	"log"

	qc "github.com/querycause/querycause"
)

func main() {
	endoAll := func(string) bool { return true }
	cases := []struct {
		text string
		endo func(string) bool
	}{
		{"q :- R(x,y), S(y,z)", endoAll},
		{"q :- R(x,y), S(y,z), T(z,x)", endoAll},                                 // h2*
		{"q :- R(x,y), S(y,z), T(z,x)", func(r string) bool { return r != "S" }}, // Ex. 4.12a
		{"q :- R(x,y), S(y,z), T(z,u), K(u,x)", endoAll},                         // Ex. 4.8
		{"q :- A(x), B(y), C(z), W(x,y,z)", endoAll},                             // h1*
		{"q :- R(x,y), S(y,z), T(z,x), V(x)", endoAll},                           // Ex. 4.12b
	}
	for _, c := range cases {
		q, err := qc.ParseQuery(c.text)
		if err != nil {
			log.Fatal(err)
		}
		paper, err := qc.Classify(q, c.endo)
		if err != nil {
			log.Fatal(err)
		}
		sound, err := qc.ClassifySound(q, c.endo)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v\n", paper.Input)
		fmt.Printf("  paper rule: %v", paper.Class)
		if paper.Class == qc.ClassNPHard {
			fmt.Printf(" (rewrites to %s in %d step(s))", paper.Hard, len(paper.Rewrites))
			for _, op := range paper.Rewrites {
				fmt.Printf("\n      ⇝ %s", op.Kind)
			}
		}
		if paper.Class.PTime() {
			fmt.Printf(" (%d weakening step(s), linear order %v)", len(paper.Weakening), paper.LinearOrder)
		}
		fmt.Printf("\n  sound rule: %v", sound.Class)
		if paper.Class.PTime() && !sound.Class.PTime() {
			fmt.Printf("  ← paper's certificate uses an unsound domination; the engine uses exact search")
		}
		fmt.Println()
		fmt.Println()
	}
}
