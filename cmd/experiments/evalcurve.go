// The evalcurve experiment: data-plane cost by database size, naive vs
// planned. For each size it generates a synthetic IMDB instance, binds
// the Fig. 1 genre query to the Musical answer, and times
//
//   - evaluation (all valuations of the bound query): rel.EvalNaive vs
//     the planned streaming pipeline (internal/ra), cold (the first
//     evaluation builds the code indexes its joins probe) and warm (a
//     second evaluation probes them as built);
//   - lineage build (the minimal endogenous lineage Φⁿ):
//     lineage.NLineageOfNaive (two passes: enumerate, then substitute)
//     vs lineage.NLineageOf (conjuncts captured during evaluation);
//   - the full cold explain end-to-end: engine construction + cause
//     set on the planned data plane.
//
// After the timings, each size runs a mutate-then-evaluate agreement
// check: random deletes and inserts across the query's relations, with
// the planned pipeline (over indexes maintained in place) required to
// equal the naive evaluator as a multiset, and a fresh clone (indexes
// rebuilt) valuation for valuation, after every batch.
//
// The default sizes put ≈10k, ≈100k and ≈1M tuples on the curve
// (-eval-sizes overrides with director counts, e.g. for CI smoke runs).
// Results go to -eval-out (BENCH_eval.json); like exactcurve, the
// experiment writes a file and is therefore excluded from -run all.

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/imdb"
	"github.com/querycause/querycause/internal/lineage"
	"github.com/querycause/querycause/internal/ra"
	"github.com/querycause/querycause/internal/rel"
)

var (
	evalOut   = flag.String("eval-out", "BENCH_eval.json", "output path for the evalcurve baseline")
	evalSizes = flag.String("eval-sizes", "1000,10300,103000", "comma-separated director counts for -run evalcurve (defaults span ≈10k/100k/1M tuples)")
)

type evalPoint struct {
	Directors        int     `json:"directors"`
	Tuples           int     `json:"tuples"`
	IngestMs         float64 `json:"ingest_ms"`
	Valuations       int     `json:"valuations"`
	Causes           int     `json:"causes"`
	EvalNaiveMs      float64 `json:"eval_naive_ms"`
	EvalPlannedMs    float64 `json:"eval_planned_ms"`
	EvalWarmMs       float64 `json:"eval_warm_ms"`
	LineageNaiveMs   float64 `json:"lineage_naive_ms"`
	LineagePlannedMs float64 `json:"lineage_planned_ms"`
	ExplainColdMs    float64 `json:"explain_cold_ms"`
}

type evalReport struct {
	Bench  string      `json:"bench"`
	GOOS   string      `json:"goos"`
	GOARCH string      `json:"goarch"`
	CPUs   int         `json:"cpus"`
	Query  string      `json:"query"`
	Points []evalPoint `json:"points"`
	Note   string      `json:"note"`
}

// evalCurve runs the size curve and writes the BENCH_eval.json
// baseline.
func evalCurve() {
	header("Evaluation curve: naive vs planned data plane by database size")
	var sizes []int
	for _, s := range strings.Split(*evalSizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			log.Fatalf("evalcurve: bad -eval-sizes entry %q", s)
		}
		sizes = append(sizes, n)
	}
	rep := evalReport{
		Bench:  "eval",
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
		Query:  imdb.GenreQuery().String(),
		Note:   "genre query bound to the Musical answer on synthetic IMDB (BurtonShare=0.02); eval = all valuations (planned: first evaluation, which builds the probed code indexes; warm: a second evaluation over them), lineage = minimal endogenous DNF, explain_cold = engine construction + cause set on the planned plane; timings are single runs; recorded by go run ./cmd/experiments -run evalcurve",
	}
	fmt.Printf("%-10s %-10s %-9s %-12s %-12s %-10s %-14s %-15s %-13s\n",
		"directors", "tuples", "ingest", "eval naive", "eval planned", "eval warm", "lineage naive", "lineage planned", "explain cold")
	for _, nd := range sizes {
		pt := evalPoint{Directors: nd}
		start := time.Now()
		db := imdb.Synthetic(imdb.Config{Seed: 7, Directors: nd, BurtonShare: 0.02})
		pt.IngestMs = ms(time.Since(start))
		pt.Tuples = db.NumTuples()

		bq, err := imdb.GenreQuery().Bind("Musical")
		if err != nil {
			log.Fatal(err)
		}

		start = time.Now()
		naiveVals, err := rel.EvalNaive(db, bq)
		if err != nil {
			log.Fatal(err)
		}
		pt.EvalNaiveMs = ms(time.Since(start))

		// A fresh clone evaluates cold: the naive run above already paid
		// for the code indexes on db, and the planned pipeline must not
		// inherit them.
		dbP := imdb.Synthetic(imdb.Config{Seed: 7, Directors: nd, BurtonShare: 0.02})
		start = time.Now()
		plannedVals, err := ra.Valuations(dbP, bq)
		if err != nil {
			log.Fatal(err)
		}
		pt.EvalPlannedMs = ms(time.Since(start))
		if len(naiveVals) != len(plannedVals) {
			log.Fatalf("evalcurve: naive found %d valuations, planned %d", len(naiveVals), len(plannedVals))
		}
		pt.Valuations = len(plannedVals)
		start = time.Now()
		warmVals, err := ra.Valuations(dbP, bq)
		if err != nil {
			log.Fatal(err)
		}
		pt.EvalWarmMs = ms(time.Since(start))
		if len(warmVals) != len(plannedVals) {
			log.Fatalf("evalcurve: warm evaluation found %d valuations, cold %d", len(warmVals), len(plannedVals))
		}

		dbN := imdb.Synthetic(imdb.Config{Seed: 7, Directors: nd, BurtonShare: 0.02})
		start = time.Now()
		nlNaive, err := lineage.NLineageOfNaive(dbN, bq)
		if err != nil {
			log.Fatal(err)
		}
		pt.LineageNaiveMs = ms(time.Since(start))

		dbL := imdb.Synthetic(imdb.Config{Seed: 7, Directors: nd, BurtonShare: 0.02})
		start = time.Now()
		nlPlanned, err := lineage.NLineageOf(dbL, bq)
		if err != nil {
			log.Fatal(err)
		}
		pt.LineagePlannedMs = ms(time.Since(start))
		if nlNaive.String() != nlPlanned.String() {
			log.Fatalf("evalcurve: naive and planned lineages differ at %d directors", nd)
		}

		dbE := imdb.Synthetic(imdb.Config{Seed: 7, Directors: nd, BurtonShare: 0.02})
		start = time.Now()
		eng, err := core.NewWhySo(dbE, imdb.GenreQuery(), "Musical")
		if err != nil {
			log.Fatal(err)
		}
		causes := eng.Causes()
		pt.ExplainColdMs = ms(time.Since(start))
		pt.Causes = len(causes)

		fmt.Printf("%-10d %-10d %-9s %-12s %-12s %-10s %-14s %-15s %-13s\n",
			pt.Directors, pt.Tuples, fmtMs(pt.IngestMs), fmtMs(pt.EvalNaiveMs), fmtMs(pt.EvalPlannedMs),
			fmtMs(pt.EvalWarmMs), fmtMs(pt.LineageNaiveMs), fmtMs(pt.LineagePlannedMs), fmtMs(pt.ExplainColdMs))
		rep.Points = append(rep.Points, pt)
		mutateAgreement(dbP, bq, int64(nd))
	}
	fmt.Println("evalcurve: planned = naive after every mutation batch at every size")
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*evalOut, append(raw, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evalcurve: baseline written to %s\n", *evalOut)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func fmtMs(v float64) string { return fmt.Sprintf("%.1fms", v) }

// mutateAgreement mutates db, whose probed code indexes are built, in
// batches of random deletes and inserts across the query's relations —
// half the deletes hit a witness of the answer's last valuations,
// deleted tuples are re-inserted later, and Genre gains Musical labels
// — and after each batch requires the planned evaluation to equal the
// naive one as a multiset and the planned evaluation of a fresh clone
// valuation for valuation. It exits the experiment on a mismatch.
func mutateAgreement(db *rel.Database, bq *rel.Query, seed int64) {
	const batches, perBatch = 4, 25
	rng := rand.New(rand.NewSource(seed))
	type spec struct {
		rel  string
		endo bool
		args []rel.Value
	}
	var deleted []spec
	var codes []uint32
	planned, err := ra.Valuations(db, bq)
	if err != nil {
		log.Fatal(err)
	}
	for b := 0; b < batches; b++ {
		for m := 0; m < perBatch; m++ {
			atom := bq.Atoms[rng.Intn(len(bq.Atoms))]
			r := db.Relation(atom.Pred)
			switch op := rng.Intn(3); {
			case op == 0 && len(deleted) > 0:
				k := rng.Intn(len(deleted))
				d := deleted[k]
				deleted = append(deleted[:k], deleted[k+1:]...)
				db.MustAdd(d.rel, d.endo, d.args...)
			case op == 1:
				mid := db.Dict().Value(db.Relation("Movie").Col(0)[rng.Intn(db.Relation("Movie").Len())])
				db.MustAdd("Genre", false, mid, "Musical")
			case r.Len() > 0:
				id := r.RowID(rng.Intn(r.Len()))
				if len(planned) > 0 && rng.Intn(2) == 0 {
					if w := planned[rng.Intn(len(planned))].Witness[rng.Intn(len(bq.Atoms))]; db.Live(w) {
						id = w
					}
				}
				d := spec{rel: db.RelName(id), endo: db.Endo(id)}
				codes = db.AppendCodes(codes[:0], id)
				for _, c := range codes {
					d.args = append(d.args, db.Dict().Value(c))
				}
				if err := db.Delete(id); err != nil {
					log.Fatal(err)
				}
				deleted = append(deleted, d)
			}
		}
		planned, err = ra.Valuations(db, bq)
		if err != nil {
			log.Fatal(err)
		}
		naive, err := rel.EvalNaive(db, bq)
		if err != nil {
			log.Fatal(err)
		}
		fresh, err := ra.Valuations(db.Clone(), bq)
		if err != nil {
			log.Fatal(err)
		}
		if !sameValuations(planned, fresh, false) {
			log.Fatalf("evalcurve: after %d mutations the maintained indexes and fresh ones evaluate differently", (b+1)*perBatch)
		}
		if !sameValuations(planned, naive, true) {
			log.Fatalf("evalcurve: after %d mutations planned found %d valuations, naive %d (or different ones)", (b+1)*perBatch, len(planned), len(naive))
		}
	}
}

// sameValuations compares two valuation lists by witness list, in
// order or, when asMultiset, after sorting.
func sameValuations(a, b []rel.Valuation, asMultiset bool) bool {
	keys := func(vals []rel.Valuation) []string {
		out := make([]string, len(vals))
		for i, v := range vals {
			out[i] = fmt.Sprint(v.Witness)
		}
		if asMultiset {
			sort.Strings(out)
		}
		return out
	}
	ka, kb := keys(a), keys(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
