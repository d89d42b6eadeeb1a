// Benchmark harness: one benchmark per experiment index (E1–E17),
// regenerating the computational content
// of every figure, table, and construction in the paper. Run with
//
//	go test -bench=. -benchmem
//
// Absolute numbers are machine-dependent; what must hold are the
// shapes (e.g. polynomial flow vs exponential exact search, and the
// PTIME/NP-hard split of Fig. 3). BENCH_parallel.json records a
// baseline for the E18/E19 rows.
package querycause_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	qc "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/exact"
	"github.com/querycause/querycause/internal/imdb"
	"github.com/querycause/querycause/internal/lineage"
	"github.com/querycause/querycause/internal/ra"
	"github.com/querycause/querycause/internal/reductions"
	"github.com/querycause/querycause/internal/rewrite"
	"github.com/querycause/querycause/internal/shape"
	"github.com/querycause/querycause/internal/whyno"
	"github.com/querycause/querycause/internal/workload"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// BenchmarkE2_Fig2IMDBRanking ranks the causes of the Musical answer:
// the exact Fig. 2 micro-instance and synthetic IMDBs of growing size.
func BenchmarkE2_Fig2IMDBRanking(b *testing.B) {
	b.Run("micro", func(b *testing.B) {
		db, _ := imdb.Micro()
		q := imdb.GenreQuery()
		sess := openLocal(b, db)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			whySoRank(b, sess, q, "Musical")
		}
	})
	for _, nd := range []int{20, 60, 180} {
		b.Run(fmt.Sprintf("synthetic/directors=%d", nd), func(b *testing.B) {
			db := imdb.Synthetic(imdb.Config{Seed: 42, Directors: nd})
			q := imdb.GenreQuery()
			ans, err := ra.Answers(db, q)
			if err != nil || len(ans) == 0 {
				b.Fatalf("no answers: %v", err)
			}
			genre := ans[0].Values[0]
			sess := openLocal(b, db)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				whySoRank(b, sess, q, genre)
			}
		})
	}
}

// whySoRank is one WhySo+Rank on one worker: the per-answer unit the
// E2 and E19 benchmarks time.
func whySoRank(b *testing.B, sess qc.Session, q *qc.Query, answer ...qc.Value) {
	ctx := context.Background()
	r, err := sess.WhySo(ctx, q, answer...)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.Rank(ctx, qc.WithParallelism(1)); err != nil {
		b.Fatal(err)
	}
}

// fig3Queries is the query library behind the Fig. 3 complexity table.
func fig3Queries() []*shape.Shape {
	return []*shape.Shape{
		shape.New(shape.A("R", true, 0, 1), shape.A("S", true, 1, 2)),
		shape.New(shape.A("R", true, 0, 1), shape.A("S", true, 1, 2), shape.A("T", true, 2, 3)),
		shape.NewHard(shape.H1),
		shape.NewHard(shape.H2),
		shape.NewHard(shape.H3),
		shape.New(shape.A("R", true, 0, 1), shape.A("S", false, 1, 2), shape.A("T", true, 2, 0)),
		shape.New(shape.A("R", true, 0, 1), shape.A("S", true, 1, 2), shape.A("T", true, 2, 0), shape.A("V", true, 0)),
		shape.New(shape.A("R", true, 0, 1), shape.A("S", true, 1, 2), shape.A("T", true, 2, 3), shape.A("K", true, 3, 0)),
	}
}

// BenchmarkE3_Fig3Classification classifies the Fig. 3 query library
// under both domination rules.
func BenchmarkE3_Fig3Classification(b *testing.B) {
	qs := fig3Queries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range qs {
			if _, err := rewrite.Classify(s); err != nil {
				b.Fatal(err)
			}
			if _, err := rewrite.ClassifySound(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE6_CausesFOvsLineage compares the two PTIME causality
// algorithms of Section 3: Theorem 3.2 (lineage) and Theorem 3.4
// (generated Datalog¬ program).
func BenchmarkE6_CausesFOvsLineage(b *testing.B) {
	for _, n := range []int{20, 80} {
		db, q, _ := workload.Chain2(7, n)
		b.Run(fmt.Sprintf("lineage/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lineage.Causes(db, q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("datalog/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := qc.CausesFO(db, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7_Fig4FlowLinear runs Algorithm 1 on the Fig. 4 query
// R(x,y),S(y,z) at growing sizes — the polynomial side of the
// dichotomy.
func BenchmarkE7_Fig4FlowLinear(b *testing.B) {
	for _, n := range []int{20, 80, 320} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db, q, t := workload.Chain2(11, n)
			eng, err := core.NewWhySo(db, q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Responsibility(t, core.ModeAuto); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9_Fig6H1Exact solves the NP-hard h₁* via exact search on
// hypergraph-vertex-cover instances (Fig. 6 reduction), growing the
// triple count.
func BenchmarkE9_Fig6H1Exact(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("triples=%d", n), func(b *testing.B) {
			db, q, t := workload.Star(13, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := exact.MinContingencyDB(db, q, t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10_Fig7SATRings builds the 3SAT local-ring instances and
// checks the canonical contingencies (Lemma C.3's forward direction).
func BenchmarkE10_Fig7SATRings(b *testing.B) {
	f := reductions.Formula{NumVars: 4, Clauses: []reductions.Clause{
		{{Var: 0}, {Var: 1, Neg: true}, {Var: 2}},
		{{Var: 1}, {Var: 2, Neg: true}, {Var: 3}},
	}}
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := reductions.BuildRings(f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decide", func(b *testing.B) {
		inst, err := reductions.BuildRings(f)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := inst.SatisfiableViaRings(f.NumVars); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11_Fig9Transform runs the h₂*→h₃* instance transformation.
func BenchmarkE11_Fig9Transform(b *testing.B) {
	db, _, _ := workload.Triangle(17, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := reductions.H2ToH3(db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14_Thm415Chain runs the full LOGSPACE chain UGAP → BGAP →
// FPMF → responsibility of the probe tuple.
func BenchmarkE14_Thm415Chain(b *testing.B) {
	for _, n := range []int{8, 16} {
		b.Run(fmt.Sprintf("vertices=%d", n), func(b *testing.B) {
			rng := newRand(19)
			g := reductions.RandomGraph(rng, n, 0.3)
			bg := reductions.UGAPToBGAP(g, 0, n-1)
			f := reductions.BGAPToFPMF(bg)
			chain := reductions.FPMFToChain(f)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := core.NewWhySo(chain.DB, chain.Q)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Responsibility(chain.Target, core.ModeAuto); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE16_WhyNo measures the Theorem 4.17 closed form.
func BenchmarkE16_WhyNo(b *testing.B) {
	for _, n := range []int{20, 80} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db, q := workload.WhyNoChain(23, n)
			if err := whyno.CheckInstance(db, q); err != nil {
				b.Skip("instance invalid at this size: ", err)
			}
			causes, err := whyno.Causes(db, q)
			if err != nil || len(causes) == 0 {
				b.Skip("no causes at this size")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := whyno.Responsibility(db, q, causes[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// parallelSweep is the worker-count axis of the E18/E19 benchmarks:
// serial (1), then 2, 4, and the host's GOMAXPROCS when larger.
func parallelSweep() []int {
	sweep := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		sweep = append(sweep, p)
	}
	return sweep
}

// BenchmarkE18_ParallelRanking measures Engine.Rank across worker
// counts on both sides of the responsibility dichotomy: a weakly
// linear query solved per cause by Algorithm 1 (a min cut per
// protect-set over the component it touches of the engine's one
// read-only network) and the NP-hard star h₁* solved per cause by the
// indexed branch-and-bound over the shared interned lineage. serial is
// one worker, run inline on the caller's goroutine (parallel=1 is the
// same path); the speedup at parallel=w is serial_ns / parallel_ns on
// a host with GOMAXPROCS ≥ w (on a single-core host the sweep instead
// measures fan-out overhead).
func BenchmarkE18_ParallelRanking(b *testing.B) {
	cases := []struct {
		name string
		eng  func(b *testing.B) *core.Engine
		mode core.Mode
	}{
		{
			name: "flow-linear/triangle-exo-s/n=96",
			eng: func(b *testing.B) *core.Engine {
				db, q, _ := workload.TriangleExoS(29, 96)
				eng, err := core.NewWhySo(db, q)
				if err != nil {
					b.Fatal(err)
				}
				return eng
			},
			mode: core.ModeAuto,
		},
		{
			name: "hard-exact/star/n=12",
			eng: func(b *testing.B) *core.Engine {
				db, q, _ := workload.Star(13, 12)
				eng, err := core.NewWhySo(db, q)
				if err != nil {
					b.Fatal(err)
				}
				return eng
			},
			mode: core.ModeExact,
		},
	}
	for _, c := range cases {
		eng := c.eng(b)
		ctx := context.Background()
		// Warm the lazy caches (classification certificate, flow
		// network) so every variant times only the per-cause work.
		want, err := eng.Rank(ctx, c.mode, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Rank(ctx, c.mode, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, w := range parallelSweep() {
			b.Run(fmt.Sprintf("%s/parallel=%d", c.name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					out, err := eng.Rank(ctx, c.mode, w)
					if err != nil {
						b.Fatal(err)
					}
					if len(out) != len(want) {
						b.Fatalf("parallel ranking has %d entries, want %d", len(out), len(want))
					}
				}
			})
		}
	}
}

// BenchmarkE19_ExplainAllBatch measures the request-level fan-out: all
// answers of the genre query on a synthetic IMDB, explained one
// WhySo+Rank at a time versus one Session.ExplainAll call.
func BenchmarkE19_ExplainAllBatch(b *testing.B) {
	db := imdb.Synthetic(imdb.Config{Seed: 42, Directors: 120})
	q := imdb.GenreQuery()
	ans, err := ra.Answers(db, q)
	if err != nil || len(ans) == 0 {
		b.Fatalf("no answers: %v", err)
	}
	reqs := make([]qc.BatchRequest, len(ans))
	for i, a := range ans {
		reqs[i] = qc.BatchRequest{Query: q, Answer: a.Values}
	}
	sess := openLocal(b, db)
	b.Run(fmt.Sprintf("serial/answers=%d", len(ans)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, a := range ans {
				whySoRank(b, sess, q, a.Values...)
			}
		}
	})
	ctx := context.Background()
	for _, w := range parallelSweep() {
		b.Run(fmt.Sprintf("batch/answers=%d/parallel=%d", len(ans), w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := sess.ExplainAll(ctx, reqs, qc.WithParallelism(w))
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkAblation_Options quantifies each optimization of the
// indexed branch-and-bound on the h₁* family: every exact.Options
// toggle off individually (the differential harness asserts none of
// them changes an answer; this is the time axis). The full
// before/after curve lives in BENCH_exact.json
// (`go run ./cmd/experiments -run exactcurve`).
func BenchmarkAblation_Options(b *testing.B) {
	db, q, t := workload.Star(13, 16)
	n, err := lineage.NLineageOf(db, q)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		opts exact.Options
	}{
		{"default", exact.Options{}},
		{"no-greedy-seed", exact.Options{DisableGreedySeed: true}},
		{"no-preprocess", exact.Options{DisablePreprocess: true}},
		{"no-memo", exact.Options{DisableMemo: true}},
		{"no-packing-bound", exact.Options{DisablePackingBound: true}},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exact.MinContingencyOpts(n, t, v.opts)
			}
		})
	}
}

// BenchmarkAblation_GreedyVsExact compares the polynomial greedy
// heuristic against exact search (quality is checked in tests; this is
// the time trade-off).
func BenchmarkAblation_GreedyVsExact(b *testing.B) {
	db, q, t := workload.Star(13, 20)
	n, err := lineage.NLineageOf(db, q)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exact.GreedyMinContingency(n, t)
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exact.MinContingency(n, t)
		}
	})
}

// BenchmarkE17_ScalingLinearVsHard contrasts the two sides of the
// dichotomy: the weakly linear triangle of Example 4.12a (exogenous S →
// flow algorithm, polynomial — note the n=200 point) versus the
// NP-hard star h₁* (exact search, still exponential in the worst case;
// the indexed branch-and-bound pushed the old n≈32 wall out past n=64
// on this family — see BENCH_exact.json). This is the paper's central
// claim made measurable.
func BenchmarkE17_ScalingLinearVsHard(b *testing.B) {
	for _, n := range []int{8, 16, 24, 200} {
		b.Run(fmt.Sprintf("linear-flow/n=%d", n), func(b *testing.B) {
			db, q, t := workload.TriangleExoS(29, n)
			eng, err := core.NewWhySo(db, q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Responsibility(t, core.ModeAuto); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{8, 16, 24} {
		b.Run(fmt.Sprintf("hard-exact/n=%d", n), func(b *testing.B) {
			db, q, t := workload.Star(13, n)
			eng, err := core.NewWhySo(db, q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Responsibility(t, core.ModeExact); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
