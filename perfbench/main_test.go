package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/querycause/querycause/internal/causegen"
	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/imdb"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/server"
	"github.com/querycause/querycause/internal/workload"
)

// TestSmokeRuns runs every workload at the smoke size, untraced and
// traced, and checks that every oracle passed and every metric is
// reported with its unit.
func TestSmokeRuns(t *testing.T) {
	for _, w := range []string{"explain-warm", "hard-local", "churn-watch"} {
		for _, traced := range []bool{false, true} {
			name := w
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				out := filepath.Join(t.TempDir(), "spans.jsonl")
				res, err := run(config{workload: w, seed: 3, seconds: 0.3, trace: traced, smoke: true, traceOut: out})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit || math.IsNaN(got.Value) {
						t.Errorf("metric %s = %+v (present %v), want unit %s", m.name, got, ok, m.unit)
					}
				}
				if !traced {
					for _, m := range endToEnd {
						if res.Metrics[m.name].Value <= 0 {
							t.Errorf("end-to-end metric %s reads %v", m.name, res.Metrics[m.name].Value)
						}
					}
					return
				}
				for _, m := range []string{"trace.coverage", "trace.overhead", "core.rank_ms", "latency." + primary[w], "host.ref_ms"} {
					if res.Metrics[m].Value <= 0 {
						t.Errorf("traced metric %s reads %v", m, res.Metrics[m].Value)
					}
				}
				spans, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(string(spans), `"name":"op"`) {
					t.Errorf("span file holds no operation spans")
				}
			})
		}
	}
}

// warmFixture is a small explain-warm answer with its exact reference
// and the engine's ranking of it.
func warmFixture(t *testing.T) (*rel.Database, *reference, []core.Explanation) {
	t.Helper()
	db := imdb.Synthetic(imdb.Config{Seed: 5, Directors: 400, BurtonShare: 0.05})
	bq, err := imdb.GenreQuery().Bind("Drama")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := exactReference(db, bq, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewWhySo(db, bq)
	if err != nil {
		t.Fatal(err)
	}
	exps, err := eng.RankAll(core.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkWhySo(ref, db, exps); err != nil {
		t.Fatalf("the engine's own ranking fails the oracle: %v", err)
	}
	var nonTrivial bool
	for _, e := range exps {
		nonTrivial = nonTrivial || len(e.Contingency) > 0
	}
	if !nonTrivial {
		t.Fatal("fixture has no cause with a non-empty contingency")
	}
	return db, ref, exps
}

// clone deep-copies a ranking so a test can corrupt it.
func clone(exps []core.Explanation) []core.Explanation {
	out := make([]core.Explanation, len(exps))
	for i, e := range exps {
		e.Contingency = append([]rel.TupleID{}, e.Contingency...)
		out[i] = e
	}
	return out
}

// TestWhySoOracleRejects corrupts a correct ranking in each way the
// why-so oracle must notice.
func TestWhySoOracleRejects(t *testing.T) {
	db, ref, exps := warmFixture(t)
	i := 0
	for len(exps[i].Contingency) == 0 {
		i++
	}
	cases := map[string]func([]core.Explanation) []core.Explanation{
		"contingency missing a tuple": func(x []core.Explanation) []core.Explanation {
			x[i].Contingency = x[i].Contingency[1:]
			x[i].ContingencySize--
			x[i].Rho = 1 / (1 + float64(len(x[i].Contingency)))
			return x
		},
		"ρ not 1/(1+|Γ|)": func(x []core.Explanation) []core.Explanation { x[i].Rho /= 2; return x },
		"order swapped": func(x []core.Explanation) []core.Explanation {
			x[0], x[len(x)-1] = x[len(x)-1], x[0]
			return x
		},
		"cause dropped": func(x []core.Explanation) []core.Explanation { return x[1:] },
		"larger than the exact minimum": func(x []core.Explanation) []core.Explanation {
			// Add a tuple that keeps Γ valid: an endogenous tuple outside
			// the lineage changes nothing but the size.
			for id := rel.TupleID(0); int(id) < db.NumTuples(); id++ {
				if db.Endo(id) && !slices.Contains(ref.causes, id) {
					x[i].Contingency = append(x[i].Contingency, id)
					break
				}
			}
			x[i].ContingencySize++
			x[i].Rho = 1 / (1 + float64(len(x[i].Contingency)))
			return x
		},
	}
	for name, corrupt := range cases {
		if err := checkWhySo(ref, db, corrupt(clone(exps))); err == nil {
			t.Errorf("%s: oracle accepted the ranking", name)
		}
	}
}

// TestStarOracles checks the hard-local oracles on a tiny star: the
// engine's ranking passes, a stream equals Rank, and a valid but
// non-minimal Γ fails the brute-force comparison.
func TestStarOracles(t *testing.T) {
	in := causegen.HardStar(11, 4, 0.1)
	ref, err := naiveReference(in.DB, in.Query)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewWhySo(in.DB, in.Query)
	if err != nil {
		t.Fatal(err)
	}
	exps, err := eng.RankAll(core.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkStar(ref, in.DB, exps, true); err != nil {
		t.Fatalf("engine ranking: %v", err)
	}
	if err := checkSortedStream(exps, exps); err != nil {
		t.Fatal(err)
	}
	bad := clone(exps)
	bad[0], bad[1] = bad[1], bad[0]
	if err := checkSortedStream(bad[:len(bad)-1], exps); err == nil {
		t.Error("stream missing a cause compared equal to Rank")
	}
	// Grow one Γ by a tuple outside the lineage: still a contingency by
	// definition, but no longer minimum.
	var spare rel.TupleID = -1
	for id := rel.TupleID(0); int(id) < in.DB.NumTuples(); id++ {
		if in.DB.Endo(id) && !slices.Contains(ref.causes, id) {
			spare = id
			break
		}
	}
	if spare < 0 {
		t.Skip("every endogenous tuple of the fixture is a cause")
	}
	bad = clone(exps)
	last := len(bad) - 1
	bad[last].Contingency = append(bad[last].Contingency, spare)
	bad[last].ContingencySize++
	bad[last].Rho = 1 / (1 + float64(bad[last].ContingencySize))
	core.SortExplanations(bad)
	if err := checkStar(ref, in.DB, bad, true); err == nil {
		t.Error("brute-force oracle accepted a non-minimal contingency")
	}
}

// TestWhyNoOracles checks the why-no oracle accepts the engine and
// rejects a Γ that already makes the query true.
func TestWhyNoOracles(t *testing.T) {
	db, q := workload.WhyNoChain(9, 12)
	ref, err := naiveReference(db, q)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewWhyNo(db, q)
	if err != nil {
		t.Skipf("chain is not a why-no instance: %v", err)
	}
	exps, err := eng.RankAll(core.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkWhyNo(ref, db, q, exps, true); err != nil {
		t.Fatalf("engine ranking: %v", err)
	}
	bad := clone(exps)
	bad[0].Contingency = append(bad[0].Contingency, bad[0].Tuple)
	bad[0].ContingencySize++
	bad[0].Rho = 1 / (1 + float64(bad[0].ContingencySize))
	if err := checkWhyNo(ref, db, q, bad, false); err == nil {
		t.Error("oracle accepted a Γ holding the cause itself")
	}
}

// TestSameBytes checks the churn-watch comparison notices a change.
func TestSameBytes(t *testing.T) {
	a := []server.ExplanationDTO{{TupleID: 1, Tuple: "Movie(1)", Rho: 0.5, ContingencySize: 1, Method: "flow"}}
	b := []server.ExplanationDTO{{TupleID: 1, Tuple: "Movie(1)", Rho: 0.5, ContingencySize: 1, Method: "flow"}}
	if err := sameBytes("same", a, b); err != nil {
		t.Fatal(err)
	}
	b[0].Rho = 1
	if err := sameBytes("changed", a, b); err == nil {
		t.Error("differing rankings compared equal")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestBenchmarkJSON checks BENCHMARK.json lists exactly the metrics
// the command reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	check := func(kind string, listed []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(listed) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(listed), len(want))
		}
		units := make(map[string]string)
		for _, m := range want {
			units[m.name] = m.unit
		}
		for _, m := range listed {
			if units[m.Name] != m.Unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the command", kind, m.Name, m.Unit, units[m.Name])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestHostScale pins the scaling of timings to the nominal host speed:
// a run whose reference task took twice refNominal reports half its
// measured times.
func TestHostScale(t *testing.T) {
	ref := float64(2*refNominal) / 1e6
	if got := hostScale(series{ref * 0.9, ref, ref * 1.5}); got != 0.5 {
		t.Errorf("hostScale = %v, want 0.5", got)
	}
}
