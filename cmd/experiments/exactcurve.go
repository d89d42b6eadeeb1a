// The exactcurve experiment regenerates BENCH_exact.json: the exact
// solver's cost curve on the NP-hard star family h₁* by lineage
// width, the speedup against the PR-3 (map-based, pre-index) solver's
// checked-in curve, and one ablation row per exact.Options toggle.
//
//	go run ./cmd/experiments -run exactcurve [-bench-out BENCH_exact.json]
//
// CI's report-only bench step and the README "Performance" section
// both point here as the one command that refreshes the curve.

package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/exact"
	"github.com/querycause/querycause/internal/lineage"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/workload"
)

// pr3Baseline is the PR-3 exact-oracle curve (BENCH_difftest.json,
// same protocol: ns per MinContingencySet call on star h₁* lineages,
// single-core container), keyed by lineage width. It is the "before"
// of the before/after comparison; widths past 147 were unreachable —
// the map-based solver already needed 27s per call there.
var pr3Baseline = map[int]float64{
	20:  9392,
	39:  87487.125,
	56:  349917,
	75:  2761606.625,
	111: 32973395,
	147: 26922418111.625,
}

type exactCurvePoint struct {
	Family           string  `json:"family"`
	Size             int     `json:"size"`
	LineageWidth     int     `json:"lineage_width"`
	LineageConjuncts int     `json:"lineage_conjuncts"`
	CausesTimed      int     `json:"causes_timed"`
	NsPerCall        float64 `json:"ns_per_min_contingency"`
	PR3NsPerCall     float64 `json:"pr3_ns_per_min_contingency,omitempty"`
	Speedup          float64 `json:"speedup_vs_pr3,omitempty"`
}

type exactAblationRow struct {
	Options           string  `json:"options"`
	Size              int     `json:"size"`
	LineageWidth      int     `json:"lineage_width"`
	CausesTimed       int     `json:"causes_timed"`
	NsPerCall         float64 `json:"ns_per_min_contingency"`
	SlowdownVsDefault float64 `json:"slowdown_vs_default"`
}

type exactReport struct {
	Bench     string             `json:"bench"`
	Command   string             `json:"command"`
	Date      string             `json:"date"`
	GOOS      string             `json:"goos"`
	GOARCH    string             `json:"goarch"`
	CPUs      int                `json:"cpus"`
	Curve     []exactCurvePoint  `json:"exact_oracle_curve"`
	Ablations []exactAblationRow `json:"ablations"`
	Note      string             `json:"note"`
}

// ablationRows defines the ablation axis: each exact.Options toggle
// off individually at a width the PR-3 solver already found hard, and
// everything off at a smaller width (the bare branch and bound blows
// up far earlier — that cliff is the point).
var ablationRows = []struct {
	name string
	size int
	opts exact.Options
}{
	{"default", 32, exact.Options{}},
	{"no-greedy-seed", 32, exact.Options{DisableGreedySeed: true}},
	{"no-preprocess", 32, exact.Options{DisablePreprocess: true}},
	{"no-packing-bound", 32, exact.Options{DisablePackingBound: true}},
	{"index-only (seed/preprocess off)", 32, exact.Options{DisableGreedySeed: true, DisablePreprocess: true}},
	{"none (all off)", 12, exact.Options{DisableGreedySeed: true, DisablePreprocess: true, DisablePackingBound: true}},
}

// starLineage builds the star-family engine and returns its minimal
// n-lineage and causes, mirroring the PR-3 curve's protocol (seed 1).
func starLineage(n int) (lineage.DNF, []rel.TupleID, error) {
	db, q, _ := workload.Star(1, n)
	eng, err := core.NewWhySo(db, q)
	if err != nil {
		return lineage.DNF{}, nil, err
	}
	return eng.NLineage(), eng.Causes(), nil
}

// timeStar times opts-configured MinContingency calls over the first
// maxCauses causes of star(n), through the public DNF entry point so
// per-call index construction is included (the PR-3 rows paid their
// per-call map setup the same way).
func timeStar(n, maxCauses int, opts exact.Options) (exactCurvePoint, error) {
	nl, causes, err := starLineage(n)
	if err != nil {
		return exactCurvePoint{}, err
	}
	timed := 0
	start := time.Now()
	for _, id := range causes {
		if timed >= maxCauses {
			break
		}
		exact.MinContingencyOpts(nl, id, opts)
		timed++
	}
	elapsed := time.Since(start)
	if timed == 0 {
		return exactCurvePoint{}, fmt.Errorf("star(%d): no causes to time", n)
	}
	return exactCurvePoint{
		Family: "star", Size: n,
		LineageWidth:     len(nl.Vars()),
		LineageConjuncts: len(nl.Conjuncts),
		CausesTimed:      timed,
		NsPerCall:        float64(elapsed.Nanoseconds()) / float64(timed),
	}, nil
}

func exactCurve() {
	header("Exact-oracle cost curve (indexed branch-and-bound vs the PR-3 solver)")
	rep := exactReport{
		Bench:   "exact",
		Command: "go run ./cmd/experiments -run exactcurve",
		Date:    time.Now().UTC().Format("2006-01-02"),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Note: "ns per exact.MinContingency call (public DNF entry point, per-call index build included; engine calls share one index and are cheaper still) " +
			"on star h1* lineages, 8 causes timed per size; pr3 columns are the checked-in BENCH_difftest.json curve of the map-based solver on the same host profile " +
			"(small widths now pay index-build overhead — the win is the cliff, not the floor). " +
			"Ablation rows disable exact.Options toggles; 'none (all off)' runs at size 12 because the bare search is already ~ms there and grows exponentially.",
	}
	for _, n := range []int{4, 8, 12, 16, 24, 32, 40, 48, 64} {
		p, err := timeStar(n, 8, exact.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if base, ok := pr3Baseline[p.LineageWidth]; ok {
			p.PR3NsPerCall = base
			p.Speedup = base / p.NsPerCall
		}
		speedup := ""
		if p.Speedup > 0 {
			speedup = fmt.Sprintf("  (pr3: %.3gms, %.3gx)", p.PR3NsPerCall/1e6, p.Speedup)
		}
		fmt.Printf("star n=%-3d width=%-4d conjuncts=%-4d %12.0f ns/call%s\n",
			p.Size, p.LineageWidth, p.LineageConjuncts, p.NsPerCall, speedup)
		rep.Curve = append(rep.Curve, p)
	}
	var defaultNs float64
	for _, row := range ablationRows {
		p, err := timeStar(row.size, 4, row.opts)
		if err != nil {
			log.Fatal(err)
		}
		r := exactAblationRow{
			Options: row.name, Size: row.size,
			LineageWidth: p.LineageWidth, CausesTimed: p.CausesTimed,
			NsPerCall: p.NsPerCall,
		}
		if row.name == "default" {
			defaultNs = p.NsPerCall
		} else if defaultNs > 0 && row.size == ablationRows[0].size {
			r.SlowdownVsDefault = p.NsPerCall / defaultNs
		}
		fmt.Printf("ablation %-40s n=%-3d width=%-4d %12.0f ns/call\n", row.name, row.size, p.LineageWidth, p.NsPerCall)
		rep.Ablations = append(rep.Ablations, r)
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*benchOut, append(raw, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exactcurve: baseline written to %s\n", *benchOut)
}
