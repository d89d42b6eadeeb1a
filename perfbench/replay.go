package main

import (
	"encoding/json"
	"strings"
	"time"

	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/delta"
	"github.com/querycause/querycause/internal/exact"
	"github.com/querycause/querycause/internal/lineage"
	"github.com/querycause/querycause/internal/parser"
	"github.com/querycause/querycause/internal/ra"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/respflow"
	"github.com/querycause/querycause/internal/rewrite"
	"github.com/querycause/querycause/internal/server"
	"github.com/querycause/querycause/internal/shape"
	"github.com/querycause/querycause/internal/whyno"
)

// replayer re-runs an operation's engine work in-process on the
// benchmark's replica database, one span per call into a layer's
// public functions, so a traced run can split an operation across
// layers without any timer inside the program. Each method mirrors
// what the engine does for that step on the serial ranking path the
// server takes (one ranking worker per request).
type replayer struct{ t *tracer }

// upload replays what an upload costs the parser layer: formatting the
// database and parsing it back.
func (r replayer) upload(db *rel.Database, op int) error {
	var text string
	var err error
	r.t.timed("parser.format", op, func() { text, err = parser.FormatDatabase(db) })
	if err != nil {
		return err
	}
	r.t.count("parser.db_bytes", float64(len(text)))
	r.t.timed("parser.parse", op, func() { _, err = parser.ParseDatabase(strings.NewReader(text)) })
	return err
}

// lineage replays an engine build: evaluation with lineage capture
// (ra) and minimization (lineage), the two halves of
// lineage.NLineageOf.
func (r replayer) lineage(db *rel.Database, bq *rel.Query, op int) (lineage.DNF, error) {
	var conjs [][]rel.TupleID
	var isTrue bool
	var err error
	r.t.timed("ra.eval", op, func() { conjs, isTrue, err = ra.NLineageConjuncts(db, bq) })
	if err != nil {
		return lineage.DNF{}, err
	}
	r.t.count("ra.valuations", float64(len(conjs)))
	var d lineage.DNF
	r.t.timed("lineage.build", op, func() {
		if isTrue {
			d = lineage.DNF{True: true}
			return
		}
		d = lineage.DNF{Conjuncts: make([]lineage.Conjunct, 0, len(conjs))}
		for _, c := range conjs {
			d.Conjuncts = append(d.Conjuncts, lineage.Conjunct(c))
		}
		d = lineage.RemoveRedundant(d)
	})
	r.t.count("lineage.conjuncts", float64(len(d.Conjuncts)))
	if !d.True {
		r.t.count("lineage.causes", float64(len(d.Vars())))
	}
	return d, nil
}

// classify replays the dichotomy classification under the sound rule
// ModeAuto dispatches on.
func (r replayer) classify(db *rel.Database, bq *rel.Query, op int) (*rewrite.Certificate, error) {
	var cert *rewrite.Certificate
	var err error
	r.t.timed("rewrite.classify", op, func() { cert, err = rewrite.ClassifySound(shape.FromQuery(bq, core.EndoFn(db))) })
	return cert, err
}

// network replays the Algorithm 1 flow-network build.
func (r replayer) network(db *rel.Database, bq *rel.Query, cert *rewrite.Certificate, op int) (*respflow.Network, error) {
	var net *respflow.Network
	var err error
	r.t.timed("respflow.build", op, func() {
		ws, order, rerr := cert.Replay()
		if rerr != nil {
			err = rerr
			return
		}
		net, err = respflow.Build(db, bq, ws, order)
	})
	return net, err
}

// rank replays the serial ranking loop: counterfactual causes are
// answered from the lineage, the others by solve (a max-flow, an exact
// search or a why-no solve), then the ranking is sorted.
func (r replayer) rank(d lineage.DNF, op int, solveSpan string, solve func(t rel.TupleID) []rel.TupleID) []core.Explanation {
	if d.True {
		return nil
	}
	causes := d.Vars()
	out := make([]core.Explanation, 0, len(causes))
	loop := r.t.begin("core.rank", op)
	start := time.Now()
	for i, t := range causes {
		if solveSpan != "whyno.solve" && counterfactual(d, t) {
			out = append(out, core.Explanation{Tuple: t, Rho: 1, ContingencySize: 0, Contingency: []rel.TupleID{}, Method: core.MethodCounterfactual})
		} else {
			var set []rel.TupleID
			r.t.timed(solveSpan, loop, func() { set = solve(t) })
			out = append(out, core.Explanation{Tuple: t, Rho: 1 / (1 + float64(len(set))), ContingencySize: len(set), Contingency: set})
		}
		if i == 0 {
			r.t.count("core.first_ms", float64(time.Since(start))/1e6)
			r.t.count("core.rankings", 1)
		}
	}
	r.t.end(loop)
	r.t.timed("core.sort", op, func() { core.SortExplanations(out) })
	return out
}

// rankFlow ranks on a built network, as a warm flow explain does.
func (r replayer) rankFlow(d lineage.DNF, net *respflow.Network, op int) []core.Explanation {
	v, e := net.Stats()
	r.t.count("respflow.vertices", float64(v))
	r.t.count("respflow.edges", float64(e))
	return r.rank(d, op, "respflow.solve", func(t rel.TupleID) []rel.TupleID {
		r.t.count("respflow.solves", 1)
		set, _ := net.Contingency(t)
		return set
	})
}

// rankExact ranks by branch-and-bound over the interned lineage, as
// ModeAuto does on the NP-hard side.
func (r replayer) rankExact(d lineage.DNF, op int) []core.Explanation {
	var ix *lineage.Index
	r.t.timed("exact.index", op, func() { ix = lineage.NewIndex(d) })
	r.t.count("exact.lineage_width", float64(ix.NumVars()))
	r.t.count("exact.engines", 1)
	return r.rank(d, op, "exact.search", func(t rel.TupleID) []rel.TupleID {
		r.t.count("exact.searches", 1)
		set, _ := exact.MinContingencySetIndex(ix, t, exact.Options{})
		return set
	})
}

// whyNo replays a why-no explain: instance check, engine build, one
// why-no solve per candidate cause.
func (r replayer) whyNo(db *rel.Database, bq *rel.Query, op int) error {
	var err error
	r.t.timed("whyno.check", op, func() { err = whyno.CheckInstance(db, bq) })
	if err != nil {
		return err
	}
	d, err := r.lineage(db, bq, op)
	if err != nil {
		return err
	}
	r.rank(d, op, "whyno.solve", func(t rel.TupleID) []rel.TupleID {
		r.t.count("whyno.solves", 1)
		set, _ := whyno.MinContingencySetDNF(d, t)
		return set
	})
	return nil
}

// encode replays rendering a ranking into its wire form.
func (r replayer) encode(db *rel.Database, exps []core.Explanation, op int) []server.ExplanationDTO {
	var dtos []server.ExplanationDTO
	r.t.timed("server.encode", op, func() {
		dtos = make([]server.ExplanationDTO, len(exps))
		for i, e := range exps {
			dtos[i] = server.NewExplanationDTO(db, e)
		}
		_, _ = json.Marshal(dtos) // the bytes are not needed, only the work
	})
	return dtos
}

// patch replays the delta layer's lineage patch for one mutation.
func (r replayer) patch(db *rel.Database, bq *rel.Query, cached lineage.DNF, m delta.Mutation, op int) (lineage.DNF, bool, error) {
	var d lineage.DNF
	var ok bool
	var err error
	r.t.timed("delta.patch", op, func() { d, ok, err = delta.PatchDNF(db, bq, cached, m) })
	return d, ok, err
}

// diff replays the watch layer's ranking diff.
func (r replayer) diff(old, new []server.ExplanationDTO, op int) {
	r.t.timed("watch.diff", op, func() { server.DiffRankings(old, new) })
}

// counterfactual reports whether every minimal conjunct contains t.
func counterfactual(d lineage.DNF, t rel.TupleID) bool {
	if d.True || len(d.Conjuncts) == 0 {
		return false
	}
	for _, c := range d.Conjuncts {
		if !c.Contains(t) {
			return false
		}
	}
	return true
}
