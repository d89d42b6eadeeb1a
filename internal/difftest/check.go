// Per-instance differential checking: one generated instance run
// through every engine layer and compared against every applicable
// oracle. All checks are deterministic, so a failing seed reproduces
// the identical mismatch.

package difftest

import (
	"fmt"
	"math"

	"github.com/querycause/querycause/internal/causegen"
	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/exact"
	"github.com/querycause/querycause/internal/lineage"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/whyno"
)

// CheckOptions tunes the per-instance oracles. Zero values get
// defaults; the caps bound the exponential oracles so sweeps stay
// fast — instances over a cap simply skip that oracle (the Report's
// coverage counters make skipped oracles visible).
type CheckOptions struct {
	// BruteVarCap: run the lineage-level brute-force oracle on Why-So
	// causes when the minimal lineage has at most this many variables.
	// Default 12.
	BruteVarCap int
	// NonCauseBruteCap: confirm non-causes by brute force (a full
	// subset enumeration) when the lineage has at most this many
	// variables. Default 9.
	NonCauseBruteCap int
	// NonCauseSample bounds how many non-causes per instance get the
	// brute-force confirmation. Default 3.
	NonCauseSample int
	// WhyNoBruteEndoCap: run the Why-No database-level brute-force
	// oracle when the instance has at most this many candidate tuples.
	// Default 10.
	WhyNoBruteEndoCap int
	// DatalogAtomCap / DatalogTupleCap gate the Theorem 3.4 cause
	// program cross-check (the program is exponential in the atom
	// count). Defaults 3 and 40.
	DatalogAtomCap  int
	DatalogTupleCap int
	// AblationVarCap: re-run the exact solver with every exact.Options
	// optimization toggled off (individually and all together) and
	// require identical sizes, on Why-So instances whose lineage has at
	// most this many variables. Default 14; negative disables.
	AblationVarCap int
	// AblationSample bounds how many ranked causes per instance get the
	// ablation re-checks. Default 4.
	AblationSample int
	// Metamorphic applies the mutation invariants.
	Metamorphic bool
	// EvalDiff runs the naive-vs-planned evaluator equivalence check:
	// identical valuation sets and structurally identical minimal
	// endogenous lineages from both backends. The sweep enables it on
	// every instance (Options.EvalEvery).
	EvalDiff bool
	// Server, when non-nil, replays the instance through the HTTP
	// server and requires byte-identical rankings.
	Server *ServerDiff
	// Session, when non-nil, replays the instance through the public
	// Session API on both transports (Open and Dial) and requires
	// transport indistinguishability: equal cause sets, byte-identical
	// blocking/streamed rankings, and errors.Is-equal failures.
	Session *SessionDiff
	// Cluster, when non-nil, replays the instance through a 3-replica
	// consistent-hash cluster and requires single-node
	// indistinguishability: byte-identical rankings via topology-aware
	// Dial and via a wrong-node 307 hop, errors.Is-equal failures, and
	// cluster-wide session teardown.
	Cluster *ClusterDiff
	// Mutate, when non-nil, replays a seeded mutation sequence through
	// the server twice — incrementally with interleaved explains, and
	// cold at the final version — and requires byte-identical answers
	// from both, matching the in-process engine on the final database.
	Mutate *MutateDiff
	// Watch, when non-nil, opens a live watch subscription, replays the
	// instance's seeded mutation sequence, and requires the DiffEvent
	// replay to byte-equal a cold engine's ranking at every version.
	Watch *WatchDiff
}

func (o CheckOptions) withDefaults() CheckOptions {
	if o.BruteVarCap <= 0 {
		o.BruteVarCap = 12
	}
	if o.NonCauseBruteCap <= 0 {
		o.NonCauseBruteCap = 9
	}
	if o.NonCauseSample <= 0 {
		o.NonCauseSample = 3
	}
	if o.WhyNoBruteEndoCap <= 0 {
		o.WhyNoBruteEndoCap = 10
	}
	if o.DatalogAtomCap <= 0 {
		o.DatalogAtomCap = 3
	}
	if o.DatalogTupleCap <= 0 {
		o.DatalogTupleCap = 40
	}
	if o.AblationVarCap == 0 {
		o.AblationVarCap = 14
	}
	if o.AblationSample <= 0 {
		o.AblationSample = 4
	}
	return o
}

// ablationVariants are the exact.Options configurations the ablation
// invariant sweeps: every optimization toggled off individually, and
// all of them off at once (the bare branch and bound). None of them
// may change a single answer — they only trade time.
var ablationVariants = []struct {
	name string
	opts exact.Options
}{
	{"no-greedy-seed", exact.Options{DisableGreedySeed: true}},
	{"no-preprocess", exact.Options{DisablePreprocess: true}},
	{"no-memo", exact.Options{DisableMemo: true}},
	{"no-packing-bound", exact.Options{DisablePackingBound: true}},
	{"none", exact.Options{DisableGreedySeed: true, DisablePreprocess: true, DisableMemo: true, DisablePackingBound: true}},
}

// CheckStats reports which oracles a CheckInstance call exercised.
type CheckStats struct {
	FlowRanked         bool
	ExactRanked        bool
	BruteChecked       int
	AblationChecked    int
	DatalogChecked     int
	MetamorphicChecked int
	ServerChecked      int
	SessionChecked     int
	ClusterChecked     int
	MutateChecked      int
	WatchChecked       int
	EvalChecked        int
}

// CheckInstance runs the full differential battery on one instance.
// A nil error means every layer agreed; a non-nil error describes the
// first mismatch found.
func CheckInstance(inst *causegen.Instance, opts CheckOptions) (CheckStats, error) {
	opts = opts.withDefaults()
	var stats CheckStats

	// The evaluator differential runs first: if the planned data plane
	// disagrees with the naive reference, every downstream layer is
	// suspect and the direct comparison is the most useful report.
	if opts.EvalDiff {
		if err := checkEvalEquivalence(inst); err != nil {
			return stats, err
		}
		stats.EvalChecked++
	}

	eng, err := newEngine(inst)
	if err != nil {
		return stats, fmt.Errorf("%w: %v", ErrInvalidInstance, err)
	}
	causes := eng.Causes()
	nl := eng.NLineage()
	causeSet := make(map[rel.TupleID]bool, len(causes))
	for _, id := range causes {
		causeSet[id] = true
	}

	// Rankings under both modes must agree on (tuple, ρ, min|Γ|):
	// wherever ModeAuto dispatches to the flow algorithm, this is the
	// dichotomy's flow-vs-exact differential.
	rankAuto, err := eng.RankAll(core.ModeAuto)
	if err != nil {
		return stats, fmt.Errorf("RankAll(auto): %v", err)
	}
	rankExact, err := eng.RankAll(core.ModeExact)
	if err != nil {
		return stats, fmt.Errorf("RankAll(exact): %v", err)
	}
	if err := equalSignatures("auto-vs-exact ranking", rankAuto, rankExact); err != nil {
		return stats, err
	}
	for _, ex := range rankAuto {
		switch ex.Method {
		case core.MethodFlow:
			stats.FlowRanked = true
		case core.MethodExact:
			stats.ExactRanked = true
		}
	}

	// Well-formedness + definitional witness validation of every
	// explanation.
	if err := checkRankingShape(inst, causes, rankAuto); err != nil {
		return stats, err
	}
	for _, ex := range rankAuto {
		if err := validateWitness(inst, ex); err != nil {
			return stats, err
		}
	}

	// Dichotomy consistency: sound-classified PTIME and self-join-free
	// means every non-counterfactual Why-So cause takes the flow path
	// (no silent fallback to exact search).
	if !inst.WhyNo && !inst.Query.HasSelfJoin() {
		if cert, cerr := eng.Classification(); cerr == nil && cert.Class.PTime() {
			for _, ex := range rankAuto {
				if ex.ContingencySize > 0 && ex.Method != core.MethodFlow {
					return stats, fmt.Errorf("dichotomy: query %v classified %v but cause %d used %v, not max-flow",
						inst.Query, cert.Class, ex.Tuple, ex.Method)
				}
			}
		}
	}

	// Brute-force oracles, the greedy upper bound, and the exact-solver
	// ablation invariant.
	if err := checkOracles(inst, nl, causeSet, rankAuto, opts, &stats); err != nil {
		return stats, err
	}

	// Theorem 3.4: the Datalog¬ cause program derives exactly the
	// engine's cause set.
	if len(inst.Query.Atoms) <= opts.DatalogAtomCap && inst.DB.NumTuples() <= opts.DatalogTupleCap {
		dlCauses, _, derr := causegen.Causes(inst.DB, inst.Query)
		if derr != nil {
			return stats, fmt.Errorf("datalog cause program: %v", derr)
		}
		if !equalIDs(causes, dlCauses) {
			return stats, fmt.Errorf("cause sets disagree: lineage says %v, Theorem 3.4 program says %v", causes, dlCauses)
		}
		stats.DatalogChecked++
	}

	if opts.Metamorphic {
		n, err := checkMetamorphic(inst, rankAuto)
		stats.MetamorphicChecked += n
		if err != nil {
			return stats, err
		}
	}

	if opts.Server != nil {
		if err := opts.Server.Check(inst, rankAuto); err != nil {
			return stats, err
		}
		stats.ServerChecked++
	}

	if opts.Session != nil {
		if err := opts.Session.Check(inst, rankAuto); err != nil {
			return stats, err
		}
		stats.SessionChecked++
	}

	if opts.Cluster != nil {
		if err := opts.Cluster.Check(inst, rankAuto); err != nil {
			return stats, err
		}
		stats.ClusterChecked++
	}

	if opts.Mutate != nil {
		if err := opts.Mutate.Check(inst); err != nil {
			return stats, err
		}
		stats.MutateChecked++
	}

	if opts.Watch != nil {
		if err := opts.Watch.Check(inst); err != nil {
			return stats, err
		}
		stats.WatchChecked++
	}
	return stats, nil
}

func newEngine(inst *causegen.Instance) (*core.Engine, error) {
	if inst.WhyNo {
		return core.NewWhyNo(inst.DB, inst.Query)
	}
	return core.NewWhySo(inst.DB, inst.Query)
}

// checkRankingShape validates the ranking's structural invariants:
// exactly the cause set is ranked, ρ = 1/(1+min|Γ|) ∈ (0,1], the
// contingency slice witnesses its size, and the order is the paper's
// Fig. 2b ranking (descending ρ, ties by ascending tuple id).
func checkRankingShape(inst *causegen.Instance, causes []rel.TupleID, rank []core.Explanation) error {
	if len(rank) != len(causes) {
		return fmt.Errorf("ranking has %d entries for %d causes", len(rank), len(causes))
	}
	ranked := make(map[rel.TupleID]bool, len(rank))
	for i, ex := range rank {
		if ranked[ex.Tuple] {
			return fmt.Errorf("tuple %d ranked twice", ex.Tuple)
		}
		ranked[ex.Tuple] = true
		if int(ex.Tuple) < 0 || int(ex.Tuple) >= inst.DB.NumTuples() || !inst.DB.Endo(ex.Tuple) {
			return fmt.Errorf("ranked tuple %d is not an endogenous tuple", ex.Tuple)
		}
		if ex.ContingencySize < 0 || ex.Rho <= 0 {
			return fmt.Errorf("cause %d reported as non-cause (ρ=%v, size=%d)", ex.Tuple, ex.Rho, ex.ContingencySize)
		}
		if want := 1 / (1 + float64(ex.ContingencySize)); math.Abs(ex.Rho-want) > 1e-12 {
			return fmt.Errorf("cause %d: ρ=%v but min|Γ|=%d implies %v", ex.Tuple, ex.Rho, ex.ContingencySize, want)
		}
		if len(ex.Contingency) != ex.ContingencySize {
			return fmt.Errorf("cause %d: contingency %v does not witness size %d", ex.Tuple, ex.Contingency, ex.ContingencySize)
		}
		if (ex.Rho == 1) != (ex.ContingencySize == 0) {
			return fmt.Errorf("cause %d: counterfactual iff ρ=1 violated (ρ=%v, size=%d)", ex.Tuple, ex.Rho, ex.ContingencySize)
		}
		seen := make(map[rel.TupleID]bool, len(ex.Contingency))
		for _, id := range ex.Contingency {
			if id == ex.Tuple {
				return fmt.Errorf("cause %d: contingency contains the cause itself", ex.Tuple)
			}
			if seen[id] {
				return fmt.Errorf("cause %d: duplicate %d in contingency", ex.Tuple, id)
			}
			seen[id] = true
			if int(id) < 0 || int(id) >= inst.DB.NumTuples() || !inst.DB.Endo(id) {
				return fmt.Errorf("cause %d: contingency member %d is not endogenous", ex.Tuple, id)
			}
		}
		if i > 0 {
			prev := rank[i-1]
			if ex.Rho > prev.Rho || (ex.Rho == prev.Rho && ex.Tuple < prev.Tuple) {
				return fmt.Errorf("ranking out of order at %d: (%v,%d) after (%v,%d)", i, ex.Rho, ex.Tuple, prev.Rho, prev.Tuple)
			}
		}
	}
	for _, id := range causes {
		if !ranked[id] {
			return fmt.Errorf("cause %d missing from ranking", id)
		}
	}
	return nil
}

// validateWitness checks the returned contingency set against the
// database by definition, independently of the lineage machinery —
// and independently of the planned evaluator under test: the holds
// oracle is the naive reference backend (rel.HoldsWithoutNaive), so a
// data-plane bug cannot validate its own wrong answers.
//
// Why-So (Definition 2.3): q must still hold after removing Γ and
// fail after removing Γ ∪ {t}.
//
// Why-No (Theorem 4.17, insertion semantics): q must fail on
// Dˣ ∪ Γ and hold on Dˣ ∪ Γ ∪ {t}.
func validateWitness(inst *causegen.Instance, ex core.Explanation) error {
	if inst.WhyNo {
		absent := make(map[rel.TupleID]bool)
		inΓ := make(map[rel.TupleID]bool, len(ex.Contingency))
		for _, id := range ex.Contingency {
			inΓ[id] = true
		}
		for _, id := range inst.DB.EndoIDs() {
			if !inΓ[id] {
				absent[id] = true
			}
		}
		// Dˣ ∪ Γ: every candidate outside Γ (t included) removed.
		held, err := rel.HoldsWithoutNaive(inst.DB, inst.Query, absent)
		if err != nil {
			return err
		}
		if held {
			return fmt.Errorf("whyno cause %d: q already holds on Dˣ ∪ Γ for Γ=%v", ex.Tuple, ex.Contingency)
		}
		delete(absent, ex.Tuple)
		held, err = rel.HoldsWithoutNaive(inst.DB, inst.Query, absent)
		if err != nil {
			return err
		}
		if !held {
			return fmt.Errorf("whyno cause %d: q does not hold on Dˣ ∪ Γ ∪ {t} for Γ=%v", ex.Tuple, ex.Contingency)
		}
		return nil
	}
	removed := make(map[rel.TupleID]bool, len(ex.Contingency)+1)
	for _, id := range ex.Contingency {
		removed[id] = true
	}
	held, err := rel.HoldsWithoutNaive(inst.DB, inst.Query, removed)
	if err != nil {
		return err
	}
	if !held {
		return fmt.Errorf("whyso cause %d: q fails after removing Γ=%v alone", ex.Tuple, ex.Contingency)
	}
	removed[ex.Tuple] = true
	held, err = rel.HoldsWithoutNaive(inst.DB, inst.Query, removed)
	if err != nil {
		return err
	}
	if held {
		return fmt.Errorf("whyso cause %d: q still holds after removing Γ ∪ {t}, Γ=%v", ex.Tuple, ex.Contingency)
	}
	return nil
}

// checkOracles confirms every reported minimum against the
// definition-level brute-force searches and the greedy upper bound,
// spot-checks that non-causes admit no contingency at all, and
// asserts the exact-solver ablation invariant: disabling any
// optimization (or all of them) must not change a single size.
// Comparison counts are accumulated into stats.
func checkOracles(inst *causegen.Instance, nl lineage.DNF, causeSet map[rel.TupleID]bool, rank []core.Explanation, opts CheckOptions, stats *CheckStats) error {
	if inst.WhyNo {
		if len(inst.DB.EndoIDs()) > opts.WhyNoBruteEndoCap {
			return nil
		}
		for _, ex := range rank {
			size, ok, err := whyno.BruteForceMinContingency(inst.DB, inst.Query, ex.Tuple)
			if err != nil {
				return err
			}
			stats.BruteChecked++
			if !ok || size != ex.ContingencySize {
				return fmt.Errorf("whyno cause %d: engine min|Γ|=%d, brute force says (%d,%v)",
					ex.Tuple, ex.ContingencySize, size, ok)
			}
		}
		sampled := 0
		for _, id := range inst.DB.EndoIDs() {
			if causeSet[id] || sampled >= opts.NonCauseSample {
				continue
			}
			sampled++
			size, ok, err := whyno.BruteForceMinContingency(inst.DB, inst.Query, id)
			if err != nil {
				return err
			}
			stats.BruteChecked++
			if ok {
				return fmt.Errorf("whyno non-cause %d: brute force found contingency of size %d", id, size)
			}
		}
		return nil
	}

	// One interned index backs every lineage-level oracle run on this
	// instance — brute force, greedy, and the ablation re-checks.
	ix := lineage.NewIndex(nl)
	vars := nl.Vars()
	for _, ex := range rank {
		if len(vars) <= opts.BruteVarCap {
			size, ok := exact.BruteForceMinContingencyIndex(ix, ex.Tuple)
			stats.BruteChecked++
			if !ok || size != ex.ContingencySize {
				return fmt.Errorf("whyso cause %d: engine min|Γ|=%d, brute force says (%d,%v)",
					ex.Tuple, ex.ContingencySize, size, ok)
			}
		}
		g, gOK := exact.GreedyMinContingencyIndex(ix, ex.Tuple)
		if !gOK {
			return fmt.Errorf("whyso cause %d: greedy misreports a cause as a non-cause", ex.Tuple)
		}
		if g < ex.ContingencySize {
			return fmt.Errorf("whyso cause %d: greedy %d undercuts exact minimum %d", ex.Tuple, g, ex.ContingencySize)
		}
	}
	if opts.AblationVarCap > 0 && len(vars) <= opts.AblationVarCap {
		for i, ex := range rank {
			if i >= opts.AblationSample {
				break
			}
			for _, ab := range ablationVariants {
				size, ok := exact.MinContingencyIndex(ix, ex.Tuple, ab.opts)
				stats.AblationChecked++
				if !ok || size != ex.ContingencySize {
					return fmt.Errorf("ablation %s: cause %d got (%d,%v), want (%d,true)",
						ab.name, ex.Tuple, size, ok, ex.ContingencySize)
				}
			}
		}
	}
	if len(vars) <= opts.NonCauseBruteCap {
		sampled := 0
		for _, id := range inst.DB.EndoIDs() {
			if causeSet[id] || sampled >= opts.NonCauseSample {
				continue
			}
			sampled++
			size, ok := exact.BruteForceMinContingencyIndex(ix, id)
			stats.BruteChecked++
			if ok {
				return fmt.Errorf("whyso non-cause %d: brute force found contingency of size %d", id, size)
			}
			if g, gOK := exact.GreedyMinContingencyIndex(ix, id); gOK {
				return fmt.Errorf("whyso non-cause %d: greedy claims a contingency of size %d", id, g)
			}
		}
	}
	return nil
}

func equalIDs(a, b []rel.TupleID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// equalSignatures compares two rankings on (tuple, ρ, min|Γ|) — the
// values the dichotomy theorem pins down, independent of which
// algorithm computed them or which of several minimum contingency
// sets it returned.
func equalSignatures(what string, a, b []core.Explanation) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d vs %d entries", what, len(a), len(b))
	}
	for i := range a {
		if a[i].Tuple != b[i].Tuple || a[i].Rho != b[i].Rho || a[i].ContingencySize != b[i].ContingencySize {
			return fmt.Errorf("%s: entry %d differs: (%d, ρ=%v, |Γ|=%d) vs (%d, ρ=%v, |Γ|=%d)",
				what, i, a[i].Tuple, a[i].Rho, a[i].ContingencySize, b[i].Tuple, b[i].Rho, b[i].ContingencySize)
		}
	}
	return nil
}
