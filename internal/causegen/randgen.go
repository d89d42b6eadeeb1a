// Seeded random workload generation for the differential harness
// (internal/difftest): arbitrary safe Boolean conjunctive queries with
// controllable atom count, arity, join shape, self-joins, constants,
// and domain size, paired with database instances carrying randomized
// endogenous/exogenous masks — plus valid Why-No instances (real
// database Dˣ false on the query, candidates Dⁿ completing it).
//
// Everything is a pure function of an int64 seed: RandomInstance(seed,
// cfg) always rebuilds the identical instance, so any failure found by
// a sweep replays from its seed alone.

package causegen

import (
	"fmt"
	"math/rand"

	"github.com/querycause/querycause/internal/ra"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/whyno"
)

// GenConfig bounds the random query/instance generator. The zero
// value gets defaults from Normalize; every field is a maximum or a
// probability, and the generator draws the actual value per instance.
// For probabilities, 0 means "use the default"; a negative value means
// literally zero (e.g. SelfJoinProb: -1 sweeps only self-join-free
// queries).
type GenConfig struct {
	// MaxAtoms bounds the query body length (min 1). Default 3.
	MaxAtoms int
	// MaxArity bounds per-relation arity (min 1). Default 2.
	MaxArity int
	// MaxVars bounds the variable pool. Default 4.
	MaxVars int
	// DomainSize bounds the constant pool d0..d{n-1}. Default 4.
	DomainSize int
	// TuplesPerRelation bounds random noise tuples per relation.
	// Default 6.
	TuplesPerRelation int
	// ExoProb is the per-tuple probability of being exogenous (Why-So)
	// or of a noise tuple landing in the real database Dˣ (Why-No).
	// Default 0.3.
	ExoProb float64
	// ConstProb is the per-term probability of a constant instead of a
	// variable. Default 0.15.
	ConstProb float64
	// SelfJoinProb is the per-atom probability of reusing an earlier
	// atom's relation (yielding self-joins, the dichotomy's excluded
	// case). Default 0.15.
	SelfJoinProb float64
	// WhyNoProb is the probability of generating a Why-No instance
	// instead of a Why-So one. Default 0.3.
	WhyNoProb float64
	// HardStarProb is the probability of emitting a member of the
	// NP-hard star family h₁* (randomized size and exogenous mask, see
	// HardStar) instead of a random query instance. Unlike the other
	// probabilities its default is 0 — off — so existing seeds keep
	// generating identical instances; sweeps targeting the exact
	// solver opt in (cmd/fuzzcause -hardstar-prob).
	HardStarProb float64
}

// Normalize resolves defaults: zero maxima/probabilities get their
// documented defaults. Negative probabilities pass through unchanged
// (they never fire, since rng.Float64() ∈ [0,1)), which keeps
// Normalize idempotent — a clamp to 0 would read as "unset" on the
// next pass and silently restore the default. Generation and
// replay-command rendering both use the normalized form, so two
// configs describing the same population compare equal.
func (c GenConfig) Normalize() GenConfig {
	if c.MaxAtoms <= 0 {
		c.MaxAtoms = 3
	}
	if c.MaxArity <= 0 {
		c.MaxArity = 2
	}
	if c.MaxVars <= 0 {
		c.MaxVars = 4
	}
	if c.DomainSize <= 0 {
		c.DomainSize = 4
	}
	if c.TuplesPerRelation <= 0 {
		c.TuplesPerRelation = 6
	}
	prob := func(v, def float64) float64 {
		if v == 0 {
			return def
		}
		return v
	}
	c.ExoProb = prob(c.ExoProb, 0.3)
	c.ConstProb = prob(c.ConstProb, 0.15)
	c.SelfJoinProb = prob(c.SelfJoinProb, 0.15)
	c.WhyNoProb = prob(c.WhyNoProb, 0.3)
	return c
}

// Instance is one generated differential-test scenario: a Boolean
// query over a database with endogenous/exogenous masks, flagged
// Why-So (the query holds; explain the answer) or Why-No (the query
// fails on the exogenous part alone; explain the non-answer). Seed
// reproduces the instance via RandomInstance with the same config.
type Instance struct {
	Seed  int64
	DB    *rel.Database
	Query *rel.Query
	WhyNo bool
}

// String summarizes the instance for failure messages.
func (in *Instance) String() string {
	kind := "whyso"
	if in.WhyNo {
		kind = "whyno"
	}
	return fmt.Sprintf("%s seed=%d tuples=%d query=%v", kind, in.Seed, in.DB.NumTuples(), in.Query)
}

func domVal(i int) rel.Value { return rel.Value(fmt.Sprintf("d%d", i)) }

// RandomQuery draws a Boolean conjunctive query: relation names R0…,
// lower-case variables x0… (so Query.String round-trips through the
// parser), constants from the domain pool. Later atoms reuse an
// already-bound variable with high probability, biasing toward
// connected join shapes, while still emitting disconnected and
// self-join queries occasionally.
func RandomQuery(rng *rand.Rand, cfg GenConfig) *rel.Query {
	cfg = cfg.Normalize()
	nAtoms := 1 + rng.Intn(cfg.MaxAtoms)
	type relSig struct {
		name  string
		arity int
	}
	var sigs []relSig
	var atoms []rel.Atom
	var usedVars []string
	usedSet := make(map[string]bool)
	varName := func(i int) string { return fmt.Sprintf("x%d", i) }

	for i := 0; i < nAtoms; i++ {
		var sig relSig
		if len(sigs) > 0 && rng.Float64() < cfg.SelfJoinProb {
			sig = sigs[rng.Intn(len(sigs))]
		} else {
			sig = relSig{name: fmt.Sprintf("R%d", len(sigs)), arity: 1 + rng.Intn(cfg.MaxArity)}
			sigs = append(sigs, sig)
		}
		terms := make([]rel.Term, sig.arity)
		for k := range terms {
			switch {
			case rng.Float64() < cfg.ConstProb:
				terms[k] = rel.C(domVal(rng.Intn(cfg.DomainSize)))
			case len(usedVars) > 0 && rng.Float64() < 0.7:
				terms[k] = rel.V(usedVars[rng.Intn(len(usedVars))])
			default:
				v := varName(rng.Intn(cfg.MaxVars))
				terms[k] = rel.V(v)
				if !usedSet[v] {
					usedSet[v] = true
					usedVars = append(usedVars, v)
				}
			}
		}
		atoms = append(atoms, rel.Atom{Pred: sig.name, Terms: terms})
	}
	return rel.NewBoolean(atoms...)
}

// dbBuilder accumulates deduplicated tuples ((relation, args) set
// semantics) before committing them to a Database in a deterministic
// order.
type dbBuilder struct {
	db   *rel.Database
	seen map[string]bool
}

func newDBBuilder() *dbBuilder {
	return &dbBuilder{db: rel.NewDatabase(), seen: make(map[string]bool)}
}

func tupleKey(relName string, args []rel.Value) string {
	k := relName
	for _, a := range args {
		k += "\x00" + string(a)
	}
	return k
}

// add inserts the tuple unless an identical row already exists (the
// first insertion wins, including its endo flag). Reports whether the
// row was inserted.
func (b *dbBuilder) add(relName string, endo bool, args []rel.Value) bool {
	k := tupleKey(relName, args)
	if b.seen[k] {
		return false
	}
	b.seen[k] = true
	b.db.MustAdd(relName, endo, args...)
	return true
}

// randomArgs draws a tuple over the domain honoring any constants the
// atom pins.
func randomArgs(rng *rand.Rand, arity, domain int) []rel.Value {
	args := make([]rel.Value, arity)
	for i := range args {
		args[i] = domVal(rng.Intn(domain))
	}
	return args
}

// witnessArgs instantiates one atom under a full variable binding.
func witnessArgs(a rel.Atom, binding map[string]rel.Value) []rel.Value {
	args := make([]rel.Value, len(a.Terms))
	for i, t := range a.Terms {
		if t.IsVar {
			args[i] = binding[t.Var]
		} else {
			args[i] = t.Const
		}
	}
	return args
}

// randomBinding draws one value per query variable.
func randomBinding(rng *rand.Rand, q *rel.Query, domain int) map[string]rel.Value {
	binding := make(map[string]rel.Value)
	for _, v := range q.Vars() {
		binding[v] = domVal(rng.Intn(domain))
	}
	return binding
}

// RandomInstance generates one Why-So or Why-No instance from the
// seed. The construction plants a full witness valuation so Why-So
// queries always hold and Why-No instances always have causes, then
// layers random noise tuples with the configured exogenous mask.
// Why-No instances are validated (query false on Dˣ, true on Dˣ∪Dⁿ)
// before being returned; generation is deterministic in (seed, cfg).
func RandomInstance(seed int64, cfg GenConfig) *Instance {
	cfg = cfg.Normalize()
	rng := rand.New(rand.NewSource(seed))
	// The hard-family branch draws from the rng only when enabled, so
	// configs without it reproduce their historical instances exactly.
	if cfg.HardStarProb > 0 && rng.Float64() < cfg.HardStarProb {
		return hardStar(seed, rng, 2+rng.Intn(maxSweepStarSize), cfg.ExoProb)
	}
	q := RandomQuery(rng, cfg)
	whyNo := rng.Float64() < cfg.WhyNoProb
	if whyNo {
		return randomWhyNo(seed, rng, q, cfg)
	}
	return randomWhySo(seed, rng, q, cfg)
}

func randomWhySo(seed int64, rng *rand.Rand, q *rel.Query, cfg GenConfig) *Instance {
	b := newDBBuilder()
	// Witness valuation: one matching tuple per atom, so q holds.
	binding := randomBinding(rng, q, cfg.DomainSize)
	for _, a := range q.Atoms {
		b.add(a.Pred, rng.Float64() >= cfg.ExoProb, witnessArgs(a, binding))
	}
	// Noise per relation used by the query.
	arities := queryArities(q)
	for _, ra := range arities {
		n := rng.Intn(cfg.TuplesPerRelation + 1)
		for i := 0; i < n; i++ {
			b.add(ra.name, rng.Float64() >= cfg.ExoProb, randomArgs(rng, ra.arity, cfg.DomainSize))
		}
	}
	return &Instance{Seed: seed, DB: b.db, Query: q}
}

// randomWhyNo builds a valid Why-No instance: exogenous tuples form
// the real database Dˣ on which q must be false; endogenous tuples are
// the candidate insertions Dⁿ, including a planted all-endogenous
// witness so q holds on Dˣ ∪ Dⁿ. Noise that makes q true on Dˣ alone
// is discarded in bounded retries; the fallback of zero exogenous
// noise is always valid.
func randomWhyNo(seed int64, rng *rand.Rand, q *rel.Query, cfg GenConfig) *Instance {
	arities := queryArities(q)
	for attempt := 0; ; attempt++ {
		b := newDBBuilder()
		// Exogenous context Dˣ (none on the final attempt).
		if attempt < 4 {
			exoBudget := rng.Intn(cfg.TuplesPerRelation + 1)
			for _, ra := range arities {
				for i := 0; i < exoBudget; i++ {
					if rng.Float64() < cfg.ExoProb {
						b.add(ra.name, false, randomArgs(rng, ra.arity, cfg.DomainSize))
					}
				}
			}
			if held, err := ra.Holds(b.db, q); err != nil || held {
				continue // Dˣ already satisfies q: not a non-answer
			}
		}
		// Candidate insertions Dⁿ: a planted witness plus noise. A
		// candidate colliding with a Dˣ row is dropped by set semantics.
		binding := randomBinding(rng, q, cfg.DomainSize)
		for _, a := range q.Atoms {
			b.add(a.Pred, true, witnessArgs(a, binding))
		}
		for _, ra := range arities {
			n := rng.Intn(cfg.TuplesPerRelation/2 + 1)
			for i := 0; i < n; i++ {
				b.add(ra.name, true, randomArgs(rng, ra.arity, cfg.DomainSize))
			}
		}
		if whyno.CheckInstance(b.db, q) == nil {
			return &Instance{Seed: seed, DB: b.db, Query: q, WhyNo: true}
		}
		// The planted witness may have collided with Dˣ rows; retry with
		// fresh draws. The attempt >= 4 path (Dˣ = ∅, all-endogenous
		// witness) always validates.
	}
}

type relArity struct {
	name  string
	arity int
}

// queryArities lists the distinct relations of q with their arities in
// first-occurrence order.
func queryArities(q *rel.Query) []relArity {
	var out []relArity
	seen := make(map[string]bool)
	for _, a := range q.Atoms {
		if !seen[a.Pred] {
			seen[a.Pred] = true
			out = append(out, relArity{name: a.Pred, arity: len(a.Terms)})
		}
	}
	return out
}
