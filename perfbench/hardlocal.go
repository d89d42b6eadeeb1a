package main

import (
	"fmt"
	"math/rand"
	"time"

	qc "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/causegen"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/whyno"
	"github.com/querycause/querycause/internal/workload"
)

// hardPoolRounds is how many rounds of distinct instances hard-local
// generates; the measured loop cycles through them.
const hardPoolRounds = 64

// hardInstance is one in-process explanation of hard-local.
type hardInstance struct {
	db    *rel.Database
	q     *rel.Query
	whyNo bool
	// tiny instances are checked against brute force and left out of
	// the latency series.
	tiny bool
	sess qc.Session
	ref  *reference
}

// hardRound generates one round's instances: the h₁* stars of every
// configured size, a tiny star, why-no chains and a tiny chain, each
// with its naive reference.
func hardRound(sz sizes, rng *rand.Rand) ([]*hardInstance, error) {
	var out []*hardInstance
	for i, n := range append(append([]int(nil), sz.stars...), sz.tinyStar) {
		// A star whose query holds on its exogenous tuples alone has no
		// causes and nothing to search; draw until it has some.
		for tries := 0; ; tries++ {
			if tries == 100 {
				return nil, fmt.Errorf("hard-local: no star of size %d with causes in 100 draws", n)
			}
			star := causegen.HardStar(rng.Int63(), n, 0.1)
			in := &hardInstance{db: star.DB, q: star.Query, tiny: i == len(sz.stars)}
			var err error
			if in.ref, err = naiveReference(in.db, in.q); err != nil {
				return nil, err
			}
			if len(in.ref.causes) > 0 {
				out = append(out, in)
				break
			}
		}
	}
	for i := 0; i <= sz.whyNoPerRound; i++ {
		n, tiny := sz.whyNo, i == sz.whyNoPerRound
		if tiny {
			n = sz.tinyWhyNo
		}
		// A random chain is a why-no question only when the query is
		// false on the real tuples and true once every candidate is
		// added; draw until it is.
		for tries := 0; ; tries++ {
			if tries == 100 {
				return nil, fmt.Errorf("hard-local: no valid why-no chain of %d candidates in 100 draws", n)
			}
			db, q := workload.WhyNoChain(rng.Int63(), n)
			if whyno.CheckInstance(db, q) != nil {
				continue
			}
			ref, err := naiveReference(db, q)
			if err != nil {
				return nil, err
			}
			out = append(out, &hardInstance{db: db, q: q, whyNo: true, tiny: tiny, ref: ref})
			break
		}
	}
	return out, nil
}

// runHardLocal: in-process sessions over seeded h₁* stars drained
// through RankStream, interleaved with why-no explains of chain
// instances.
func runHardLocal(b *bench) error {
	rng := rand.New(rand.NewSource(b.cfg.seed))
	var pool [][]*hardInstance
	for i := 0; i < hardPoolRounds; i++ {
		round, err := hardRound(b.sz, rng)
		if err != nil {
			return err
		}
		pool = append(pool, round)
	}

	// Set-up, repeated: open a session on every instance and open its
	// explanation (lineage and causes, no ranking).
	for i := 0; i < b.sz.setups; i++ {
		start := time.Now()
		for _, round := range pool {
			for _, in := range round {
				if in.sess != nil {
					in.sess.Close()
				}
				sess, err := qc.Open(in.db, qc.WithParallelism(1))
				if err != nil {
					return err
				}
				if in.whyNo {
					_, err = sess.WhyNo(b.ctx, in.q)
				} else {
					_, err = sess.WhySo(b.ctx, in.q)
				}
				if err != nil {
					return fmt.Errorf("set-up: %w", err)
				}
				in.sess = sess
			}
		}
		b.setup = append(b.setup, time.Since(start).Seconds())
	}
	b.measureHeap()

	next := 0
	err := b.loop(func() (time.Duration, error) {
		round := pool[next%len(pool)]
		// One star per round, rotating over the sizes, is also ranked
		// blocking so its sorted stream can be compared with Rank.
		compare := next % len(b.sz.stars)
		next++
		var prog time.Duration
		star := 0
		for _, in := range round {
			if in.whyNo {
				prog += b.hardWhyNo(in)
				continue
			}
			prog += b.hardStar(in, !in.tiny && star == compare)
			if !in.tiny {
				star++
			}
		}
		return prog, nil
	})
	if err != nil {
		return err
	}
	for _, round := range pool {
		for _, in := range round {
			in.sess.Close()
		}
	}
	return nil
}

// hardStar drains one star's RankStream and checks it.
func (b *bench) hardStar(in *hardInstance, compare bool) time.Duration {
	op := b.tr.begin("op", -1)
	b.tr.gcStart()
	start := time.Now()
	var first time.Duration
	var got []qc.Explanation
	r, err := in.sess.WhySo(b.ctx, in.q)
	if err == nil {
		for e, serr := range r.RankStream(b.ctx) {
			if serr != nil {
				err = serr
				break
			}
			if got == nil {
				first = time.Since(start)
			}
			got = append(got, e)
		}
	}
	d := time.Since(start)
	b.tr.gcStop()
	b.tr.end(op)
	if err != nil {
		b.fail(false, "star", err)
		return d
	}
	if !in.tiny {
		b.record("first_explanation_ms", first)
		b.record("hard_rank_ms", d)
	}
	if b.tr.recording() {
		if lin, err := b.rp.lineage(in.db, in.q, op); err == nil {
			_, _ = b.rp.classify(in.db, in.q, op)
			b.rp.rankExact(lin, op)
		}
	}
	sorted := append([]qc.Explanation(nil), got...)
	qc.SortExplanations(sorted)
	if err := checkStar(in.ref, in.db, sorted, in.tiny); err != nil {
		b.fail(true, "star", err)
		return d
	}
	if compare || in.tiny {
		ranked, err := r.Rank(b.ctx)
		if err == nil {
			err = checkSortedStream(got, ranked)
		}
		if err != nil {
			b.fail(true, "star stream against Rank", err)
			return d
		}
	}
	b.attempted++
	return d
}

// hardWhyNo runs one why-no explain and checks it.
func (b *bench) hardWhyNo(in *hardInstance) time.Duration {
	op := b.tr.begin("op", -1)
	b.tr.gcStart()
	start := time.Now()
	var exps []qc.Explanation
	r, err := in.sess.WhyNo(b.ctx, in.q)
	if err == nil {
		exps, err = r.Rank(b.ctx)
	}
	d := time.Since(start)
	b.tr.gcStop()
	b.tr.end(op)
	if err != nil {
		b.fail(false, "why-no", err)
		return d
	}
	if !in.tiny {
		b.record("whyno_rank_ms", d)
	}
	if b.tr.recording() {
		_ = b.rp.whyNo(in.db, in.q, op)
	}
	if err := checkWhyNo(in.ref, in.db, in.q, exps, in.tiny); err != nil {
		b.fail(true, "why-no", err)
		return d
	}
	b.attempted++
	return d
}
