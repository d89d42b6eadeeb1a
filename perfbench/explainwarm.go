package main

import (
	"fmt"
	"math/rand"
	"time"

	qc "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/imdb"
	"github.com/querycause/querycause/internal/lineage"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/respflow"
)

// genres are the candidate answers of the Fig. 1 genre query: the
// generator's default ten-genre vocabulary.
var genres = []string{"Drama", "Family", "Fantasy", "History", "Horror", "Music", "Musical", "Mystery", "Romance", "Sci-Fi"}

// warmAnswer is one explained answer of explain-warm.
type warmAnswer struct {
	genre string
	ref   *reference
	// lin and net back the traced run's replay of a warm explain.
	lin lineage.DNF
	net *respflow.Network
}

// runExplainWarm: remote WhySo + Rank of the genre query over
// synthetic IMDB, every round explaining each genre answer once in an
// order the seed draws; every answer is explained once during set-up,
// so each timed operation hits the engine cache. The database is the
// fixed fixture: with a seeded one, the number of Burton directors —
// and with it the size of every answer — moved op_ms by ±12% from seed
// to seed, more than the host's own noise.
func runExplainWarm(b *bench) error {
	stop, err := b.boot()
	if err != nil {
		return err
	}
	defer stop()
	rng := rand.New(rand.NewSource(b.cfg.seed))
	db := imdb.Synthetic(imdb.Config{Seed: fixtureSeed, Directors: b.sz.warmDirectors, BurtonShare: 0.02})
	q := imdb.GenreQuery()

	// The oracle: per answer, the naive plane's lineage ranked by the
	// exact solver. Genres without a Burton movie are not answers and
	// are left out of the rotation.
	var answers []*warmAnswer
	for _, g := range genres {
		bq, err := q.Bind(rel.Value(g))
		if err != nil {
			return err
		}
		ref, err := exactReference(db, bq, 2)
		if err != nil {
			return err
		}
		if len(ref.causes) > 0 {
			answers = append(answers, &warmAnswer{genre: g, ref: ref})
		}
	}
	if len(answers) == 0 {
		return fmt.Errorf("explain-warm: no genre is an answer")
	}

	// Set-up, repeated: upload and one cold explain per answer. The
	// last session stays for the measured loop.
	var sess qc.Session
	for i := 0; i < b.sz.setups; i++ {
		if sess != nil {
			if err := sess.Close(); err != nil {
				return err
			}
		}
		start := time.Now()
		sess, err = qc.Dial(b.ctx, b.url, db, qc.WithHTTPClient(b.hc))
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		warmed := make([][]qc.Explanation, len(answers))
		for j, a := range answers {
			if warmed[j], err = b.explain(sess, q, rel.Value(a.genre), -1); err != nil {
				sess.Close()
				return fmt.Errorf("warming %s: %w", a.genre, err)
			}
		}
		b.setup = append(b.setup, time.Since(start).Seconds())
		for j, a := range answers {
			if err := checkWhySo(a.ref, db, warmed[j]); err != nil {
				b.fail(true, "set-up explain "+a.genre, err)
			}
		}
	}
	defer sess.Close()
	b.measureHeap()

	if b.tr != nil {
		// The replay's counterpart of the set-up: each answer's engine
		// and network, built once, as the server's cached engine holds
		// them.
		for _, a := range answers {
			bq, _ := q.Bind(rel.Value(a.genre))
			if a.lin, err = b.rp.lineage(db, bq, -1); err != nil {
				return err
			}
			cert, err := b.rp.classify(db, bq, -1)
			if err != nil {
				return err
			}
			if a.net, err = b.rp.network(db, bq, cert, -1); err != nil {
				return err
			}
		}
	}

	err = b.loop(func() (time.Duration, error) {
		var prog time.Duration
		for _, i := range rng.Perm(len(answers)) {
			a := answers[i]
			op := b.tr.begin("op", -1)
			b.tr.gcStart()
			start := time.Now()
			exps, err := b.explain(sess, q, rel.Value(a.genre), op)
			d := time.Since(start)
			b.tr.gcStop()
			b.tr.end(op)
			prog += d
			if err != nil {
				b.fail(false, "explain "+a.genre, err)
				continue
			}
			b.record("explain_warm_ms", d)
			if b.tr.recording() {
				b.rp.encode(db, b.rp.rankFlow(a.lin, a.net, op), op)
			}
			if err := checkWhySo(a.ref, db, exps); err != nil {
				b.fail(true, "explain "+a.genre, err)
				continue
			}
			b.attempted++
		}
		return prog, nil
	})
	return err
}
