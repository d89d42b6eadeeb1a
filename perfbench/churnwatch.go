package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	qc "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/delta"
	"github.com/querycause/querycause/internal/imdb"
	"github.com/querycause/querycause/internal/lineage"
	"github.com/querycause/querycause/internal/parser"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/respflow"
	"github.com/querycause/querycause/internal/rewrite"
	"github.com/querycause/querycause/internal/server"
)

// watchedGenre is the answer churn-watch keeps a live watch on.
const watchedGenre = "Musical"

// fixtureSeed generates the IMDB fixture of explain-warm and
// churn-watch.
const fixtureSeed = 7

// frame is one watch event as the benchmark received it.
type frame struct {
	ev  qc.DiffEvent
	err error
	at  time.Time
}

// churnMovie is a Burton movie the mix can move in and out of the
// watched answer.
type churnMovie struct {
	id      rel.TupleID // current Movie tuple
	args    []string
	musical bool
}

// churn holds churn-watch's state between cycles.
type churn struct {
	b       *bench
	q, bq   *rel.Query
	db      *rel.Database // the session's mirror of the server database
	replica *rel.Database // the benchmark's own copy, mutated in step
	sess    qc.Session
	rng     *rand.Rand
	movies  []*churnMovie
	frames  chan frame
	state   []qc.ExplanationDTO // watch frames folded with ApplyDiff
	version uint64
	round   int
	// The traced run's replay of the server's cached engine.
	cert *rewrite.Certificate
	lin  lineage.DNF
	net  *respflow.Network
	dtos []qc.ExplanationDTO
}

// runChurnWatch: a remote session over synthetic IMDB with one live
// watch on the Musical answer. Each cycle sends one mutation, waits
// for its diff frame and re-explains the watched answer warm; every
// round ends with a cold check on a fresh session at the current
// version.
func runChurnWatch(b *bench) error {
	stop, err := b.boot()
	if err != nil {
		return err
	}
	defer stop()
	// The database is a fixed fixture; the seed draws the mutation
	// stream. The watched answer's size, which sets the cost of every
	// re-rank, then does not vary from seed to seed.
	c := &churn{b: b, q: imdb.GenreQuery(), rng: rand.New(rand.NewSource(b.cfg.seed))}
	c.db = imdb.Synthetic(imdb.Config{Seed: fixtureSeed, Directors: b.sz.churnDirectors, BurtonShare: 0.02})
	if c.bq, err = c.q.Bind(watchedGenre); err != nil {
		return err
	}
	c.movies = burtonMovies(c.db)

	// Set-up, repeated: upload, one explain of the watched answer, and
	// a watch subscription up to its snapshot. The last one stays.
	var cancelWatch context.CancelFunc
	var wg sync.WaitGroup
	closeWatch := func() {
		if cancelWatch != nil {
			cancelWatch()
			wg.Wait()
		}
	}
	defer closeWatch()
	for i := 0; i < b.sz.setups; i++ {
		closeWatch()
		if c.sess != nil {
			if err := c.sess.Close(); err != nil {
				return err
			}
		}
		start := time.Now()
		if c.sess, err = qc.Dial(b.ctx, b.url, c.db, qc.WithHTTPClient(b.hc)); err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		if _, err := c.explain(c.sess, -1); err != nil {
			return fmt.Errorf("warming: %w", err)
		}
		wctx, cancel := context.WithCancel(b.ctx)
		cancelWatch = cancel
		// Frames wait here while the loop runs its checks; one cycle
		// produces one frame, so a small buffer never fills.
		c.frames = make(chan frame, 8)
		wg.Add(1)
		go c.watch(wctx, &wg, c.frames)
		f, err := c.nextFrame()
		if err != nil {
			return err
		}
		b.setup = append(b.setup, time.Since(start).Seconds())
		if f.ev.Type != "snapshot" {
			return fmt.Errorf("first watch frame is %q, want snapshot", f.ev.Type)
		}
		c.state = qc.ApplyDiff(nil, f.ev)
		c.version = f.ev.Version
	}
	defer c.sess.Close()
	b.measureHeap()
	c.replica = c.db.Clone()

	if b.tr != nil {
		if c.lin, err = b.rp.lineage(c.replica, c.bq, -1); err != nil {
			return err
		}
		if c.cert, err = b.rp.classify(c.replica, c.bq, -1); err != nil {
			return err
		}
		if c.net, err = b.rp.network(c.replica, c.bq, c.cert, -1); err != nil {
			return err
		}
		c.dtos = b.rp.encode(c.replica, b.rp.rankFlow(c.lin, c.net, -1), -1)
	}

	err = b.loop(func() (time.Duration, error) {
		var prog time.Duration
		steps, err := c.mix()
		if err != nil {
			return 0, err
		}
		for _, s := range steps {
			d, err := c.cycle(s)
			prog += d
			if err != nil {
				return prog, err
			}
		}
		d, err := c.coldCheck()
		prog += d
		c.round++
		return prog, err
	})
	return err
}

// watch forwards the watch stream's frames until ctx ends.
func (c *churn) watch(ctx context.Context, wg *sync.WaitGroup, out chan<- frame) {
	defer wg.Done()
	spec := qc.WatchSpec{Query: c.q, Answer: []qc.Value{watchedGenre}}
	for ev, err := range c.sess.Watch(ctx, spec) {
		select {
		case out <- frame{ev: ev, err: err, at: time.Now()}:
		case <-ctx.Done():
			return
		}
		if err != nil {
			return
		}
	}
}

// nextFrame waits for the next watch frame.
func (c *churn) nextFrame() (frame, error) {
	select {
	case f := <-c.frames:
		if f.err != nil {
			return f, fmt.Errorf("watch: %w", f.err)
		}
		return f, nil
	case <-time.After(time.Minute):
		return frame{}, fmt.Errorf("watch: no frame within a minute")
	}
}

// explain is a WhySo + Rank of the watched answer.
func (c *churn) explain(sess qc.Session, op int) ([]qc.Explanation, error) {
	return c.b.explain(sess, c.q, watchedGenre, op)
}

// burtonMovies lists the movies of Burton directors, in id order.
func burtonMovies(db *rel.Database) []*churnMovie {
	burton := make(map[rel.Value]bool)
	director := make(map[rel.Value]rel.Value)
	musical := make(map[rel.Value]bool)
	for _, t := range db.Tuples() {
		switch t.Rel {
		case "Director":
			burton[t.Args[0]] = t.Args[2] == "Burton"
		case "MovieDirectors":
			director[t.Args[1]] = t.Args[0]
		case "Genre":
			if t.Args[1] == watchedGenre {
				musical[t.Args[0]] = true
			}
		}
	}
	var out []*churnMovie
	for _, t := range db.Tuples() {
		if t.Rel == "Movie" && burton[director[t.Args[0]]] {
			args := make([]string, len(t.Args))
			for i, a := range t.Args {
				args[i] = string(a)
			}
			out = append(out, &churnMovie{id: t.ID, args: args, musical: musical[t.Args[0]]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// step is one mutation of the churn mix. A delete removes *target; an
// insert stores the id it was given in *target, so a later step of the
// round can delete it.
type step struct {
	kind   string
	insert *qc.TupleSpec
	target *rel.TupleID
}

// mix draws one round of the mutation mix: a Genre insert that adds a
// movie to the watched answer and its delete; the delete and re-insert
// of an endogenous Movie of the answer; and an insert and delete in a
// relation the query never reads. Inserts are paired with deletes, so
// the database keeps its size.
func (c *churn) mix() ([]step, error) {
	var plain, inAnswer []*churnMovie
	for _, m := range c.movies {
		if m.musical {
			inAnswer = append(inAnswer, m)
		} else {
			plain = append(plain, m)
		}
	}
	if len(plain) == 0 || len(inAnswer) == 0 {
		return nil, fmt.Errorf("churn-watch: the database needs Burton movies in and out of the %s answer", watchedGenre)
	}
	gain := plain[c.rng.Intn(len(plain))]
	move := inAnswer[c.rng.Intn(len(inAnswer))]
	var genreID, auditID rel.TupleID
	return []step{
		{kind: "genre insert", insert: &qc.TupleSpec{Rel: "Genre", Args: []string{gain.args[0], watchedGenre}}, target: &genreID},
		{kind: "genre delete", target: &genreID},
		{kind: "movie delete", target: &move.id},
		{kind: "movie re-insert", insert: &qc.TupleSpec{Rel: "Movie", Args: move.args, Endo: true}, target: &move.id},
		{kind: "audit insert", insert: &qc.TupleSpec{Rel: "AuditLog", Args: []string{fmt.Sprintf("probe-%d", c.round)}}, target: &auditID},
		{kind: "audit delete", target: &auditID},
	}, nil
}

// cycle sends one mutation, waits for its watch frame, re-explains the
// watched answer warm, and checks all three. It returns the program's
// time; an error means the session and the replica may have parted,
// and ends the run.
func (c *churn) cycle(s step) (time.Duration, error) {
	b := c.b
	op := b.tr.begin("op", -1)
	b.tr.gcStart()
	start := time.Now()
	var ids []qc.TupleID
	var err error
	if s.insert != nil {
		call := b.tr.callBegin("insert", op)
		ids, err = c.sess.Insert(b.ctx, *s.insert)
		b.tr.callEnd(call)
	} else {
		call := b.tr.callBegin("delete", op)
		err = c.sess.Delete(b.ctx, *s.target)
		b.tr.callEnd(call)
	}
	mutated := time.Since(start)
	var f frame
	var exps []qc.Explanation
	var reexplain time.Duration
	if err == nil {
		f, err = c.nextFrame()
	}
	if err == nil {
		at := time.Now()
		exps, err = c.explain(c.sess, op)
		reexplain = time.Since(at)
	}
	d := time.Since(start)
	b.tr.gcStop()
	b.tr.end(op)
	if err != nil {
		b.fail(false, s.kind, err)
		return d, fmt.Errorf("churn-watch: %s: %w", s.kind, err)
	}
	b.record("mutate_ms", mutated)
	b.record("watch_lag_ms", f.at.Sub(start))
	b.record("reexplain_ms", reexplain)

	// The same mutation on the replica.
	m := delta.Mutation{Inserted: -1, Deleted: -1}
	if s.insert != nil {
		args := make([]rel.Value, len(s.insert.Args))
		for i, a := range s.insert.Args {
			args[i] = rel.Value(a)
		}
		id, err := c.replica.Add(s.insert.Rel, s.insert.Endo, args...)
		if err != nil || len(ids) != 1 || id != ids[0] {
			b.fail(true, s.kind, fmt.Errorf("replica insert gave id %d (err %v), the session %v", id, err, ids))
			return d, fmt.Errorf("churn-watch: replica diverged")
		}
		*s.target = id
		m.Rel, m.Inserted = s.insert.Rel, id
	} else {
		m.Rel, m.Deleted, m.WasEndo = c.replica.Tuple(*s.target).Rel, *s.target, c.replica.Endo(*s.target)
		if err := c.replica.Delete(*s.target); err != nil {
			b.fail(true, s.kind, fmt.Errorf("replica delete: %w", err))
			return d, fmt.Errorf("churn-watch: replica diverged")
		}
	}
	if b.tr.recording() {
		c.replay(m, op)
	}

	if err := c.checkFrame(f); err != nil {
		b.fail(true, s.kind, err)
		return d, nil
	}
	warm := make([]qc.ExplanationDTO, len(exps))
	for i, e := range exps {
		warm[i] = server.NewExplanationDTO(c.db, e)
	}
	if err := sameBytes("folded watch state and warm re-explain", c.state, warm); err != nil {
		b.fail(true, s.kind, err)
		return d, nil
	}
	ref, err := naiveReference(c.replica, c.bq)
	if err == nil {
		err = checkWhySo(ref, c.replica, exps)
	}
	if err != nil {
		b.fail(true, s.kind, err)
		return d, nil
	}
	b.attempted++
	return d, nil
}

// checkFrame folds a mutation's frame into the watch state: it must be
// the next version (a gap-free chain), unless it is an explicit
// full_resync.
func (c *churn) checkFrame(f frame) error {
	switch {
	case f.ev.Type == "full_resync":
		c.b.tr.count("watch.resyncs", 1)
	case f.ev.Type != "diff":
		return fmt.Errorf("watch frame of type %q at version %d", f.ev.Type, f.ev.Version)
	case f.ev.Version != c.version+1:
		return fmt.Errorf("watch frame version %d after %d: a gap without full_resync", f.ev.Version, c.version)
	}
	c.state = qc.ApplyDiff(c.state, f.ev)
	c.version = f.ev.Version
	return nil
}

// replay re-runs the server's work for one mutation on the replica:
// the delta patch (or the cold rebuild it falls back to), the watched
// answer's re-rank under the write lock with its ranking diff, and the
// warm re-explain that follows.
func (c *churn) replay(m delta.Mutation, op int) {
	rp := c.b.rp
	mentioned := false
	for _, a := range c.bq.Atoms {
		mentioned = mentioned || a.Pred == m.Rel
	}
	if mentioned {
		d, ok, err := rp.patch(c.replica, c.bq, c.lin, m, op)
		if err != nil || !ok {
			if d, err = rp.lineage(c.replica, c.bq, op); err != nil {
				return
			}
		}
		net, err := rp.network(c.replica, c.bq, c.cert, op)
		if err != nil {
			return
		}
		c.lin, c.net = d, net
		dtos := rp.encode(c.replica, rp.rankFlow(c.lin, c.net, op), op)
		rp.diff(c.dtos, dtos, op)
		c.dtos = dtos
	}
	rp.encode(c.replica, rp.rankFlow(c.lin, c.net, op), op)
}

// coldCheck uploads the current version into a fresh session, explains
// the watched answer cold, and compares the ranking with the folded
// watch state.
func (c *churn) coldCheck() (time.Duration, error) {
	b := c.b
	// The fresh session numbers tuples densely; live maps its ids back.
	text, err := parser.FormatDatabase(c.replica)
	if err != nil {
		return 0, err
	}
	compact, err := parser.ParseDatabase(strings.NewReader(text))
	if err != nil {
		return 0, err
	}
	var live []rel.TupleID
	for id := 0; id < c.replica.NumTuples(); id++ {
		if c.replica.Live(rel.TupleID(id)) {
			live = append(live, rel.TupleID(id))
		}
	}

	op := b.tr.begin("op", -1)
	b.tr.gcStart()
	start := time.Now()
	call := b.tr.callBegin("dial", op)
	cs, err := qc.Dial(b.ctx, b.url, compact, qc.WithHTTPClient(b.hc))
	b.tr.callEnd(call)
	upload := time.Since(start)
	var exps []qc.Explanation
	var cold time.Duration
	if err == nil {
		at := time.Now()
		exps, err = c.explain(cs, op)
		cold = time.Since(at)
	}
	d := time.Since(start)
	b.tr.gcStop()
	b.tr.end(op)
	if cs != nil {
		defer cs.Close()
	}
	if err != nil {
		b.fail(false, "cold check", err)
		return d, nil
	}
	b.record("upload_ms", upload)
	b.record("cold_explain_ms", cold)
	if b.tr.recording() {
		if rerr := b.rp.upload(c.replica, op); rerr == nil {
			if lin, rerr := b.rp.lineage(compact, c.bq, op); rerr == nil {
				if cert, rerr := b.rp.classify(compact, c.bq, op); rerr == nil {
					if net, rerr := b.rp.network(compact, c.bq, cert, op); rerr == nil {
						b.rp.encode(compact, b.rp.rankFlow(lin, net, op), op)
					}
				}
			}
		}
	}
	dtos := make([]qc.ExplanationDTO, len(exps))
	for i, e := range exps {
		if int(e.Tuple) >= len(live) {
			b.fail(true, "cold check", fmt.Errorf("cold ranking names tuple %d of %d", e.Tuple, len(live)))
			return d, nil
		}
		e.Tuple = live[e.Tuple]
		gamma := make([]rel.TupleID, len(e.Contingency))
		for j, g := range e.Contingency {
			gamma[j] = live[g]
		}
		e.Contingency = gamma
		dtos[i] = server.NewExplanationDTO(c.db, e)
	}
	if err := sameBytes("cold session ranking and folded watch state", dtos, c.state); err != nil {
		b.fail(true, "cold check", err)
		return d, nil
	}
	b.attempted++
	return d, nil
}
