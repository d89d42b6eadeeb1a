package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/querycause/querycause/internal/imdb"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/respflow"
	"github.com/querycause/querycause/internal/whyno"
	"github.com/querycause/querycause/internal/workload"
)

// renderRanking serializes a ranking for byte-level comparison: the
// acceptance bar is that every worker count and emission order yields
// a ranking byte-identical to the one-worker ranking, not merely an
// equivalent one.
func renderRanking(exps []Explanation) string {
	out := ""
	for _, e := range exps {
		out += fmt.Sprintf("%d|%.17g|%d|%v|%d\n", e.Tuple, e.Rho, e.ContingencySize, e.Contingency, e.Method)
	}
	return out
}

// rankWorkload is one randomized instance for the cross-checks.
type rankWorkload struct {
	name  string
	build func(seed int64) (*rel.Database, *rel.Query)
	whyNo bool
}

// rankWorkloads covers both sides of the responsibility dichotomy
// (flow-solved weakly linear queries, exact-solved NP-hard queries), a
// query with counterfactual causes, and the Why-No closed form.
func rankWorkloads() []rankWorkload {
	drop := func(f func(int64, int) (*rel.Database, *rel.Query, rel.TupleID), n int) func(int64) (*rel.Database, *rel.Query) {
		return func(seed int64) (*rel.Database, *rel.Query) {
			db, q, _ := f(seed, n)
			return db, q
		}
	}
	return []rankWorkload{
		{name: "flow/chain2", build: drop(workload.Chain2, 24)},
		{name: "flow/chain3", build: drop(workload.Chain3, 12)},
		{name: "flow/triangle-exo-s", build: drop(workload.TriangleExoS, 16)},
		{name: "exact/triangle-h2", build: drop(workload.Triangle, 8)},
		{name: "exact/star-h1", build: drop(workload.Star, 6)},
		{name: "whyno/chain2", build: func(seed int64) (*rel.Database, *rel.Query) {
			db, q := workload.WhyNoChain(seed, 12)
			return db, q
		}, whyNo: true},
	}
}

func newEngineFor(t *testing.T, w rankWorkload, seed int64) *Engine {
	t.Helper()
	db, q := w.build(seed)
	if w.whyNo {
		if err := whyno.CheckInstance(db, q); err != nil {
			t.Skipf("seed %d: not a valid why-no instance: %v", seed, err)
		}
		eng, err := NewWhyNo(db, q)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return eng
	}
	eng, err := NewWhySo(db, q)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return eng
}

// drainStream collects a stream fully, failing the test on any
// mid-stream error.
func drainStream(t *testing.T, eng *Engine, mode Mode, opts StreamOptions) []Explanation {
	t.Helper()
	var out []Explanation
	for ex, err := range eng.RankStream(context.Background(), mode, opts) {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		out = append(out, ex)
	}
	return out
}

// TestRankAllParallelMatchesSerial is the randomized cross-check of
// the worker pool: for seeded random instances on both sides of the
// dichotomy and every mode, Rank at any worker count must be exactly
// the serial ranking RankAll returns — same causes, same ρ, same
// contingencies, same order, byte for byte.
func TestRankAllParallelMatchesSerial(t *testing.T) {
	modes := []Mode{ModeAuto, ModeExact, ModePaper}
	ctx := context.Background()
	for _, w := range rankWorkloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 5; seed++ {
				for _, mode := range modes {
					serial, err := newEngineFor(t, w, seed).RankAll(mode)
					if err != nil {
						t.Fatalf("seed %d mode %v: serial: %v", seed, mode, err)
					}
					sb := renderRanking(serial)
					for _, workers := range []int{0, 1, 2, 3, 8} {
						// Fresh engine per run: the parallel path must not
						// depend on serial warm-up of the lazy caches.
						par, err := newEngineFor(t, w, seed).Rank(ctx, mode, workers)
						if err != nil {
							t.Fatalf("seed %d mode %v workers %d: parallel: %v", seed, mode, workers, err)
						}
						if !reflect.DeepEqual(serial, par) {
							t.Fatalf("seed %d mode %v workers %d: rankings differ\nserial:\n%s\nparallel:\n%s",
								seed, mode, workers, sb, renderRanking(par))
						}
						if pb := renderRanking(par); sb != pb {
							t.Fatalf("seed %d mode %v workers %d: rankings not byte-identical\nserial:\n%s\nparallel:\n%s",
								seed, mode, workers, sb, pb)
						}
					}
				}
			}
		})
	}
}

// TestRankStreamMatchesRankAll is the randomized cross-check of the
// one ranking primitive: for seeded instances on both sides of the
// dichotomy and every mode, the reference is Rank on one worker (the
// inline path RankAll takes), and it must equal the per-cause
// Responsibility results sorted and drained streams at several worker
// counts in both emission orders — byte for byte. Rank at other worker
// counts is checked by TestRankAllParallelMatchesSerial.
func TestRankStreamMatchesRankAll(t *testing.T) {
	modes := []Mode{ModeAuto, ModeExact, ModePaper}
	ctx := context.Background()
	for _, w := range rankWorkloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 5; seed++ {
				for _, mode := range modes {
					eng := newEngineFor(t, w, seed)
					want, err := eng.Rank(ctx, mode, 1)
					if err != nil {
						t.Fatalf("seed %d mode %v: Rank: %v", seed, mode, err)
					}
					wb := renderRanking(want)
					// Second reference: single-tuple Responsibility per
					// cause, on a fresh engine, sorted.
					single := newEngineFor(t, w, seed)
					var each []Explanation
					for _, c := range single.Causes() {
						ex, err := single.Responsibility(c, mode)
						if err != nil {
							t.Fatalf("seed %d mode %v: Responsibility(%d): %v", seed, mode, c, err)
						}
						each = append(each, ex)
					}
					SortExplanations(each)
					if gb := renderRanking(each); gb != wb {
						t.Fatalf("seed %d mode %v: per-cause Responsibility differs\nresponsibility:\n%s\nrank:\n%s", seed, mode, gb, wb)
					}
					for _, workers := range []int{0, 2, 7} {
						// Fresh engines per run: no path may depend on
						// another's warm-up of the lazy caches.
						for _, completion := range []bool{false, true} {
							got := drainStream(t, newEngineFor(t, w, seed), mode, StreamOptions{Workers: workers, CompletionOrder: completion})
							SortExplanations(got)
							if gb := renderRanking(got); gb != wb {
								t.Fatalf("seed %d mode %v workers %d completion=%v: stream differs\nstream:\n%s\nrank:\n%s",
									seed, mode, workers, completion, gb, wb)
							}
						}
					}
				}
			}
		})
	}
}

// TestRankStreamDeterministicOrder: default emission is ascending
// cause order — the engine's Causes() order — for every worker count.
func TestRankStreamDeterministicOrder(t *testing.T) {
	for _, w := range rankWorkloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			eng := newEngineFor(t, w, 1)
			causes := eng.Causes()
			for _, workers := range []int{1, 3, 8} {
				got := drainStream(t, newEngineFor(t, w, 1), ModeAuto, StreamOptions{Workers: workers})
				if len(got) != len(causes) {
					t.Fatalf("workers %d: %d explanations for %d causes", workers, len(got), len(causes))
				}
				for i, ex := range got {
					if ex.Tuple != causes[i] {
						t.Fatalf("workers %d: emission %d is tuple %d; want cause order %v", workers, i, ex.Tuple, causes)
					}
				}
			}
		})
	}
}

// TestRankStreamEarlyBreak: breaking out of the range must stop the
// workers and leak no goroutines, on the pooled and the inline path.
func TestRankStreamEarlyBreak(t *testing.T) {
	db, q, _ := workload.Star(3, 10)
	before := runtime.NumGoroutine()
	for trial := 0; trial < 10; trial++ {
		eng, err := NewWhySo(db, q)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		workers := []int{4, 1}[trial%2]
		for _, serr := range eng.RankStream(context.Background(), ModeAuto, StreamOptions{Workers: workers}) {
			if serr != nil {
				t.Fatalf("trial %d: %v", trial, serr)
			}
			n++
			if n == 2 {
				break
			}
		}
		if n != 2 {
			t.Fatalf("trial %d: consumed %d explanations before break", trial, n)
		}
	}
	// Workers park promptly after the consumer breaks; allow the
	// scheduler a moment before asserting no goroutine pile-up.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+2 {
		t.Errorf("goroutines grew from %d to %d after early breaks", before, got)
	}
}

// TestRankStreamCancel: canceling the context mid-stream ends the
// sequence with the context's error as a terminal pair.
func TestRankStreamCancel(t *testing.T) {
	db, q, _ := workload.Star(5, 12)
	eng, err := NewWhySo(db, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var sawErr error
	n := 0
	for _, serr := range eng.RankStream(ctx, ModeAuto, StreamOptions{Workers: 2}) {
		if serr != nil {
			sawErr = serr
			continue
		}
		n++
		if n == 1 {
			cancel()
		}
	}
	cancel()
	if sawErr != context.Canceled {
		t.Errorf("terminal stream error = %v; want context.Canceled", sawErr)
	}
	if n >= len(eng.Causes()) {
		t.Logf("note: all %d causes were already computed before cancellation took effect", n)
	}
}

// TestRankStreamPreCanceled: an already-dead context yields exactly
// one terminal error and no explanations.
func TestRankStreamPreCanceled(t *testing.T) {
	db, q, _ := workload.Star(5, 6)
	eng, err := NewWhySo(db, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	events := 0
	for ex, serr := range eng.RankStream(ctx, ModeAuto, StreamOptions{}) {
		events++
		if serr != context.Canceled || ex.Method != MethodNone {
			t.Errorf("pre-canceled stream yielded (%+v, %v)", ex, serr)
		}
	}
	if events != 1 {
		t.Errorf("pre-canceled stream yielded %d events; want 1 terminal error", events)
	}
}

// TestNetworkPoolReuse: flow computations run on pooled, Reset network
// clones, never on the engine's base network. A one-worker ranking
// clones at most one network, single-tuple Responsibility calls reuse
// it, a ranking at the pool's capacity clones nothing once the pool is
// primed, and every pooled ranking stays byte-identical to the first.
func TestNetworkPoolReuse(t *testing.T) {
	ctx := context.Background()
	for _, w := range rankWorkloads() {
		if w.whyNo {
			continue
		}
		eng := newEngineFor(t, w, 3)
		want, err := eng.Rank(ctx, ModeAuto, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		usesFlow := false
		for _, ex := range want {
			if ex.Method == MethodFlow {
				usesFlow = true
			}
		}
		wantClones := int64(0)
		if usesFlow {
			wantClones = 1
		}
		if got := eng.clones.Load(); got != wantClones {
			t.Fatalf("%s: one-worker ranking cloned %d networks; want %d", w.name, got, wantClones)
		}
		for _, c := range eng.Causes() {
			if _, err := eng.Responsibility(c, ModeAuto); err != nil {
				t.Fatalf("%s: Responsibility(%d): %v", w.name, c, err)
			}
		}
		if got := eng.clones.Load(); got != wantClones {
			t.Fatalf("%s: single-tuple Responsibility cloned past the pool (%d clones)", w.name, got)
		}
		// The pool holds up to GOMAXPROCS networks, so a ranking at that
		// worker count is fully served by the pool once primed. A ranking
		// does not prime it reliably (its workers need not hold networks
		// at the same time), so fill it to capacity first.
		workers := runtime.GOMAXPROCS(0)
		if base, err := eng.baseNetwork(ModeAuto); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		} else if base != nil {
			held := make([]*respflow.Network, workers)
			for i := range held {
				held[i] = eng.acquireNet(ModeAuto, base)
			}
			for _, net := range held {
				eng.releaseNet(ModeAuto, net)
			}
		}
		primed := eng.clones.Load()
		for round := 0; round < 4; round++ {
			got, err := eng.Rank(ctx, ModeAuto, workers)
			if err != nil {
				t.Fatalf("%s round %d: %v", w.name, round, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s round %d: pooled ranking diverged\ngot:\n%s\nwant:\n%s",
					w.name, round, renderRanking(got), renderRanking(want))
			}
			streamed := drainStream(t, eng, ModeAuto, StreamOptions{Workers: workers})
			SortExplanations(streamed)
			if !reflect.DeepEqual(streamed, want) {
				t.Fatalf("%s round %d: pooled stream diverged", w.name, round)
			}
			if got := eng.clones.Load(); got != primed {
				t.Fatalf("%s round %d: primed pool still cloned %d networks", w.name, round, got-primed)
			}
		}
		eng.poolMu.Lock()
		pooled := len(eng.netPool[ModeAuto])
		eng.poolMu.Unlock()
		if usesFlow && pooled == 0 {
			t.Errorf("%s: flow-path engine has an empty network pool after its rankings", w.name)
		}
	}
}

// TestRankFig2 pins the ranking to the paper's Fig. 2b instance: the
// worked example must come out identical under any worker count and as
// a drained stream.
func TestRankFig2(t *testing.T) {
	db, _ := imdb.Micro()
	q, err := imdb.GenreQuery().Bind("Musical")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewWhySo(db, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.RankAll(ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Rank(context.Background(), ModeAuto, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("Fig. 2b ranking diverged at 4 workers:\none worker:\n%s\nfour workers:\n%s",
			renderRanking(want), renderRanking(got))
	}
	streamed := drainStream(t, eng, ModeAuto, StreamOptions{Workers: 4, CompletionOrder: true})
	SortExplanations(streamed)
	if !reflect.DeepEqual(want, streamed) {
		t.Fatalf("Fig. 2b drained stream diverged:\n%s", renderRanking(streamed))
	}
}

// TestRankCancellation verifies ctx handling of the blocking ranking
// on both the inline and the pooled path: an already canceled context
// fails fast, and a context canceled mid-run stops the ranking with
// ctx.Err() rather than a partial ranking.
func TestRankCancellation(t *testing.T) {
	db, q, _ := workload.Star(99, 6)
	eng, err := NewWhySo(db, q)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := eng.Rank(ctx, ModeExact, workers); err != context.Canceled {
			t.Fatalf("workers %d: want context.Canceled, got %v", workers, err)
		}
	}

	for _, workers := range []int{1, 4} {
		mid, cancelMid := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			time.Sleep(time.Millisecond)
			cancelMid()
			close(done)
		}()
		if out, err := eng.Rank(mid, ModeExact, workers); err == nil {
			// The ranking may legitimately win the race and finish first;
			// then the full deterministic ranking must be returned.
			if len(out) != len(eng.Causes()) {
				t.Fatalf("workers %d: completed ranking has %d entries, want %d", workers, len(out), len(eng.Causes()))
			}
		} else if err != context.Canceled {
			t.Fatalf("workers %d: want context.Canceled or success, got %v", workers, err)
		}
		<-done
	}
}

// TestRankSharedEngine exercises the documented server pattern: one
// COLD shared engine, many concurrent callers mixing Rank at one and at
// several workers, drained RankStreams and single-tuple Responsibility.
// The lazy caches are first populated under contention, and every flow
// computation runs on its own pooled clone of the read-only base
// network; run under -race.
func TestRankSharedEngine(t *testing.T) {
	db, q, _ := workload.TriangleExoS(7, 12)
	ref, err := NewWhySo(db, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RankAll(ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewWhySo(db, q) // cold: no warm-up
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const callers = 12
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		i := i
		go func() {
			var got []Explanation
			var err error
			switch i % 4 {
			case 0:
				got, err = eng.Rank(ctx, ModeAuto, 4)
			case 1:
				got, err = eng.Rank(ctx, ModeAuto, 1)
			case 2:
				for ex, serr := range eng.RankStream(ctx, ModeAuto, StreamOptions{Workers: 3, CompletionOrder: true}) {
					if serr != nil {
						err = serr
						break
					}
					got = append(got, ex)
				}
				SortExplanations(got)
			default:
				for _, c := range eng.Causes() {
					ex, rerr := eng.Responsibility(c, ModeAuto)
					if rerr != nil {
						err = rerr
						break
					}
					got = append(got, ex)
				}
				SortExplanations(got)
			}
			if err == nil && !reflect.DeepEqual(want, got) {
				err = fmt.Errorf("caller %d: concurrent ranking diverged", i)
			}
			errs <- err
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
