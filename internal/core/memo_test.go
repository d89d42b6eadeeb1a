package core

import (
	"context"
	"sync/atomic"
	"testing"

	"github.com/querycause/querycause/internal/workload"
)

// flowEngine builds a weakly linear engine whose ranking takes the
// flow path, so every solve needs the engine's network.
func flowEngine(t *testing.T) *Engine {
	t.Helper()
	db, q, _ := workload.Chain2(5, 24)
	eng, err := NewWhySo(db, q)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestRankMemoSolvesOnce: a second Rank of the same mode is a lookup.
// The engine's networks are dropped after the first Rank, so any flow
// solve would have to build one again; none is built, and the ranking
// is byte-identical to the first, at any worker count.
func TestRankMemoSolvesOnce(t *testing.T) {
	ctx := context.Background()
	eng := flowEngine(t)
	first, err := eng.Rank(ctx, ModeAuto, 1)
	if err != nil {
		t.Fatal(err)
	}
	flow := false
	for _, ex := range first {
		flow = flow || ex.Method == MethodFlow
	}
	if !flow {
		t.Fatal("workload took no flow solve; an unbuilt network proves nothing")
	}
	eng.mu.Lock()
	clear(eng.nets)
	eng.mu.Unlock()
	for _, workers := range []int{1, 4} {
		again, err := eng.Rank(ctx, ModeAuto, workers)
		if err != nil {
			t.Fatal(err)
		}
		eng.mu.Lock()
		built := len(eng.nets)
		eng.mu.Unlock()
		if built != 0 {
			t.Fatalf("workers %d: memoized Rank built %d networks", workers, built)
		}
		if renderRanking(again) != renderRanking(first) {
			t.Fatalf("workers %d: memoized ranking differs:\n%s\nwant:\n%s", workers, renderRanking(again), renderRanking(first))
		}
	}
}

// TestRankMemoCopies: callers own what Rank returns, both from the
// call that computes the memo and from a call that hits it. Overwriting
// or appending to one returned contingency changes neither its
// neighbours nor the next Rank.
func TestRankMemoCopies(t *testing.T) {
	ctx := context.Background()
	eng := flowEngine(t)
	var want string
	for call := 0; call < 3; call++ {
		got, err := eng.Rank(ctx, ModeAuto, 1)
		if err != nil {
			t.Fatal(err)
		}
		if call == 0 {
			want = renderRanking(got)
		} else if renderRanking(got) != want {
			t.Fatalf("call %d: mutating a returned ranking changed the memo:\n%s\nwant:\n%s", call, renderRanking(got), want)
		}
		mutated := 0
		for i := range got {
			if len(got[i].Contingency) == 0 {
				continue
			}
			got[i].Contingency[0] = -1
			mutated++
			if i+1 < len(got) {
				next := renderRanking(got[i+1:])
				got[i].Contingency = append(got[i].Contingency, -2)
				if after := renderRanking(got[i+1:]); after != next {
					t.Fatalf("call %d: append to contingency %d overwrote the next explanation:\n%s\nwas:\n%s", call, i, after, next)
				}
			}
		}
		if mutated == 0 {
			t.Fatal("no explanation has a contingency to mutate")
		}
		got[0].Rho = -1
	}
}

// countdownCtx reports cancellation once Err has been asked n times:
// a deterministic way to cancel a ranking partway through, since the
// one-worker ranking polls Err once per cause.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRankMemoSkipsCanceled: a Rank that ends in cancellation, before
// or during the ranking, memoizes nothing.
func TestRankMemoSkipsCanceled(t *testing.T) {
	eng := flowEngine(t)
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	mid := &countdownCtx{Context: context.Background()}
	mid.n.Store(4)
	for name, ctx := range map[string]context.Context{"pre-canceled": pre, "mid-run": mid} {
		if _, err := eng.Rank(ctx, ModeAuto, 1); err != context.Canceled {
			t.Fatalf("%s: want context.Canceled, got %v", name, err)
		}
		eng.mu.Lock()
		n := len(eng.ranks)
		eng.mu.Unlock()
		if n != 0 {
			t.Fatalf("%s: canceled Rank memoized %d rankings", name, n)
		}
	}
	got, err := eng.Rank(context.Background(), ModeAuto, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(eng.Causes()) {
		t.Fatalf("ranking after cancellation has %d entries, want %d", len(got), len(eng.Causes()))
	}
}

// TestRankMemoPerMode: the memo is keyed by mode. On a weakly linear
// query ModeAuto solves by max-flow and ModeExact by search, and each
// mode keeps answering with its own method after both are memoized.
func TestRankMemoPerMode(t *testing.T) {
	ctx := context.Background()
	eng := flowEngine(t)
	methods := func(mode Mode) map[Method]bool {
		exps, err := eng.Rank(ctx, mode, 1)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[Method]bool)
		for _, ex := range exps {
			out[ex.Method] = true
		}
		return out
	}
	for round := 0; round < 2; round++ {
		if auto := methods(ModeAuto); !auto[MethodFlow] || auto[MethodExact] {
			t.Fatalf("round %d: ModeAuto methods %v, want max-flow and no search", round, auto)
		}
		if exact := methods(ModeExact); !exact[MethodExact] || exact[MethodFlow] {
			t.Fatalf("round %d: ModeExact methods %v, want search and no max-flow", round, exact)
		}
	}
	eng.mu.Lock()
	n := len(eng.ranks)
	eng.mu.Unlock()
	if n != 2 {
		t.Fatalf("memo holds %d rankings, want one per mode (2)", n)
	}
}
