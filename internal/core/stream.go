// Rankings: the one loop over the causes. Each cause's responsibility
// is an independent computation over the shared immutable minimal
// n-lineage — a min-cut per Algorithm 1 on the weakly linear side of
// the dichotomy, a branch-and-bound hitting set on the NP-hard side —
// so a ranking is that computation per cause followed by the Fig. 2b
// sort. RankStream is the loop: it emits each explanation the moment
// it is computed (on wide NP-hard lineages a caller sees its first
// explanation after one search instead of all of them), and Rank
// drains it and sorts. The exact and Why-No solvers are pure functions
// of the shared interned lineage index, and every flow computation
// solves on residuals private to the call over the engine's one
// read-only network, so every worker shares the same state and no lock
// is held while solving.
package core

import (
	"context"
	"iter"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/respflow"
)

// StreamOptions tunes RankStream.
type StreamOptions struct {
	// Workers is the parallelism degree (ResolveWorkers semantics:
	// values <= 0 mean runtime.GOMAXPROCS(0)). One worker runs on the
	// consumer's goroutine.
	Workers int
	// CompletionOrder emits explanations the moment any worker finishes
	// one, minimizing time-to-first-explanation at the price of a
	// scheduling-dependent order. The default (false) emits in
	// ascending cause order — deterministic for every worker count, so
	// two transports streaming the same instance produce identical
	// event sequences.
	CompletionOrder bool
}

// ResolveWorkers maps a requested parallelism degree to an actual
// worker count: values <= 0 mean runtime.GOMAXPROCS(0).
func ResolveWorkers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// Rank explains every cause with the given number of workers
// (ResolveWorkers semantics) and sorts by descending responsibility,
// breaking ties by tuple ID (the paper's Fig. 2b ranking). The result
// is byte-identical for every worker count. Rank honors ctx between
// per-cause computations (a single exact search is not interruptible)
// and returns ctx.Err() if canceled before completion.
//
// A ranking is a pure function of the engine and mode, so the first
// completed Rank per mode is memoized and later calls solve nothing.
// Every call returns its own deep copy: callers may modify it freely.
func (e *Engine) Rank(ctx context.Context, mode Mode, workers int) ([]Explanation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	memo, ok := e.ranks[mode]
	e.mu.Unlock()
	if ok {
		return cloneExplanations(memo), nil
	}
	out := make([]Explanation, 0, len(e.causes))
	for ex, err := range e.RankStream(ctx, mode, StreamOptions{Workers: workers, CompletionOrder: true}) {
		if err != nil {
			return nil, err
		}
		out = append(out, ex)
	}
	SortExplanations(out)
	e.mu.Lock()
	if e.ranks == nil {
		e.ranks = make(map[Mode][]Explanation)
	}
	e.ranks[mode] = out
	e.mu.Unlock()
	return cloneExplanations(out), nil
}

// cloneExplanations deep-copies a ranking. All contingencies share one
// backing array, each capped at its own length so that appending to one
// reallocates instead of overwriting its neighbour; nil contingencies
// (non-causes) stay nil and empty ones (counterfactual causes) empty.
func cloneExplanations(src []Explanation) []Explanation {
	n := 0
	for _, ex := range src {
		n += len(ex.Contingency)
	}
	ids := make([]rel.TupleID, n)
	out := make([]Explanation, len(src))
	for i, ex := range src {
		out[i] = ex
		if ex.Contingency != nil {
			k := copy(ids, ex.Contingency)
			out[i].Contingency, ids = ids[:k:k], ids[k:]
		}
	}
	return out
}

// RankAll is Rank on one worker, without cancellation.
func (e *Engine) RankAll(mode Mode) ([]Explanation, error) {
	return e.Rank(context.Background(), mode, 1)
}

// RankStream explains every cause of the engine, yielding each
// explanation as it is computed by opts.Workers workers. The yielded
// multiset of explanations equals Rank's exactly: drained and sorted
// with SortExplanations it is byte-identical to the blocking ranking,
// for every worker count and either emission order.
//
// The sequence is single-use and must be consumed on one goroutine.
// Breaking out of the range stops the workers and releases their
// goroutines. Cancellation of ctx ends the sequence with a final
// (zero Explanation, ctx.Err()) pair; setup failures (a flow network
// that cannot be built) yield one (zero, error) pair. Per-cause
// computations themselves never fail: every yielded error is terminal.
func (e *Engine) RankStream(ctx context.Context, mode Mode, opts StreamOptions) iter.Seq2[Explanation, error] {
	return func(yield func(Explanation, error) bool) {
		if err := ctx.Err(); err != nil {
			yield(Explanation{}, err)
			return
		}
		n := len(e.causes)
		if n == 0 {
			return
		}
		// Resolve shared read-only state up front: lazy certificate and
		// network computation must not first happen from racing workers,
		// and setup errors surface before any explanation is emitted.
		net, err := e.baseNetwork(mode)
		if err != nil {
			yield(Explanation{}, err)
			return
		}
		workers := ResolveWorkers(opts.Workers)
		if workers > n {
			workers = n
		}
		var next atomic.Int64

		if workers == 1 {
			// One worker runs inline: no goroutine, no channel, and
			// completion order is cause order.
			stopped := false
			e.work(ctx, net, &next, func(_ int, ex Explanation) bool {
				stopped = !yield(ex, nil)
				return !stopped
			})
			if err := ctx.Err(); err != nil && !stopped {
				yield(Explanation{}, err)
			}
			return
		}

		sctx, stop := context.WithCancel(ctx)
		type item struct {
			idx int
			ex  Explanation
		}
		ch := make(chan item, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.work(sctx, net, &next, func(i int, ex Explanation) bool {
					select {
					case ch <- item{i, ex}:
						return true
					case <-sctx.Done():
						return false
					}
				})
			}()
		}
		go func() {
			wg.Wait()
			close(ch)
		}()
		// On every exit — early break included — cancel the workers and
		// drain the channel until the closer goroutine shuts it, so no
		// goroutine is left blocked on a send.
		defer func() {
			stop()
			for range ch {
			}
		}()

		if opts.CompletionOrder {
			for it := range ch {
				if !yield(it.ex, nil) {
					return
				}
			}
		} else {
			// Deterministic emission: workers still complete out of
			// order, but explanations are released in ascending cause
			// order through a reorder buffer.
			pending := make(map[int]Explanation, workers)
			emit := 0
			for it := range ch {
				pending[it.idx] = it.ex
				for {
					ex, ok := pending[emit]
					if !ok {
						break
					}
					delete(pending, emit)
					emit++
					if !yield(ex, nil) {
						return
					}
				}
			}
		}
		if err := ctx.Err(); err != nil {
			yield(Explanation{}, err)
		}
	}
}

// work is the body of one ranking worker: it claims cause indices from
// next until none remain or ctx ends, explains each on the shared
// network (nil when no cause takes the flow path), and hands the result
// to emit, stopping when emit returns false.
func (e *Engine) work(ctx context.Context, net *respflow.Network, next *atomic.Int64, emit func(i int, ex Explanation) bool) {
	for {
		i := int(next.Add(1)) - 1
		if i >= len(e.causes) || ctx.Err() != nil {
			return
		}
		if !emit(i, e.explain(e.causes[i], net)) {
			return
		}
	}
}

// SortExplanations sorts a ranking in place into the paper's Fig. 2b
// order — descending ρ, ties by ascending tuple ID — the order Rank
// returns. A fully drained RankStream sorted with SortExplanations is
// byte-identical to Rank on the same engine.
func SortExplanations(exps []Explanation) {
	sort.SliceStable(exps, func(i, j int) bool {
		if exps[i].Rho != exps[j].Rho {
			return exps[i].Rho > exps[j].Rho
		}
		return exps[i].Tuple < exps[j].Tuple
	})
}
