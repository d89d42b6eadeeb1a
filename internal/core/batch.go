// Engine-level batch explanation: the fan-out behind the public
// ExplainAll API and the explanation server's batch endpoint. Requests
// fan out across a worker pool; leftover worker budget flows into
// ranking each request's causes concurrently. An EngineFactory hook
// lets callers resolve requests to cached engines (the server keeps
// per-answer engines — lineage already computed — in an LRU), while
// the default factory builds a fresh engine per request.
package core

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/querycause/querycause/internal/rel"
)

// BatchRequest names one answer or non-answer of a workload to explain.
type BatchRequest struct {
	// Query is the conjunctive query; it may be Boolean (no Answer).
	Query *rel.Query
	// Answer is the (non-)answer tuple bound into the head.
	Answer []rel.Value
	// WhyNo explains why Answer is NOT returned instead of why it is.
	WhyNo bool
}

// BatchResult is the ranking for one request. Err is per-request: an
// invalid request fails alone without aborting the rest of the batch.
type BatchResult struct {
	Explanations []Explanation
	Err          error
}

// EngineFactory resolves one batch request to an engine; index is the
// request's position in the batch, letting callers consult side tables
// (e.g. the server's per-item cache bookkeeping). Implementations may
// return a shared cached engine: engines are safe for concurrent use,
// and the batch runner never mutates them. Factories are called from
// worker goroutines and must be concurrency-safe.
type EngineFactory func(db *rel.Database, index int, req BatchRequest) (*Engine, error)

// NewRequestEngine is the default engine constructor: a fresh Why-So or
// Why-No engine per request.
func NewRequestEngine(db *rel.Database, req BatchRequest) (*Engine, error) {
	if req.WhyNo {
		return NewWhyNo(db, req.Query, req.Answer...)
	}
	return NewWhySo(db, req.Query, req.Answer...)
}

// BatchRunOptions configures ExplainBatch.
type BatchRunOptions struct {
	// Workers is the total worker budget. Values <= 0 mean
	// runtime.GOMAXPROCS(0).
	Workers int
	// Mode selects the responsibility strategy (zero value ModeAuto).
	Mode Mode
	// NewEngine resolves requests to engines; nil means NewRequestEngine.
	NewEngine EngineFactory
}

// ExplainBatch explains many answers and non-answers of one database in
// a single call, fanning the requests out across a pool of
// opts.Workers workers. Results are returned in request order and are
// byte-identical to the serial per-request ranking at the same mode.
// When the batch has fewer requests than workers, the leftover budget
// flows into ranking each request's causes concurrently.
//
// ExplainBatch returns a non-nil error only when ctx is canceled before
// the batch completes; per-request failures land in BatchResult.Err.
func ExplainBatch(ctx context.Context, db *rel.Database, reqs []BatchRequest, opts BatchRunOptions) ([]BatchResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return results, nil
	}
	newEngine := opts.NewEngine
	if newEngine == nil {
		newEngine = func(db *rel.Database, _ int, req BatchRequest) (*Engine, error) {
			return NewRequestEngine(db, req)
		}
	}
	workers := ResolveWorkers(opts.Workers)
	reqWorkers := workers
	if reqWorkers > len(reqs) {
		reqWorkers = len(reqs)
	}
	// Leftover budget (workers beyond one per request) goes to ranking
	// causes within each request; with reqs >= workers this is 1 and
	// each request is ranked inline on its batch worker.
	perReq := workers / reqWorkers
	ForEachIndex(ctx, len(reqs), reqWorkers, func() func(int) {
		return func(i int) {
			eng, err := newEngine(db, i, reqs[i])
			if err != nil {
				results[i].Err = err
				return
			}
			results[i].Explanations, results[i].Err = eng.Rank(ctx, opts.Mode, perReq)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// ForEachIndex fans the half-open index range [0, n) out across a pool
// of workers goroutines: indices are claimed atomically, newWorker is
// called once inside each goroutine to set up worker-private state and
// returns the task function. Workers stop claiming new indices once
// ctx is canceled; the caller is responsible for checking ctx.Err()
// afterwards to distinguish completion from cancellation.
func ForEachIndex(ctx context.Context, n, workers int, newWorker func() func(i int)) {
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn := newWorker()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
