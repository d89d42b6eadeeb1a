package querycause

import (
	"context"
	"net/http"
	"time"
)

// config is the one knob set behind the Session API: session
// constructors (Open, Dial) take Options establishing the session's
// defaults, and per-call Options on Rank / RankStream / ExplainAll
// override them for that call.
type config struct {
	mode            Mode
	parallelism     int
	timeout         time.Duration
	completionOrder bool
	httpClient      *http.Client
	retries         int
}

func defaultConfig() config {
	return config{retries: defaultGETRetries}
}

// apply copies the config and applies per-call overrides.
func (c config) apply(opts []Option) config {
	for _, o := range opts {
		o(&c)
	}
	return c
}

// withTimeout derives the call context: bounded by the configured
// timeout when one is set, untouched otherwise.
func (c config) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.timeout > 0 {
		return context.WithTimeout(ctx, c.timeout)
	}
	return context.WithCancel(ctx)
}

// Option configures a Session or one call on it.
type Option func(*config)

// WithMode selects the responsibility strategy (ModeAuto, ModeExact,
// ModePaper). The default is ModeAuto.
func WithMode(m Mode) Option { return func(c *config) { c.mode = m } }

// WithParallelism sets the ranking worker count. Values <= 0 mean
// runtime.GOMAXPROCS(0) in-process; on a remote session the server's
// worker budget caps the request. Rankings are byte-identical for
// every parallelism degree.
func WithParallelism(n int) Option { return func(c *config) { c.parallelism = n } }

// WithTimeout bounds each call on the session (engine construction,
// ranking, or draining a stream). Exceeding it surfaces as the
// context error locally and as ErrBudgetExceeded from a server that
// gave up first. Zero (the default) means no session-level bound —
// the caller's context alone governs.
func WithTimeout(d time.Duration) Option { return func(c *config) { c.timeout = d } }

// WithDeterministic controls streaming emission order. Deterministic
// (the default, on=true) emits explanations in ascending cause order,
// identical for every worker count and transport;
// WithDeterministic(false) emits each explanation the moment its
// computation completes, minimizing time-to-first-explanation at the
// price of a scheduling-dependent order. Either way a fully drained
// stream holds exactly Rank's explanations (sort with
// SortExplanations to recover the ranking order), and Rank itself is
// always deterministic.
func WithDeterministic(on bool) Option { return func(c *config) { c.completionOrder = !on } }

// WithHTTPClient sets the http.Client a Dial'ed session uses
// (default http.DefaultClient). Ignored by Open.
func WithHTTPClient(hc *http.Client) Option { return func(c *config) { c.httpClient = hc } }

// WithRetries sets how many extra attempts a Dial'ed session's client
// gives an idempotent request — a GET, a DELETE, or a mutation carrying
// an Idempotency-Key (inserts and deletes generate one) — after a
// transport error or a transient status (429, 502, 503, 504) (default
// 2; 0 disables). Explain-family POSTs are never retried. Ignored by
// Open.
func WithRetries(n int) Option { return func(c *config) { c.retries = n } }
