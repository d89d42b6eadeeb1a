// Command perfbench is the repository's benchmark of the explanation
// path. It boots an in-process, single-node querycaused on loopback
// (persistence off, no cluster), drives it only through the public
// Session API, checks every output against oracles computed apart from
// the ranking engine, and prints the end-to-end metrics — or, with
// -trace 1, the per-layer metrics — as the last line of its output.
//
//	go run . -workload explain-warm -seed 1 -seconds 12 -trace 0
//	go run . -workload hard-local -repeat 10
//
// See README.md for the workloads, the metrics and reference figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	qc "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/server"
)

// metricSpec names one metric with its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, on every
// workload; the three timings are scaled to the nominal host speed
// (see reference.go).
var endToEnd = []metricSpec{
	{"op_ms", "ms"},
	{"round_ms", "ms"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
}

// workloadLatencies are the per-workload latency series; each untraced
// run prints those of its workload, and the traced run reports them
// (from its untraced rounds) as latency.* metrics.
var workloadLatencies = []string{
	"explain_warm_ms",
	"first_explanation_ms",
	"hard_rank_ms",
	"whyno_rank_ms",
	"mutate_ms",
	"watch_lag_ms",
	"reexplain_ms",
	"upload_ms",
	"cold_explain_ms",
}

// perLayer are the metrics every traced run reports, on every
// workload; a layer a workload does not reach reads 0.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"parser.format_ms", "ms"}, {"parser.parse_ms", "ms"}, {"parser.db_bytes", "bytes"},
		{"ra.eval_ms", "ms"}, {"ra.valuations", "count"},
		{"lineage.build_ms", "ms"}, {"lineage.conjuncts", "count"}, {"lineage.causes", "count"},
		{"rewrite.classify_ms", "ms"},
		{"respflow.build_ms", "ms"}, {"respflow.vertices", "count"}, {"respflow.edges", "count"},
		{"respflow.solve_ms", "ms"}, {"respflow.solves", "count"},
		{"exact.search_ms", "ms"}, {"exact.searches", "count"}, {"exact.lineage_width", "count"},
		{"whyno.solve_ms", "ms"}, {"whyno.solves", "count"},
		{"core.rank_ms", "ms"}, {"core.sort_ms", "ms"}, {"core.first_ms", "ms"},
		{"delta.patch_ms", "ms"}, {"delta.patched", "count"}, {"delta.fallbacks", "count"}, {"delta.patch_ratio", "ratio"},
		{"watch.diff_ms", "ms"}, {"watch.frames", "count"}, {"watch.resyncs", "count"},
		{"cache.engine_hit_ratio", "ratio"}, {"cache.cert_hit_ratio", "ratio"},
		{"server.handler_ms", "ms"}, {"server.encode_ms", "ms"}, {"server.response_bytes", "bytes"}, {"server.requests_per_op", "count"},
		{"client.overhead_ms", "ms"},
		{"gc.cycles_per_op", "count"}, {"gc.pause_ms", "ms"}, {"alloc_mb_per_op", "MB"},
		{"trace.coverage", "ratio"}, {"trace.overhead", "ratio"},
		{"host.ref_ms", "ms"},
	}
	for _, name := range workloadLatencies {
		specs = append(specs, metricSpec{"latency." + name, "ms"})
	}
	return specs
}()

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"explain-warm": runExplainWarm,
	"hard-local":   runHardLocal,
	"churn-watch":  runChurnWatch,
}

// primary names each workload's primary operation latency, reported as
// op_ms and compared traced against untraced for trace.overhead.
var primary = map[string]string{
	"explain-warm": "explain_warm_ms",
	"hard-local":   "hard_rank_ms",
	"churn-watch":  "mutate_ms",
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	traceOut string
}

// sizes are the input sizes of one run.
type sizes struct {
	warmDirectors  int   // explain-warm fixture: directors of synthetic IMDB
	stars          []int // hard-local: h₁* star sizes drained per round
	tinyStar       int   // hard-local: star checked against brute force
	whyNo          int   // hard-local: why-no chain candidates
	whyNoPerRound  int
	tinyWhyNo      int // hard-local: why-no chain checked against brute force
	churnDirectors int // churn-watch fixture
	setups         int // set-ups per run; setup_s is their median
}

var fullSizes = sizes{
	warmDirectors:  10300, // ≈100k tuples
	stars:          []int{24, 26, 28},
	tinyStar:       4,
	whyNo:          300,
	whyNoPerRound:  2,
	tinyWhyNo:      12,
	churnDirectors: 10300, // ≈100k tuples
	setups:         3,
}

var smokeSizes = sizes{
	warmDirectors:  1000,
	stars:          []int{6, 8},
	tinyStar:       3,
	whyNo:          30,
	whyNoPerRound:  2,
	tinyWhyNo:      8,
	churnDirectors: 1000,
	setups:         2,
}

// tally counts operations: failed includes wrong, the operations whose
// output an oracle rejected.
type tally struct {
	attempted, failed, wrong int
}

// bench is the state shared by a run's workload: settings, the server,
// the tracer, and what has been measured so far.
type bench struct {
	cfg config
	sz  sizes
	ctx context.Context
	tr  *tracer // nil unless tracing
	rp  replayer

	url string
	hc  *http.Client

	tally
	lat      map[string]*series
	rounds   series
	setup    []float64 // seconds
	traced   series    // primary latency in traced rounds
	untraced series    // primary latency in untraced rounds
	refs     series    // reference task times (see reference.go)
	heapMB   float64
}

// record adds one latency sample.
func (b *bench) record(name string, d time.Duration) {
	s := b.lat[name]
	if s == nil {
		s = new(series)
		b.lat[name] = s
	}
	// Traced runs report workload latencies from untraced rounds only.
	if !b.tr.recording() {
		s.add(d)
	}
	if b.tr != nil && name == primary[b.cfg.workload] {
		if b.tr.on.Load() {
			b.traced.add(d)
		} else {
			b.untraced.add(d)
		}
	}
}

// explain is one remote explanation, WhySo + Rank, each call under
// its client span when op is a traced operation.
func (b *bench) explain(sess qc.Session, q *rel.Query, answer rel.Value, op int) ([]qc.Explanation, error) {
	call := b.tr.callBegin("whyso", op)
	r, err := sess.WhySo(b.ctx, q, answer)
	b.tr.callEnd(call)
	if err != nil {
		return nil, err
	}
	call = b.tr.callBegin("rank", op)
	defer b.tr.callEnd(call)
	return r.Rank(b.ctx)
}

// fail counts a failed operation; wrong marks an oracle mismatch.
func (b *bench) fail(wrong bool, what string, err error) {
	b.attempted++
	b.failed++
	if wrong {
		b.wrong++
	}
	if b.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
}

// loop runs whole rounds until the run's time is used. A traced run
// alternates traced and untraced rounds (and runs at least one of
// each); round_ms times each round's program work, given by the
// round's return value. The reference task runs after each round.
func (b *bench) loop(round func() (time.Duration, error)) error {
	start := time.Now()
	for i := 0; ; i++ {
		if b.tr != nil {
			b.tr.on.Store(i%2 == 0)
		}
		before, err := b.stats()
		if err != nil {
			return err
		}
		d, err := round()
		if err != nil {
			return err
		}
		if err := b.countStats(before); err != nil {
			return err
		}
		if b.tr == nil || !b.tr.on.Load() {
			b.rounds.add(d)
		}
		b.refs.add(referenceTask())
		if time.Since(start).Seconds() >= b.cfg.seconds && (b.tr == nil || i >= 1) {
			break
		}
	}
	if b.tr != nil {
		b.tr.on.Store(false)
	}
	return nil
}

// stats fetches the server's counters during a traced round; nil
// otherwise (and on the in-process workload, which has no server).
func (b *bench) stats() (*server.StatsResponse, error) {
	if b.url == "" || !b.tr.recording() {
		return nil, nil
	}
	st, err := qc.NewClient(b.url, b.hc).Stats(b.ctx)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return &st, nil
}

// countStats adds the server counters' movement since before to the
// tracer's counters.
func (b *bench) countStats(before *server.StatsResponse) error {
	if before == nil {
		return nil
	}
	after, err := b.stats()
	if err != nil || after == nil {
		return err
	}
	b.tr.count("cache.engine_hits", float64(after.EngineCache.Hits-before.EngineCache.Hits))
	b.tr.count("cache.engine_misses", float64(after.EngineCache.Misses-before.EngineCache.Misses))
	b.tr.count("cache.cert_hits", float64(after.CertCache.Hits-before.CertCache.Hits))
	b.tr.count("cache.cert_misses", float64(after.CertCache.Misses-before.CertCache.Misses))
	b.tr.count("delta.patched", float64(after.EnginesPatched-before.EnginesPatched))
	b.tr.count("delta.fallbacks", float64(after.DeltaFallbacks-before.DeltaFallbacks))
	b.tr.count("watch.frames", float64(after.DiffEventsSent-before.DiffEventsSent))
	return nil
}

// measureHeap records the live heap after a forced collection. The
// workloads call it once set-up is done: under a live watch the heap
// grows with every mutation for the first hundred or so (the topic's
// replay ring fills with diff frames), so an end-of-run reading would
// measure how many mutations the run managed, not the working set.
func (b *bench) measureHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.heapMB = float64(ms.HeapAlloc) / (1 << 20)
}

// boot starts the in-process server on a loopback port and returns a
// stop function that closes it and waits for it to end.
func (b *bench) boot() (stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(server.Config{ReapInterval: -1, MaxBodyBytes: 256 << 20, RequestTimeout: 2 * time.Minute})
	var h http.Handler = srv.Handler()
	transport := http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = transport
	if b.tr != nil {
		h = b.tr.middleware(h)
		rt = tracingTransport{t: b.tr, next: transport}
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	b.url = "http://" + ln.Addr().String()
	b.hc = &http.Client{Transport: rt}
	return func() {
		_ = hs.Close()
		<-done
		srv.Close()
		transport.CloseIdleConnections()
	}, nil
}

// runResult is the last line of a run's output.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload run and returns its result line.
func run(cfg config) (runResult, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return runResult{}, fmt.Errorf("unknown workload %q (want explain-warm, hard-local or churn-watch)", cfg.workload)
	}
	b := &bench{cfg: cfg, sz: fullSizes, ctx: context.Background(), lat: make(map[string]*series)}
	if cfg.smoke {
		b.sz = smokeSizes
	}
	if cfg.trace {
		b.tr = newTracer()
		b.rp = replayer{t: b.tr}
	}
	if err := fn(b); err != nil {
		return runResult{}, err
	}
	res := runResult{Correct: b.wrong == 0, Attempted: b.attempted, Failed: b.failed, Metrics: make(map[string]metricValue)}
	fmt.Printf("workload %s seed %d: attempted %d, failed %d (wrong %d), GOMAXPROCS %d\n",
		cfg.workload, cfg.seed, b.attempted, b.failed, b.wrong, runtime.GOMAXPROCS(0))
	for _, name := range workloadLatencies {
		if s := b.lat[name]; s != nil && len(*s) > 0 {
			fmt.Printf("  %-22s ms  %s\n", name, s.describe())
		}
	}
	fmt.Printf("  %-22s ms  %s\n", "round", b.rounds.describe())
	fmt.Printf("  %-22s s   %s\n", "setup", series(b.setup).describe())
	fmt.Printf("  %-22s ms  %s\n", "reference task", b.refs.describe())
	if !cfg.trace {
		scale := hostScale(b.refs)
		fmt.Printf("  times scaled by %.4f, to a host where the reference task takes %v:\n", scale, refNominal)
		values := map[string]float64{
			"op_ms":    scale * b.lat[primary[cfg.workload]].median(),
			"round_ms": scale * b.rounds.median(),
			"setup_s":  scale * series(b.setup).median(),
			"heap_mb":  b.heapMB,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{values[m.name], m.unit}
			fmt.Printf("  %-22s %-5s %.4f\n", m.name, m.unit, values[m.name])
		}
		return res, nil
	}
	layers := b.tr.layerMetrics()
	if u := b.untraced.median(); u > 0 {
		layers["trace.overhead"] = b.traced.median() / u
	}
	layers["host.ref_ms"] = b.refs.median()
	for _, name := range workloadLatencies {
		if s := b.lat[name]; s != nil {
			layers["latency."+name] = s.median()
		}
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{layers[m.name], m.unit}
		fmt.Printf("  %-28s %-5s %.6g\n", m.name, m.unit, layers[m.name])
	}
	out := cfg.traceOut
	if out == "" {
		out = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	}
	if err := b.tr.writeSpans(out); err != nil {
		return runResult{}, err
	}
	fmt.Printf("  spans written to %s\n", out)
	return res, nil
}

func main() {
	var cfg config
	var traceFlag, repeat int
	var size string
	flag.StringVar(&cfg.workload, "workload", "", "explain-warm, hard-local or churn-watch")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 35, "how long the measured loop runs; rounds are never cut")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.StringVar(&size, "size", "full", "full, or smoke for the small inputs the tests use")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/traces/<workload>-seed<n>.jsonl)")
	flag.IntVar(&repeat, "repeat", 0, "run the workload this many times, one process each with seeds seed, seed+1, …, and print the spread of every metric")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.smoke = size == "smoke"
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, not %d\n", traceFlag)
		os.Exit(2)
	}
	if size != "full" && size != "smoke" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -size %q\n", size)
		os.Exit(2)
	}
	if repeat > 0 {
		if err := repeatRuns(cfg, size, repeat); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
