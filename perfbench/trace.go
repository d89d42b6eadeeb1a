package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of a traced run. Spans of one operation
// share Op, the id of its root span (named "op"); Parent is -1 for
// roots.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// spanHeader carries the id of the client-call span a request belongs
// to, so the server middleware can hang its span under it.
const spanHeader = "X-Perfbench-Span"

// tracer records spans and counters in memory while recording is on.
// Recording is switched per round: a traced run alternates traced and
// untraced rounds, so one process measures both sides of the tracing
// overhead. A nil *tracer records nothing and costs one nil check.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	// call is the client-call span whose HTTP request is in flight, -1
	// when none; the workloads issue one request at a time.
	call atomic.Int64

	mu     sync.Mutex
	spans  []span
	counts map[string]float64

	gcBefore runtime.MemStats
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), counts: make(map[string]float64)}
	t.call.Store(-1)
	return t
}

func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// begin opens a span under parent (-1 for an operation root) and
// returns its id, or -1 when not recording.
func (t *tracer) begin(name string, parent int) int {
	if !t.recording() {
		return -1
	}
	start := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	op := id
	if parent >= 0 {
		op = t.spans[parent].Op
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, Op: op})
	return id
}

// end closes the span; -1 is ignored.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs f inside a span named name.
func (t *tracer) timed(name string, parent int, f func()) {
	id := t.begin(name, parent)
	f()
	t.end(id)
}

// count adds v to a per-run counter while recording.
func (t *tracer) count(name string, v float64) {
	if !t.recording() {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// callBegin opens a client-call span and marks it as the parent of
// the requests the call sends.
func (t *tracer) callBegin(name string, parent int) int {
	id := t.begin("client."+name, parent)
	if t != nil {
		t.call.Store(int64(id))
	}
	return id
}

func (t *tracer) callEnd(id int) {
	if t == nil {
		return
	}
	t.call.Store(-1)
	t.end(id)
}

// gcStart and gcStop bracket the program's part of an operation, so
// the runtime counters leave out the benchmark's own checks and
// replays.
func (t *tracer) gcStart() {
	if t.recording() {
		runtime.ReadMemStats(&t.gcBefore)
	}
}

func (t *tracer) gcStop() {
	if !t.recording() {
		return
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	t.count("gc.cycles", float64(after.NumGC-t.gcBefore.NumGC))
	t.count("gc.pause_ns", float64(after.PauseTotalNs-t.gcBefore.PauseTotalNs))
	t.count("alloc.bytes", float64(after.TotalAlloc-t.gcBefore.TotalAlloc))
}

// middleware wraps the server handler: every request that carries a
// client-call span id gets one span per route, and its response bytes
// are counted. Watch streams live for the whole run and are left out.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		route := routeOf(r)
		if err != nil || parent < 0 || route == "watch" {
			next.ServeHTTP(w, r)
			return
		}
		id := t.begin("http."+route, parent)
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		t.end(id)
		t.count("server.response_bytes", float64(cw.n))
		t.count("server.requests", 1)
	})
}

// routeOf names the API route of a request.
func routeOf(r *http.Request) string {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case len(parts) == 2 && parts[1] == "databases":
		return "upload"
	case len(parts) == 3 && parts[1] == "databases":
		return "drop"
	case len(parts) >= 4 && parts[1] == "databases" && parts[3] == "tuples":
		if r.Method == http.MethodDelete {
			return "delete"
		}
		return "insert"
	case len(parts) >= 4 && parts[1] == "databases":
		return parts[3]
	case len(parts) >= 2:
		return parts[1]
	}
	return "other"
}

// countingWriter counts response bytes and keeps streaming handlers
// working (Flush, and Unwrap for http.ResponseController).
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// tracingTransport stamps each request with the client-call span in
// flight.
type tracingTransport struct {
	t    *tracer
	next http.RoundTripper
}

func (tt tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := tt.t.call.Load(); id >= 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return tt.next.RoundTrip(r)
}

// replaySpans maps the spans of the in-process replay to the per-layer
// time metric they feed. core.rank is the parent of the per-cause
// solves; its self time is the ranking loop's own overhead.
var replaySpans = map[string]string{
	"parser.format":    "parser.format_ms",
	"parser.parse":     "parser.parse_ms",
	"ra.eval":          "ra.eval_ms",
	"lineage.build":    "lineage.build_ms",
	"rewrite.classify": "rewrite.classify_ms",
	"respflow.build":   "respflow.build_ms",
	"respflow.solve":   "respflow.solve_ms",
	"exact.index":      "",
	"exact.search":     "exact.search_ms",
	"whyno.check":      "",
	"whyno.solve":      "whyno.solve_ms",
	"core.rank":        "core.rank_ms",
	"core.sort":        "core.sort_ms",
	"delta.patch":      "delta.patch_ms",
	"watch.diff":       "watch.diff_ms",
	"server.encode":    "server.encode_ms",
}

// layerMetrics folds the spans and counters of the traced rounds into
// the per-layer metrics, each per operation unless it is a ratio.
func (t *tracer) layerMetrics() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	dur := func(s span) float64 { return float64(s.End-s.Start) / 1e6 }
	childMs := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			childMs[s.Parent] += dur(s)
		}
	}
	var ops, opMs, handlerMs, clientMs, coveredMs float64
	out := make(map[string]float64)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := dur(s)
		switch {
		case s.Name == "op":
			ops++
			opMs += d
		case strings.HasPrefix(s.Name, "http."):
			handlerMs += d
		case strings.HasPrefix(s.Name, "client."):
			clientMs += d - childMs[i]
		default:
			metric, ok := replaySpans[s.Name]
			if !ok {
				continue
			}
			if metric != "" {
				out[metric] += d
			}
			coveredMs += d - childMs[i]
		}
	}
	if ops == 0 {
		ops = 1
	}
	for k := range out {
		out[k] /= ops
	}
	c := t.counts
	perOp := func(name, counter string) { out[name] = c[counter] / ops }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	out["server.handler_ms"] = handlerMs / ops
	out["client.overhead_ms"] = clientMs / ops
	perOp("parser.db_bytes", "parser.db_bytes")
	perOp("ra.valuations", "ra.valuations")
	perOp("lineage.conjuncts", "lineage.conjuncts")
	perOp("lineage.causes", "lineage.causes")
	perOp("respflow.vertices", "respflow.vertices")
	perOp("respflow.edges", "respflow.edges")
	perOp("respflow.solves", "respflow.solves")
	perOp("exact.searches", "exact.searches")
	out["exact.lineage_width"] = ratio(c["exact.lineage_width"], c["exact.engines"])
	perOp("whyno.solves", "whyno.solves")
	out["core.first_ms"] = ratio(c["core.first_ms"], c["core.rankings"])
	perOp("delta.patched", "delta.patched")
	perOp("delta.fallbacks", "delta.fallbacks")
	out["delta.patch_ratio"] = ratio(c["delta.patched"], c["delta.patched"]+c["delta.fallbacks"])
	perOp("watch.frames", "watch.frames")
	perOp("watch.resyncs", "watch.resyncs")
	out["cache.engine_hit_ratio"] = ratio(c["cache.engine_hits"], c["cache.engine_hits"]+c["cache.engine_misses"])
	out["cache.cert_hit_ratio"] = ratio(c["cache.cert_hits"], c["cache.cert_hits"]+c["cache.cert_misses"])
	perOp("server.response_bytes", "server.response_bytes")
	perOp("server.requests_per_op", "server.requests")
	perOp("gc.cycles_per_op", "gc.cycles")
	out["gc.pause_ms"] = c["gc.pause_ns"] / 1e6 / ops
	out["alloc_mb_per_op"] = c["alloc.bytes"] / (1 << 20) / ops
	// Coverage: client transport plus the replayed engine layers that
	// stand in for the work inside the handler, over operation wall
	// time. The remainder is server plumbing (decode, locks, admission),
	// GC, and the benchmark's own loop.
	out["trace.coverage"] = ratio(clientMs+coveredMs, opMs)
	return out
}

// writeSpans writes every recorded span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace output: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}
